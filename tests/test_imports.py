"""Import hygiene: no import cycles and no function-level imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossg2

PKG = Path(crossg2.__file__).parent
MODULES = sorted(p.stem for p in PKG.glob("*.py") if p.stem != "__main__")

# the deferred imports of the numpy kernel, needed only by axiom checks and
# the sphere-family grid: closure probes never import numpy
ALLOWED_LOCAL = {("lts.py", "check_axioms", "_intops"),
                 ("matmodel.py", "curvature_check", "_intops")}

# the only memoised function, on the octonion table alone: every other shared
# object has one owner, the run's Workspace (the validated principal triple
# included), a module constant or a cached_property of its object
ALLOWED_CACHES = {("g2alg.py", "_d_basis")}

# (importing module, sibling, name): the only private names shared across
# modules; row insertion, for one, is `Subspace.add`, not a private helper
ALLOWED_PRIVATE = {
    ("lts", "linalg", "_accumulate"), ("lts", "linalg", "_nonzeros"),
    ("g2alg", "linalg", "_accumulate"), ("g2alg", "linalg", "_nonzeros"),
    ("matmodel", "linalg", "_accumulate"), ("matmodel", "linalg", "_nonzeros"),
    ("matmodel", "_intops", "_INT64_LIMIT")}


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    name = "crossg2" if module == "__init__" else f"crossg2.{module}"
    src = str(PKG.parent)
    proc = subprocess.run([sys.executable, "-c", f"import {name}"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_closure_probes_leave_numpy_unimported():
    code = ("import sys\n"
            "from crossg2.checks import run_checks, select_checks\n"
            "ids = ['catalog.maximality', 'matmodel.sl3_maximality']\n"
            "results = run_checks(select_checks(ids), 0, 2)\n"
            "assert [r.status for r in results] == ['pass', 'pass'], results\n"
            "assert 'numpy' not in sys.modules\n"
            # nor dataclasses, which imports inspect, dis, tokenize and ast
            "assert 'dataclasses' not in sys.modules\n"
            "assert 'inspect' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True,
                          env={**os.environ, "PYTHONPATH": str(PKG.parent)})
    assert proc.returncode == 0, proc.stderr


def _local_imports(path: Path):
    tree = ast.parse(path.read_text())
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield fn.name, alias.name
            elif isinstance(node, ast.ImportFrom):
                yield fn.name, node.module or ""


def test_no_function_level_imports():
    found = {(path.name, fn, mod)
             for path in sorted(PKG.glob("*.py"))
             for fn, mod in _local_imports(path)}
    assert found == ALLOWED_LOCAL


def test_private_names_cross_modules_only_where_allowed():
    found = {(path.stem, node.module, alias.name)
             for path in sorted(PKG.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names if alias.name.startswith("_")}
    assert found == ALLOWED_PRIVATE


def _memoised(path: Path):
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in fn.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in ("lru_cache", "cache"):
                    yield fn.name


def test_only_allowed_functions_are_memoised():
    found = {(path.name, fn) for path in sorted(PKG.glob("*.py"))
             for fn in _memoised(path)}
    assert found == ALLOWED_CACHES
