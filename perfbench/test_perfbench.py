"""Tests of the benchmark itself: output gate, counter repeatability,
tracer coverage and self-time arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402

FULL_REFERENCE = json.loads((HERE / "reference" / "verify-full.json").read_text())


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".bench_out" / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def _cross_run(*extra: str) -> run.Run:
    args = run.verify_args("verify-full", 0) + ["--filter", "cross.*", *extra]
    return run.spawn([sys.executable, "-m", "crossg2", *args],
                     run.child_env(ROOT))


def test_gate_reports_corrupted_cross_table():
    reference = [r for r in FULL_REFERENCE if r["id"].startswith("cross.")]
    assert run.gate(_cross_run(), reference) is None
    reason = run.gate(_cross_run("--corrupt", "cross-table"), reference)
    assert reason is not None and "exit code 1" in reason


def test_gate_rejects_changed_output_with_exit_zero():
    reference = [r for r in FULL_REFERENCE if r["id"].startswith("cross.")]
    good = _cross_run()
    results = json.loads(good.out)
    results[0]["witness"] = "tampered"
    tampered = run.Run(good.wall_s, good.peak_rss_mb, 0,
                       json.dumps(results).encode(), b"")
    assert "tampered" in run.gate(tampered, reference)
    truncated = run.Run(good.wall_s, good.peak_rss_mb, 0,
                        json.dumps(results[1:]).encode(), b"")
    assert "reference has" in run.gate(truncated, reference)


def test_peak_memory_is_the_childs_own():
    import numpy  # noqa: F401 - keeps this process larger than the child
    import resource
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    done = run.spawn([sys.executable, "-c", "pass"], run.child_env(ROOT))
    assert done.code == 0
    assert done.peak_rss_mb < own_mb


REPEATED = ("scalar.new", "linalg.rref.calls", "lts.closure.calls",
            "intops.ops", "catalog.grading.calls")


def test_counters_repeat_exactly(workdir):
    args = ["verify", "--format", "json", "--seed", "7", "--trials", "3",
            "--filter", "lts.m34", "--filter", "catalog.maximality"]
    counts = []
    for i in range(2):
        out = workdir / f"trace{i}.npz"
        done = run.spawn([sys.executable, str(HERE / "tracer.py"), str(out),
                          *args], run.child_env(ROOT))
        assert done.code == 0, done.err
        metrics = tracer.layer_metrics(str(out))
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit == "count"})
    assert counts[0] == counts[1]
    for name in REPEATED:
        assert counts[0][name] > 0, name


def test_every_binding_is_wrapped_and_restored():
    import crossg2
    from crossg2 import checks, linalg, lts
    from crossg2.scalar import Scalar

    rec = tracer.Recorder()
    patches = tracer.install(rec)
    try:
        originals = {id(p[2]): p[2] for p in patches}
        for original in originals.values():
            assert tracer.bindings(original) == [], original
        for ns, key, _, wrapper in patches:
            assert vars(ns)[key] is wrapper
        # names imported with ``from .x import y``
        assert lts.rref is linalg.rref is crossg2.linalg.rref
        assert checks.kernel is linalg.kernel is crossg2.kernel
        assert vars(Scalar)["__rmul__"] is vars(Scalar)["__mul__"]
        before = rec.scalar[tracer.NEW]
        Scalar(1, 0, 0, 0) * Scalar(0, 1, 0, 0)
        assert rec.scalar[tracer.NEW] >= before + 3
    finally:
        tracer.uninstall(patches)
    for ns, key, original, wrapper in patches:
        assert vars(ns)[key] is original
        assert tracer.bindings(wrapper) == []


def test_self_time_subtracts_child_spans(workdir):
    rec = tracer.Recorder()
    outer, inner = rec.name_id("linalg.kernel"), rec.name_id("linalg.rref")
    for nid, parent, start, end in ((outer, -1, 0, 100), (inner, 0, 10, 40),
                                    (inner, 0, 50, 70)):
        rec.name.append(nid)
        rec.parent.append(parent)
        rec.check.append(-1)
        rec.start.append(start)
        rec.end.append(end)
    path = workdir / "spans.npz"
    rec.dump(str(path))
    m = tracer.layer_metrics(str(path))
    assert m["linalg.rref.calls"] == (2, "count")
    assert m["linalg.rref.s"][0] == pytest.approx(50e-9)
    assert m["linalg.kernel.calls"] == (1, "count")


def test_refuses_to_run_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tensor-axioms",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, timeout=180)
    assert done.returncode != 0
    assert b"correct" not in done.stdout
