"""Mutation checks: every mutant in mutants.toml must fail its named tests.

    python tests/mutants.py

For each mutant, the runner copies src/ and tests/ to a
temporary directory, replaces the mutant's snippet in its file there, and
runs pytest on the tests the mutant names.  The mutant is killed if a named
test fails.  It survives if they all pass; it is stale if its snippet does
not occur exactly once; and a pytest run that is not a plain pass or fail
(a named test that does not exist, say) is an error.  A mutant marked
`equivalent = "<reason>"` changes no behaviour on valid input: it is
reported as equivalent when its tests pass, and as wrongly marked when one
fails.  The exit code is 1 unless every mutant is killed or equivalent.
Needs Python 3.11 or later (tomllib).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(mutant: dict) -> str:
    """'killed', 'survived', 'equivalent', 'wrongly marked equivalent',
    'stale: ...' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / mutant["file"]
        text = path.read_text()
        if (count := text.count(mutant["old"])) != 1:
            return f"stale: the snippet occurs {count} times in {mutant['file']}"
        path.write_text(text.replace(mutant["old"], mutant["new"]))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant["tests"]], cwd=tmp, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(tmp) / "src")})
    if proc.returncode not in (0, 1):
        return f"error: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}"
    if "equivalent" in mutant:
        return "wrongly marked equivalent" if proc.returncode else "equivalent"
    return "killed" if proc.returncode else "survived"


def main() -> int:
    mutants = tomllib.loads((ROOT / "tests" / "mutants.toml").read_text())["mutant"]
    failed = 0
    for mutant in mutants:
        verdict = run(mutant)
        failed += verdict not in ("killed", "equivalent")
        print(f"{verdict.split(chr(10))[0]:>10}  {mutant['name']}")
        if verdict == "equivalent":
            print(f"{'':>10}  ({mutant['equivalent']})")
        elif verdict != "killed" and "\n" in verdict:
            print(verdict.split("\n", 1)[1])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
