"""Benchmark of ``crossg2 verify``, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the program is imported from ``src``.
Each run of a workload is one ``python -m crossg2 verify --format json``
process, one at a time.  With ``--trace 0`` the benchmark starts runs
while the next one is expected to end within ``--seconds`` (at least one)
and reports the median wall time and peak memory, and the median import
time of ``crossg2`` and numpy as set-up time.  With ``--trace 1`` it makes
one plain run and one run under ``tracer.py`` and reports the per-layer
metrics of the traced run and the tracing overhead.

Every run passes through the output gate: exit code 0 and, with the
``duration_ms`` fields zeroed, JSON equal to the workload's reference in
``reference/``.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent

# workload -> extra ``crossg2 verify`` arguments
WORKLOADS = {
    "tensor-axioms": ["--filter", "lts.axioms_full", "--filter", "lts.m34"],
    "closure-probes": ["--filter", "catalog.maximality",
                       "--filter", "matmodel.sl3_maximality",
                       "--trials", "100"],
    "verify-full": ["--trials", "25"],
}
SETUP_SAMPLES = 11
SETUP_CODE = "import crossg2, numpy"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


@dataclass
class Run:
    wall_s: float
    peak_rss_mb: float
    code: int
    out: bytes
    err: bytes


def spawn(cmd: list[str], env: dict[str, str]) -> Run:
    """Run cmd to completion under launch.py, which times it and reads
    its peak memory without this process's memory as a floor."""
    done = subprocess.run([sys.executable, "-S", "-I", str(HERE / "launch.py"),
                           *cmd], env=env, capture_output=True)
    err, _, report = done.stderr.rstrip(b"\n").rpartition(b"\n")
    fields = report.split()
    if done.returncode != 0 or len(fields) != 4 or fields[0] != b"launch:":
        raise RuntimeError(f"launcher failed: {done.stderr[-500:]!r}")
    return Run(float(fields[1]), int(fields[2]) / 1024, int(fields[3]),
               done.stdout, err)


def child_env(root: Path) -> dict[str, str]:
    """The parent environment with the program on the path, no CROSSG2_*
    overrides, and BLAS threads capped at the usable cores."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CROSSG2_")}
    env["PYTHONPATH"] = str(root / "src")
    cores = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, cores)
    return env


def verify_args(workload: str, seed: int) -> list[str]:
    return ["verify", "--format", "json", "--seed", str(seed),
            *WORKLOADS[workload]]


def gate(run: Run, reference: list) -> str | None:
    """Why run's output is wrong, or None when it matches the reference."""
    if run.code != 0:
        mismatch = compare(run.out, reference)
        return f"exit code {run.code}" + (f", {mismatch}" if mismatch else "")
    return compare(run.out, reference)


def compare(out: bytes, reference: list) -> str | None:
    """The first difference of out, a verify JSON report, from reference."""
    try:
        results = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if not (isinstance(results, list)
            and all(isinstance(r, dict) for r in results)):
        return "output is not a list of check results"
    for r in results:
        r["duration_ms"] = 0
    if len(results) != len(reference):
        return f"{len(results)} checks, reference has {len(reference)}"
    for got, want in zip(results, reference):
        if got != want:
            return (f"check {got.get('id')}: status {got.get('status')}, "
                    f"witness {got.get('witness')!r}")
    return None


def setup_s(env: dict[str, str]) -> float:
    """Median time to start the interpreter and import crossg2 and numpy."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    spawn(cmd, env)  # compiles bytecode on a fresh checkout
    samples = []
    for _ in range(SETUP_SAMPLES):
        run = spawn(cmd, env)
        if run.code != 0:
            raise RuntimeError(f"import failed: {run.err.decode(errors='replace')}")
        samples.append(run.wall_s)
    return statistics.median(samples)


def environment(env: dict[str, str]) -> dict[str, object]:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_name,
            "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS}}


def measure(workload: str, seed: int, seconds: float, env):
    """Runs while the next is expected to end within seconds (at least one)."""
    cmd = [sys.executable, "-m", "crossg2", *verify_args(workload, seed)]
    setup = setup_s(env)
    runs: list[Run] = []
    start = time.perf_counter()
    while True:
        runs.append(spawn(cmd, env))
        if time.perf_counter() - start + runs[-1].wall_s > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
    }
    return runs, metrics


def trace(workload: str, seed: int, root: Path, env):
    """One plain run, then one traced run; per-layer metrics of the latter."""
    args = verify_args(workload, seed)
    plain = spawn([sys.executable, "-m", "crossg2", *args], env)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-{seed}.npz"
    traced = spawn([sys.executable, str(HERE / "tracer.py"), str(path), *args],
                   env)
    if not path.is_file():
        raise RuntimeError("traced run wrote no spans: "
                           + traced.err.decode(errors="replace"))
    metrics = layer_metrics(str(path))
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return [plain, traced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "crossg2" / "__init__.py").is_file():
        print(f"error: no crossg2 sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    env = child_env(root)
    reference = json.loads(
        (HERE / "reference" / f"{args.workload}.json").read_text())
    print("# environment:", json.dumps(environment(env)))

    if args.trace:
        runs, metrics = trace(args.workload, args.seed, root, env)
    else:
        runs, metrics = measure(args.workload, args.seed, args.seconds, env)
    reasons = [gate(r, reference) for r in runs]
    failed = sum(reason is not None for reason in reasons)
    for r, reason in zip(runs, reasons):
        if reason is not None:
            line = (f"# FAILED run: {reason}; stderr: "
                    f"{r.err.decode(errors='replace').strip()[-500:]}")
            print(line)
            print(f"{args.workload} seed {args.seed}: {line[2:]}",
                  file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(runs)} run(s), "
          f"fail_ratio {failed / len(runs)} (ratio)")
    print("# per-run wall_s:", [r.wall_s for r in runs])
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
