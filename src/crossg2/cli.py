"""Batch verification runner.

    crossg2 verify [--seed N] [--trials N] [--filter GLOB] \
                   [--format text|json] [--no-timing]

Exit codes: 0 all selected checks pass, 1 at least one check failed,
2 usage error (a filter that selects nothing, an unknown --corrupt tag, or
a malformed CROSSG2_SEED, CROSSG2_TRIALS, CROSSG2_FORMAT or CROSSG2_NO_TIMING).

Environment variables mirror the flags with the CROSSG2_ prefix
(CROSSG2_SEED, CROSSG2_TRIALS, CROSSG2_FILTER as a comma-separated list,
CROSSG2_FORMAT, CROSSG2_NO_TIMING: a nonzero integer turns timing off);
explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import CheckResult, run_checks, select_checks

__all__ = ["main", "emit", "build_parser"]


FORMATS = ("text", "json")


def _env(parser: argparse.ArgumentParser, flag, name: str, default,
         choices: tuple[str, ...] | None = None):
    """The flag's value if given, else the environment variable's (an
    integer, or one of choices), else default; a malformed value is a usage
    error that names the variable."""
    if flag is not None:
        return flag
    raw = os.environ.get(name)
    if raw is None:
        return default
    if choices is not None:
        if raw not in choices:
            parser.error(f"{name} must be one of {', '.join(choices)}, not {raw!r}")
        return raw
    try:
        return int(raw)
    except ValueError:
        parser.error(f"{name} must be an integer, not {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossg2",
        description="exact verification suite for the cross-product algebra "
                    "and its triple-system catalogue")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run the check suite")
    verify.add_argument("--seed", type=int,
                        help="seed for randomized checks and probes")
    verify.add_argument("--trials", type=int,
                        help="trial count for maximality probes (>= 1)")
    verify.add_argument("--filter", action="append", metavar="GLOB",
                        default=None,
                        help="check-id glob; may be repeated")
    verify.add_argument("--format", choices=FORMATS)
    verify.add_argument("--no-timing", action="store_true", default=None,
                        help="zero the duration fields (reproducible output)")
    verify.add_argument("--corrupt", choices=("cross-table",), default=None,
                        help="testing aid: corrupt a fixture to exercise the "
                             "failure path")
    return parser


def emit(results: list[CheckResult], fmt: str) -> bytes:
    if fmt == "json":
        payload = [
            {"id": r.id, "anchor": r.anchor, "status": r.status,
             "witness": r.witness, "duration_ms": r.duration_ms}
            for r in results
        ]
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    lines = []
    for r in results:
        line = f"{r.status.upper():<7} {r.id}  {r.anchor}  {r.duration_ms}ms"
        if r.status != "pass" and r.witness:
            line += f"  | witness: {r.witness}"
        lines.append(line)
    return ("\n".join(lines) + "\n").encode("utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "verify":  # pragma: no cover - argparse enforces this
        parser.error("unknown command")
    args.seed = _env(parser, args.seed, "CROSSG2_SEED", 0)
    args.trials = _env(parser, args.trials, "CROSSG2_TRIALS", 25)
    args.format = _env(parser, args.format, "CROSSG2_FORMAT", "text", FORMATS)
    args.no_timing = _env(parser, args.no_timing, "CROSSG2_NO_TIMING", 0)
    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    patterns = args.filter
    if patterns is None:
        env_filter = os.environ.get("CROSSG2_FILTER")
        if env_filter:
            patterns = [p.strip() for p in env_filter.split(",") if p.strip()]
    checks = select_checks(patterns)
    if not checks:
        print(f"error: filter {patterns!r} selects no checks", file=sys.stderr)
        return 2
    results = run_checks(checks, seed=args.seed, trials=args.trials,
                         corrupt=args.corrupt, timing=not args.no_timing)
    sys.stdout.write(emit(results, args.format).decode("utf-8"))
    sys.stdout.flush()
    return 0 if all(r.status == "pass" for r in results) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
