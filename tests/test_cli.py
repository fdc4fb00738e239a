import json
import os
import subprocess
import sys

import pytest

from crossg2 import cli
from crossg2.checks import CHECKS, CheckResult, select_checks
from crossg2.cli import emit, main


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("CROSSG2_FILTER", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "crossg2", *args],
                          capture_output=True, env=env)
    return proc


def test_registry_ids_unique_and_ordered():
    ids = [c.id for c in CHECKS]
    assert len(ids) == len(set(ids))
    groups = [i.split(".")[0] for i in ids]
    order = {"scalar": 0, "linalg": 1, "cross": 2, "oct": 2, "g2": 3,
             "lts": 4, "catalog": 5, "matmodel": 6}
    ranks = [order[g] for g in groups]
    assert ranks == sorted(ranks)


def test_select_checks():
    assert select_checks(None) == CHECKS
    assert select_checks(["scalar.*"]) == [c for c in CHECKS
                                           if c.id.startswith("scalar.")]
    assert select_checks(["nothing.*"]) == []
    both = select_checks(["scalar.arith", "linalg.kernel"])
    assert [c.id for c in both] == ["scalar.arith", "linalg.kernel"]


def test_emit_json_empty_and_fields():
    assert emit([], "json") == b"[]\n"
    r = CheckResult("a.b", "anchor text", "pass", None, 3)
    payload = json.loads(emit([r], "json"))
    assert list(payload[0].keys()) == ["id", "anchor", "status", "witness",
                                       "duration_ms"]


def test_emit_text():
    ok = CheckResult("a.b", "anchor", "pass", None, 1)
    bad = CheckResult("c.d", "anchor2", "fail", "broken identity", 2)
    text = emit([ok, bad], "text").decode()
    lines = text.strip().split("\n")
    assert lines[0].startswith("PASS")
    assert "witness: broken identity" in lines[1]


def test_cli_pass_run():
    proc = run_cli("verify", "--filter", "scalar.*", "--format", "json",
                   "--no-timing")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert all(r["status"] == "pass" for r in payload)
    assert all(r["duration_ms"] == 0 for r in payload)


def test_cli_empty_filter_is_usage_error():
    proc = run_cli("verify", "--filter", "no.such.check")
    assert proc.returncode == 2
    assert b"selects no checks" in proc.stderr


def test_cli_bad_trials():
    proc = run_cli("verify", "--trials", "0", "--filter", "scalar.*")
    assert proc.returncode == 2


def test_cli_corrupted_fixture_fails_with_witness():
    proc = run_cli("verify", "--filter", "cross.table", "--format", "json",
                   "--corrupt", "cross-table")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload[0]["status"] == "fail"
    assert "e1 x e2" in payload[0]["witness"]


def test_cli_unknown_corrupt_tag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--filter", "cross.table", "--corrupt", "bogus"])
    assert exc.value.code == 2
    assert "cross-table" in capsys.readouterr().err


@pytest.mark.parametrize("value, flag, timing", [
    (None, (), True), ("0", (), True), ("1", (), False), ("2", (), False),
    ("0", ("--no-timing",), False)])
def test_no_timing_variable_is_an_integer(monkeypatch, value, flag, timing):
    seen = []
    monkeypatch.setattr(cli, "run_checks",
                        lambda *args, **kw: seen.append(kw["timing"]) or [])
    if value is None:
        monkeypatch.delenv("CROSSG2_NO_TIMING", raising=False)
    else:
        monkeypatch.setenv("CROSSG2_NO_TIMING", value)
    assert main(["verify", "--filter", "scalar.arith", *flag]) == 0
    assert seen == [timing]


def test_cli_default_run_passes():
    # the headline contract: a default run executes every check and exits 0
    proc = run_cli("verify", "--format", "json", "--no-timing")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert len(payload) == len(CHECKS)
    assert all(r["status"] == "pass" for r in payload)


def test_cli_profile_seed_6_passes():
    # seed 6 draws the profile (1, 0, 0, 2): W shares one line with V
    proc = run_cli("verify", "--seed", "6", "--filter", "catalog.profile",
                   "--format", "json")
    assert proc.returncode == 0, proc.stdout
    payload = json.loads(proc.stdout)
    assert payload and all(r["status"] == "pass" for r in payload)


def test_cli_determinism_same_seed():
    args = ("verify", "--seed", "42", "--filter", "scalar.*", "--filter",
            "oct.*", "--format", "json", "--no-timing")
    out1 = run_cli(*args)
    out2 = run_cli(*args)
    assert out1.returncode == out2.returncode == 0
    assert out1.stdout == out2.stdout


def test_env_overrides():
    proc = run_cli("verify", env_extra={"CROSSG2_FILTER": "scalar.arith",
                                        "CROSSG2_FORMAT": "json",
                                        "CROSSG2_NO_TIMING": "1"})
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert [r["id"] for r in payload] == ["scalar.arith"]
    assert payload[0]["duration_ms"] == 0
    # explicit flag wins over the environment
    proc2 = run_cli("verify", "--filter", "linalg.kernel", "--format", "json",
                    env_extra={"CROSSG2_FILTER": "scalar.arith"})
    payload2 = json.loads(proc2.stdout)
    assert [r["id"] for r in payload2] == ["linalg.kernel"]


@pytest.mark.parametrize("name, value, flag", [
    ("CROSSG2_TRIALS", "abc", ("--trials", "1")),
    ("CROSSG2_SEED", "1.5", ("--seed", "1")),
    ("CROSSG2_FORMAT", "xml", ("--format", "json")),
    ("CROSSG2_NO_TIMING", "yes", ("--no-timing",))])
def test_malformed_env_value_is_a_usage_error(name, value, flag):
    proc = run_cli("verify", "--filter", "scalar.arith", env_extra={name: value})
    assert proc.returncode == 2
    assert name.encode() in proc.stderr
    assert b"Traceback" not in proc.stderr
    # an explicit flag wins, so the variable is not read
    proc = run_cli("verify", "--filter", "scalar.arith", *flag,
                   env_extra={name: value})
    assert proc.returncode == 0, proc.stderr


def test_main_in_process(capsys):
    rc = main(["verify", "--filter", "scalar.arith", "--format", "text",
               "--no-timing"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
