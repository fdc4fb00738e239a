"""The claims ledger in README.md names every registered check, and only
registered checks."""

import re
from pathlib import Path

from crossg2.checks import CHECKS

README = Path(__file__).resolve().parent.parent / "README.md"


def ledger_rows() -> list[str]:
    section = README.read_text().split("\n## Claims ledger\n", 1)[1]
    lines = section.split("\n## ", 1)[0].splitlines()
    return [line for line in lines if line.startswith("| ")][1:]  # past the header


def test_the_ledger_lists_exactly_the_registered_checks():
    listed = {i for row in ledger_rows()
              for i in re.findall(r"`([a-z0-9_]+\.[a-z0-9_]+)`", row)}
    registered = {c.id for c in CHECKS}
    assert not listed - registered, "listed but not registered"
    assert not registered - listed, "registered but in no row"


def test_each_row_is_checked_or_names_the_item_that_closes_it():
    for row in ledger_rows():
        status = row.rstrip(" |").rsplit("|", 1)[1].strip()
        assert status.startswith("checked") or re.fullmatch(
            r"open \(probes only\): items? \d+( and \d+)?", status), row
