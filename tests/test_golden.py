"""The `--json` output of documented commands, byte for byte against the
files in tests/golden/, recorded before derived structures were built from
tables (extend-M2D2.json before the law scans shared one bookkeeping). A
change that alters any of them has changed what a report says."""

from pathlib import Path

import pytest

from squanta.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "search-3-correspond.json": ["search", "--size", "3", "--suite", "correspond"],
    "search-4-correspond.json": ["search", "--size", "4"],
    "search-3-leftdist.json": ["search", "--size", "3", "--suite", "leftdist"],
    "search-3-projective.json": ["search", "--size", "3", "--suite", "projective"],
    "projective-A2.json": ["projective", "A·2", "--exhaustive-lifting", "3"],
    "quotient.json": ["quotient", "A3.self", "g022"],
    "correspond-N2.json": ["correspond", "N2"],
    "extend-M2D2.json": ["extend", "M2D2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_is_unchanged(name, capsys):
    code = main(CASES[name] + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
