"""Verify reports stay byte-identical to the recorded golden files.

The files under perfbench/golden/ are the reference text of each report;
this test only reads them.
"""

import pathlib

import pytest

from gaext.cli import EXIT_PASS, main

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "golden"

ARGV = {
    "family1-graded": ("verify", "family1", "--n", "1", "--nu-max", "3"),
    "family2-weighted": ("verify", "family2", "--p", "3", "--q", "2",
                         "--nu-max", "3"),
    "sequence-axioms": ("verify", "sequence-axioms", "--nu-max", "2", "--n", "1"),
    "gluing-n1": ("verify", "gluing", "--n", "1"),
    "gluing-n2": ("verify", "gluing", "--n", "2"),
    "gluing-n3": ("verify", "gluing", "--n", "3"),
    "section7": ("verify", "section7"),
    "smoothext": ("verify", "smoothext"),
}


def test_every_golden_file_has_argv():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(ARGV)


@pytest.mark.parametrize("name", sorted(ARGV))
def test_report_matches_golden(name, capsys):
    code = main(list(ARGV[name]))
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert out == (GOLDEN / f"{name}.txt").read_bytes().decode()
