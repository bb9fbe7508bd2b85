"""Reports under explicit truncation flags or LND_TRUNC_SCALE, byte for byte.

Each expected file under tests/flagged/ pins how flags, the scale and each
suite's default bounds combine, and what a truncated shortfall prints.  One
more file pins a deep run at default bounds, family 1 up to nu = 5, whose
spans normal-form products up to the fifth power of the SL2 relation's tail,
another the same at n = 3, another family 2 at weights (3, 2) up to
nu = 5, whose top span holds tens of thousands of elements, another family 2
at weights (5, 3) up to nu = 8, whose top span's degree bound is 132, and
another the cross-family P(1,1) sequence up to nu = 8.
"""

import pathlib

import pytest

from gaext.cli import EXIT_INDETERMINATE, EXIT_PASS, main

FLAGGED = pathlib.Path(__file__).resolve().parent / "flagged"

# name -> (LND_TRUNC_SCALE or None, argv, exit code)
CASES = {
    "cross-family-nu1-deg8": (
        None, ("verify", "cross-family", "--nu-max", "1", "--trunc-deg", "8"), EXIT_PASS),
    "cross-family-len0": (
        None, ("verify", "cross-family", "--trunc-len", "0"), EXIT_INDETERMINATE),
    "family2-p2q1-nu2-deg4": (
        None, ("verify", "family2", "--p", "2", "--q", "1", "--nu-max", "2",
               "--trunc-deg", "4"), EXIT_INDETERMINATE),
    # the positive-weight probe reads level 1's bounds even at nu_max 0
    "family2-p2q1-nu0-deg6": (
        None, ("verify", "family2", "--p", "2", "--q", "1", "--nu-max", "0",
               "--trunc-deg", "6"), EXIT_PASS),
    "sequence-axioms-nu2-n1-deg6": (
        None, ("verify", "sequence-axioms", "--nu-max", "2", "--n", "1",
               "--trunc-deg", "6"), EXIT_PASS),
    # the computed m_2 misses part of m_1*m_1: open at level 2's bounds
    "sequence-axioms-nu2-n1-deg3": (
        None, ("verify", "sequence-axioms", "--nu-max", "2", "--n", "1",
               "--trunc-deg", "3"), EXIT_INDETERMINATE),
    "family1-n1-nu1-scale1.5": (
        "1.5", ("verify", "family1", "--n", "1", "--nu-max", "1"), EXIT_PASS),
    # a flag replaces the scale: the level prints L=1,d=8
    "family1-n1-nu1-scale2-deg8": (
        "2", ("verify", "family1", "--n", "1", "--nu-max", "1", "--trunc-deg", "8"),
        EXIT_PASS),
    # default bounds, deep: levels 0..5 of family 1
    "family1-n1-nu5": (
        None, ("verify", "family1", "--n", "1", "--nu-max", "5"), EXIT_PASS),
    # default bounds, deep: levels 0..5 of family 1 at n = 3, where the
    # torus path leaves the most blocks unbuilt
    "family1-n3-nu5": (
        None, ("verify", "family1", "--n", "3", "--nu-max", "5"), EXIT_PASS),
    # default bounds, deep: levels 0..5 of family 2 at weights (3, 2)
    "family2-p3q2-nu5": (
        None, ("verify", "family2", "--p", "3", "--q", "2", "--nu-max", "5"), EXIT_PASS),
    # default bounds, deep: levels 0..8 of family 2 at weights (5, 3)
    "family2-p5q3-nu8": (
        None, ("verify", "family2", "--p", "5", "--q", "3", "--nu-max", "8"), EXIT_PASS),
    # default bounds, deep: levels 0..8 of the cross-family P(1,1) sequence
    "cross-family-nu8": (
        None, ("verify", "cross-family", "--nu-max", "8"), EXIT_PASS),
}


def test_every_flagged_file_has_a_case():
    assert sorted(p.stem for p in FLAGGED.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_flagged_report_matches(name, capsys, monkeypatch):
    scale, argv, expected_code = CASES[name]
    if scale is None:
        monkeypatch.delenv("LND_TRUNC_SCALE", raising=False)
    else:
        monkeypatch.setenv("LND_TRUNC_SCALE", scale)
    code = main(list(argv))
    assert capsys.readouterr().out == (FLAGGED / f"{name}.txt").read_bytes().decode()
    assert code == expected_code
