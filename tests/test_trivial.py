"""Extensions of the trivial line bundle: classification, stability, gluing."""

import pytest

from gaext.filtered import IdealSequence, TruncationParams
from gaext.groebner import Ideal, InputError
from gaext.poly import parse
from gaext.report import INDETERMINATE_STATUS, PASS
from gaext.sl2 import sl2_sequence
from gaext.trivial import (FIRST_KIND, SECOND_KIND, TrivialExtension,
                           classify_kind, ideal_sequence_algebra, plane_ring,
                           verify_smoothext)

PLANE = ("x", "y", "t")


def _p(text):
    return parse(text, PLANE)


def test_classify_second_kind():
    ext = TrivialExtension({"xt": _p("x*t"), "yt": _p("y*t")})
    assert classify_kind(ext) == SECOND_KIND
    assert not classify_kind(ext).degenerate


def test_classify_first_kind():
    ext = TrivialExtension({"t": _p("t")})
    assert classify_kind(ext) == FIRST_KIND
    ext = TrivialExtension({"g": _p("x*t^2 - t")})
    assert classify_kind(ext) == FIRST_KIND  # the -t coefficient is a unit


def test_classify_degenerate():
    ext = TrivialExtension({"x2": _p("x^2")})
    cls = classify_kind(ext)
    assert cls.degenerate and cls == SECOND_KIND


def test_classification_ignores_constant_coefficient():
    # a constant term (t-power zero) never forces first kind
    ext = TrivialExtension({"g": _p("1 + x*t")})
    assert classify_kind(ext) == SECOND_KIND


def test_stability_of_second_kind_example():
    ext = TrivialExtension({"xt": _p("x*t"), "yt": _p("y*t"),
                            "xt2": _p("x*t^2")})
    report = ext.verify_stability(TruncationParams(2, 5))
    assert report.overall == PASS


def test_stability_detects_unstable_generator():
    # d/dt of t^2 is 2t, which is not in Q[x,y][xt^3]
    ext = TrivialExtension({"t2": _p("t^2")})
    report = ext.verify_stability(TruncationParams(2, 5))
    assert report.overall != PASS


def test_stability_miss_within_truncation_is_indeterminate():
    # d/dt(x*t^2) = 2*x*t needs the word xt, which L = 0 excludes
    ext = TrivialExtension({"xt": _p("x*t"), "xt2": _p("x*t^2")})
    report = ext.verify_stability(TruncationParams(0, 5))
    statuses = {dict(c.params)["gen"]: c.status for c in report.checks}
    assert statuses == {"xt": PASS, "xt2": INDETERMINATE_STATUS}
    assert report.overall == INDETERMINATE_STATUS


def test_ideal_sequence_algebra_roundtrip():
    sequence = sl2_sequence(2)
    ext = ideal_sequence_algebra(sequence)
    assert ext.proper
    assert classify_kind(ext) == SECOND_KIND
    labels = set(ext.generators)
    assert any("t^1" in lab for lab in labels)
    assert any("t^2" in lab for lab in labels)
    report = ext.verify_stability(TruncationParams(2, 7))
    assert report.overall == PASS


def test_ideal_sequence_algebra_rejects_bad_sequence():
    base = sl2_sequence(2)
    xy = ("x", "y")
    bad = IdealSequence(base.subalgebra, base.truncations, [
        Ideal([parse("1", xy)], variables=xy),
        Ideal([parse("x^2", xy)], variables=xy),
        Ideal([parse("x", xy)], variables=xy),  # breaks the descending axiom
    ])
    with pytest.raises(InputError):
        ideal_sequence_algebra(bad)


def test_unit_level_flags_improper():
    base = sl2_sequence(1)
    xy = ("x", "y")
    unit = IdealSequence(base.subalgebra, base.truncations, [
        Ideal([parse("1", xy)], variables=xy),
        Ideal([parse("1", xy)], variables=xy),
    ])
    ext = ideal_sequence_algebra(unit)
    assert not ext.proper


def test_smoothext_report_passes():
    report = verify_smoothext()
    assert report.overall == PASS
    ids = [c.check_id for c in report.checks]
    assert ids.count("chart-equation") == 6
    assert ids.count("gluing-intertwines") == 5
    assert "inverse-recovers" in ids and "first-kind" in ids
