"""The verdict vocabulary, report statuses, and the package's exports."""

import pytest

import gaext
from gaext.derivation import Derivation
from gaext.filtered import TruncationParams, subalgebra_contains
from gaext.groebner import Ideal, PresentedRing, is_primary_at_origin
from gaext.poly import parse
from gaext.report import (FAIL, INDETERMINATE_STATUS, PASS, Member, NotMember,
                          Report, Undecided, status_of)
from gaext.rewrite import CHART_VARS, rewrite_membership
from gaext.sl2 import sl2_ring, sl2_subalgebra


def _primary_search():
    xy = ("x", "y")
    return is_primary_at_origin(
        Ideal([parse("x^2 + y^3", xy), parse("y^4", xy)]), bound=1)


def _nilpotency_search():
    ring = PresentedRing(("t",))
    growth = Derivation(ring, {"t": ring.var("t")})
    return growth.nilpotency_degree(ring.var("t"))


def _span_search():
    return subalgebra_contains(sl2_subalgebra(), sl2_ring().parse("u^2*v"),
                               TruncationParams(1, 2))


def _rewrite_search():
    return rewrite_membership(parse("u*v", CHART_VARS), 1, max_steps=0).result


@pytest.mark.parametrize("search, reason, bounds", [
    (_primary_search, "PowerNotFound", (("bound", 1),)),
    (_nilpotency_search, "NoVanishingPower", (("bound", 6),)),
    (_span_search, "NotFoundWithinBounds", (("L", 1), ("d", 2))),
    (_rewrite_search, "StepLimit", (("max_steps", 0),)),
])
def test_exhausted_searches_are_undecided(search, reason, bounds):
    result = search()
    assert result == Undecided(reason, bounds)
    assert status_of(result) == INDETERMINATE_STATUS
    with pytest.raises(ValueError):
        bool(result)


def test_undecided_repr():
    assert repr(Undecided("StepLimit")) == "StepLimit"
    assert repr(Undecided("NotFoundWithinBounds", (("L", 1), ("d", 10)))) == \
        "NotFoundWithinBounds(L=1, d=10)"


def test_status_of_verdicts():
    assert status_of(True) == status_of(Member(None, "G0")) == PASS
    assert status_of(False) == status_of(NotMember("t")) == FAIL


@pytest.mark.parametrize("verdict", [None, 0, parse("x", ("x",))])
def test_report_rejects_non_verdicts(verdict):
    report = Report("s")
    with pytest.raises(TypeError):
        report.add("check", verdict)
    assert report.checks == []


def test_verdict_text_is_the_default_witness():
    report = Report("s")
    report.add("a", Member(None, "(1)*u"))
    report.add("b", NotMember("t^5*u", (5, 0, 1)))
    report.add("c", Undecided("StepLimit", (("max_steps", 0),)))
    report.add("d", Undecided("StepLimit"), witness="given")
    report.add("e", True)
    assert [(c.status, c.witness) for c in report.checks] == [
        (PASS, "(1)*u"), (FAIL, "t^5*u"),
        (INDETERMINATE_STATUS, "StepLimit(max_steps=0)"),
        (INDETERMINATE_STATUS, "given"), (PASS, "")]
    assert report.overall == FAIL


def test_every_export_resolves():
    for name in gaext.__all__:
        assert getattr(gaext, name) is not None, name
    namespace = {}
    exec("from gaext import *", namespace)
    assert set(gaext.__all__) <= set(namespace)
    assert {"Undecided", "Member", "NotMember"} <= set(gaext.__all__)
