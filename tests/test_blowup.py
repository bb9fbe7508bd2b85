"""Chart-local blowups and derivation transport."""

import pytest

from gaext.blowup import (blowup_chart, fixed_locus_ideal, initial_chart,
                          verify_section7_cases)
from gaext.derivation import Derivation
from gaext.groebner import Ideal, InputError, PresentedRing
from gaext.poly import parse
from gaext.report import PASS


def test_initial_chart_linearizes():
    cb = initial_chart()
    assert cb.ring.variables == ("xi", "eta", "zeta")
    assert cb.derivation.images["xi"] == cb.ring.var("eta")
    assert cb.derivation.images["eta"].is_zero()
    assert cb.derivation.images["zeta"].is_zero()
    # substitution sends x to xi*eta and keeps y as eta
    assert cb.substitution["x"] == cb.ring.var("xi") * cb.ring.var("eta")
    assert cb.substitution["y"] == cb.ring.var("eta")


def test_trivial_center_is_identity():
    base = PresentedRing(("x", "y"))
    d = Derivation(base, {"x": base.var("y")})
    cb = blowup_chart(base, d, base.var("x"), [base.var("x")], 0)
    assert cb.ring is base
    assert cb.substitution == {"x": base.var("x"), "y": base.var("y")}


def test_divisor_must_lie_in_center():
    base = PresentedRing(("x", "y", "z"))
    d = Derivation(base, {})
    with pytest.raises(InputError):
        blowup_chart(base, d, base.var("z"), [base.var("x"), base.var("y")], 0)
    with pytest.raises(InputError):
        blowup_chart(base, d, base.var("x"), [base.var("x"), base.var("y")], 5)


def test_transport_not_polynomial_raises():
    # center <x, y> with D(y) = 1: D(y/x) = 1/x - (y/x)*0 / x is not regular
    base = PresentedRing(("x", "y"))
    d = Derivation(base, {"y": base.one()})
    with pytest.raises(InputError):
        blowup_chart(base, d, base.var("x"), [base.var("x"), base.var("y")], 0)


def test_general_path_matches_elimination():
    # the elimination path blows up a relation-free ring along coordinate
    # variables; any other center, here one entry 2x, is an input error
    base = PresentedRing(("x", "y", "z"))
    y = base.var("y")
    d = Derivation(base, {"x": y ** 2})
    elim = blowup_chart(base, d, y, [base.var("x"), y, base.var("z")], 1,
                        names={"x": "xi", "y": "eta", "z": "zeta"})
    assert elim.derivation.images["xi"] == elim.ring.var("eta")
    with pytest.raises(InputError, match="coordinate variables"):
        blowup_chart(base, d, y, [base.var("x") + base.var("x"), y, base.var("z")], 1)
    sl2 = PresentedRing(("x", "y"), [parse("x*y - 1", ("x", "y"))])
    with pytest.raises(InputError, match="without relations"):
        blowup_chart(sl2, Derivation(sl2, {}), sl2.var("x"), [sl2.var("x"), sl2.var("y")], 0)


def test_fixed_locus_ideal():
    base = PresentedRing(("x", "y"))
    d = Derivation(base, {"x": base.var("y") ** 2})
    fixed = fixed_locus_ideal(d)
    assert fixed.equals(Ideal([parse("y^2", ("x", "y"))]))
    zero = Derivation(base, {})
    assert fixed_locus_ideal(zero).generators == []


def test_fixed_locus_generating_set_invariance():
    cb = initial_chart()
    d = cb.derivation
    ring = cb.ring
    default = fixed_locus_ideal(d)
    gens = list(ring.gens()) + [ring.var("xi") * ring.var("zeta"),
                                ring.var("xi") + ring.var("eta")]
    enlarged = fixed_locus_ideal(d, gens)
    assert default.equals(enlarged)


def test_section7_report_passes():
    report = verify_section7_cases()
    assert report.overall == PASS
    ids = [c.check_id for c in report.checks]
    assert ids.count("case1-strict-transform") == 2
    assert ids.count("case2a-full-fiber") == 2
    assert "case2b-partial-fiber" in ids
