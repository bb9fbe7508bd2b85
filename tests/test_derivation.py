"""Derivations, nilpotency degrees, graded leading terms, gradings."""

import random
from fractions import Fraction

import pytest

from gaext.derivation import Derivation, Grading, homogeneity_degree
from gaext.groebner import InputError, PresentedRing
from gaext.poly import Polynomial, parse
from gaext.report import Undecided

XYUV = ("x", "y", "u", "v")


def sl2():
    ring = PresentedRing(XYUV, [parse("x*v - y*u - 1", XYUV)])
    return ring, Derivation(ring, {"u": ring.var("x"), "v": ring.var("y")})


def _random_element(ring, rng, max_deg=2, terms=3):
    f = Polynomial.zero(ring.variables)
    for _ in range(terms):
        t = Polynomial.constant(rng.randint(-3, 3), ring.variables)
        for name in ring.variables:
            t = t * ring.var(name) ** rng.randint(0, max_deg)
        f = f + t
    return ring.normal_form(f)


def test_construction_respects_relations():
    ring = PresentedRing(XYUV, [parse("x*v - y*u - 1", XYUV)])
    # sending u to y would give D(xv - yu - 1) = -y^2 which is not in the ideal
    with pytest.raises(InputError):
        Derivation(ring, {"u": ring.var("y")})
    Derivation(ring, {"u": ring.var("x"), "v": ring.var("y")})  # fine


def test_leibniz_rule():
    rng = random.Random(31)
    ring, d = sl2()
    for _ in range(25):
        f = _random_element(ring, rng)
        g = _random_element(ring, rng)
        assert d(f * g) == ring.normal_form(d(f) * g + f * d(g))


def test_nilpotency_degrees():
    ring, d = sl2()
    x, y, u, v = ring.gens()
    assert d.nilpotency_degree(x) == 0
    assert d.nilpotency_degree(u) == 1
    assert d.nilpotency_degree(u * v) == 2
    assert d.nilpotency_degree(ring.zero()) == -1
    assert d.nilpotency_degree(u ** 3) == 3


def test_nilpotency_unbounded():
    ring = PresentedRing(("t",))
    growth = Derivation(ring, {"t": ring.var("t")})
    # the default bound is 2 * deg(t) + 4
    result = growth.nilpotency_degree(ring.var("t"))
    assert result == Undecided("NoVanishingPower", (("bound", 6),))
    assert growth.graded_leading_term(ring.var("t"), bound=3) == Undecided(
        "NoVanishingPower", (("bound", 3),))


def test_graded_leading_term():
    ring, d = sl2()
    x, y, u, v = ring.gens()
    nu, top = d.graded_leading_term(u * u)
    assert nu == 2
    assert top == ring.normal_form(x * x)
    nu, top = d.graded_leading_term(v + x)
    assert (nu, top) == (1, y)
    assert d.graded_leading_term(ring.zero()) == (-1, ring.zero())


def test_graded_leading_term_multiplicative():
    rng = random.Random(47)
    ring, d = sl2()
    for _ in range(15):
        f = _random_element(ring, rng, 1, 2)
        g = _random_element(ring, rng, 1, 2)
        if f.is_zero() or g.is_zero():
            continue
        nf, topf = d.graded_leading_term(f)
        ng, topg = d.graded_leading_term(g)
        product = ring.normal_form(topf * topg)
        if product.is_zero():
            continue
        npq, toppq = d.graded_leading_term(f * g)
        assert npq == nf + ng
        assert toppq == product


def test_grading_and_homogeneity():
    ring, d = sl2()
    grading = Grading(ring, {"x": 2, "y": 1, "u": -1, "v": -2})
    assert grading.weight_range(ring.parse("x*y")) == (3, 3)
    assert grading.weight_range(ring.parse("x + y")) == (1, 2)
    assert grading.weight_range(ring.zero()) is None
    assert homogeneity_degree(d, grading) == 3


def test_homogeneity_degree_needs_one_common_shift():
    ring = PresentedRing(("a", "b", "c"))
    grading = Grading(ring, {"a": 1, "b": 1, "c": 1})
    # D(a) = b shifts weight by 0, D(b) = c^2 by 1: homogeneous images that disagree
    assert homogeneity_degree(Derivation(ring, {"a": ring.var("b"),
                                                "b": ring.parse("c^2")}), grading) is None
    # D(a) = b + c^2 is itself inhomogeneous
    assert homogeneity_degree(Derivation(ring, {"a": ring.parse("b + c^2")}), grading) is None
    # D(a) = b and D(b) = c agree on a shift of 0; c is killed and sets none
    assert homogeneity_degree(Derivation(ring, {"a": ring.var("b"),
                                                "b": ring.var("c")}), grading) == 0
    assert homogeneity_degree(Derivation(ring, {}), grading) == 0


def test_grading_rejects_inhomogeneous_relations():
    ring = PresentedRing(("a", "b"), [parse("a^2 - b", ("a", "b"))])
    with pytest.raises(InputError):
        Grading(ring, {"a": 1, "b": 1})
    Grading(ring, {"a": 1, "b": 2})  # consistent weights are accepted


def test_grading_rejects_non_integer_weights():
    ring, _ = sl2()
    # int() would truncate these to the weights (1, 0, 0, -1)
    with pytest.raises(InputError, match="not an int"):
        Grading(ring, {"x": 1.5, "y": 0.5, "u": -0.5, "v": -1.5})
    with pytest.raises(InputError, match="not an int"):
        Grading(ring, {"x": Fraction(1), "y": 0, "u": 0, "v": -1})
    assert Grading(ring, {"x": 1, "y": 0, "u": 0, "v": -1}).weights["v"] == -1
