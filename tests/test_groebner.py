"""Groebner bases, ideal arithmetic, presented rings, monomial staircases."""

import random
from fractions import Fraction

import pytest

from gaext.groebner import (Ideal, InputError, PresentedRing,
                            buchberger, is_primary_at_origin, reduce_poly,
                            weighted_monomial_ideal)
from gaext.poly import Polynomial, parse
from gaext.report import Undecided

XY = ("x", "y")
XYZ = ("x", "y", "z")


def _random_poly(variables, rng, max_deg=3, terms=3):
    f = Polynomial.zero(variables)
    for _ in range(terms):
        t = Polynomial.constant(rng.randint(-4, 4), variables)
        for name in variables:
            t = t * Polynomial.variable(name, variables) ** rng.randint(0, max_deg)
        f = f + t
    return f


def test_buchberger_closure_under_s_polynomials():
    rng = random.Random(23)
    for _ in range(15):
        gens = [_random_poly(XY, rng, 2, 2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = buchberger(gens)
        from gaext.groebner import _s_polynomial
        for i in range(len(basis)):
            for j in range(i):
                s = _s_polynomial(basis[i], basis[j])
                assert reduce_poly(s, basis).is_zero()


def test_groebner_membership():
    gens = [parse("x^2 + y", XY), parse("x*y + x", XY)]
    ideal = Ideal(gens)
    # x*(x^2+y) - x*(x*y+x) + ... anything built from the generators
    combo = parse("x^3 + x*y", XY) * parse("x^2 + y", XY)
    assert combo in ideal
    assert parse("x", XY) not in ideal
    assert Polynomial.zero(XY) in ideal


def test_ideal_operations():
    m = Ideal([parse("x", XY), parse("y", XY)])
    sq = m ** 2
    assert parse("x*y", XY) in sq
    assert parse("x", XY) not in sq
    assert sq.equals(Ideal([parse("x^2", XY), parse("x*y", XY), parse("y^2", XY)]))
    assert (m + sq).equals(m)
    assert m.contains_ideal(sq)
    assert not sq.contains_ideal(m)
    assert (m ** 0).is_unit()


def test_monomial_fast_paths_agree_with_general():
    rng = random.Random(5)
    for _ in range(10):
        exps = {(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)}
        gens = [Polynomial(XY, {e: 1}) for e in exps]
        ideal = Ideal(gens)
        assert ideal.is_monomial_ideal()
        probe = _random_poly(XY, rng, 4, 3)
        # the divisibility shortcut must agree with full normal-form reduction
        assert (probe in ideal) == ideal.normal_form(probe).is_zero()


def _random_monomial_ideal(variables, rng):
    """1-4 monomials with exponents up to 3 and assorted coefficients."""
    gens = [Polynomial(variables, {tuple(rng.randint(0, 3) for _ in variables):
                                   Fraction(rng.choice((-3, 1, 2)))})
            for _ in range(rng.randint(1, 4))]
    return Ideal(gens)


def test_staircase_agrees_with_buchberger():
    # the reference is the general path: normal forms modulo buchberger of
    # the unminimised generators
    rng = random.Random(31)
    units = 0
    for _ in range(40):
        variables = rng.choice((XY, XYZ))
        a, b = (_random_monomial_ideal(variables, rng) for _ in range(2))
        product = a * b
        unminimised = [f * g for f in a.generators for g in b.generators]
        basis = buchberger(unminimised)
        basis_a = buchberger(a.generators)
        assert set(product.generators) == set(basis)
        assert len(product.generators) == len(basis)
        assert product.minimal_monomial_generators() == sorted(
            g.leading_term()[0] for g in basis)
        for _ in range(6):
            probe = _random_poly(variables, rng, 6, rng.randint(1, 3))
            assert (probe in product) == reduce_poly(probe, basis).is_zero()
        assert product.is_unit() == (basis == [Polynomial.one(variables)])
        assert a.is_unit() == (basis_a == [Polynomial.one(variables)])
        units += a.is_unit()
        assert not product.is_zero()
        assert product.equals(Ideal(unminimised))
        for other in (b, a + b, product):
            basis_other = buchberger(other.generators)
            assert a.equals(other) == (basis_a == basis_other)
            assert a.contains_ideal(other) == all(
                reduce_poly(g, basis_a).is_zero() for g in other.generators)
            assert other.contains_ideal(a) == all(
                reduce_poly(g, basis_other).is_zero() for g in a.generators)
    assert units  # the unit shortcut was exercised


def test_presented_ring_normal_forms():
    r = PresentedRing(("x", "y", "u", "v"),
                      [parse("x*v - y*u - 1", ("x", "y", "u", "v"))])
    assert r.parse("x*v").to_str() == "y*u + 1"
    assert r.normal_form(r.parse("x*v - y*u - 1") - r.zero()).is_zero()
    assert r.parse("u*y + 1 - x*v").is_zero()
    # normal form is unique: same class, same representative
    f = r.parse("x*v*u")
    g = r.parse("(y*u + 1)*u")
    assert f == g


def test_weighted_monomial_ideal():
    ideal = weighted_monomial_ideal(2, 1, 1)
    mins = ideal.minimal_monomial_generators()
    assert mins == [(0, 3), (1, 1), (2, 0)]
    assert weighted_monomial_ideal(1, 1, 0).is_unit()
    assert weighted_monomial_ideal(1, 1, 2).equals(
        Ideal([parse("x", XY), parse("y", XY)]) ** 4)
    with pytest.raises(InputError):
        weighted_monomial_ideal(2, 4, 1)


def test_weighted_ideal_membership_semantics():
    # x^a y^b belongs exactly when 2a + b >= 3*nu
    ideal = weighted_monomial_ideal(2, 1, 2)
    for a in range(8):
        for b in range(8):
            mono = Polynomial(XY, {(a, b): 1})
            assert (mono in ideal) == (2 * a + b >= 6)


def test_primary_at_origin():
    assert is_primary_at_origin(Ideal([parse("x^2", XY), parse("y^3", XY)])) is True
    assert is_primary_at_origin(Ideal([parse("x*y", XY)])) is False
    assert is_primary_at_origin(Ideal([parse("x", XY)])) is False
    assert is_primary_at_origin(
        Ideal([parse("x^2 + y^3", XY), parse("y^4", XY)])) is True
    with pytest.raises(InputError):
        is_primary_at_origin(Ideal([parse("1 + x", XY) - parse("x", XY)]))
    bounded = is_primary_at_origin(
        Ideal([parse("x^2 + y^3", XY), parse("y^4", XY)]), bound=1)
    assert isinstance(bounded, Undecided)
    assert bounded.bounds == (("bound", 1),)
