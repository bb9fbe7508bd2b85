"""Truncated spans, membership certificates, graded ideal sequences."""

import random
from fractions import Fraction

import pytest

import gaext.groebner
from gaext.derivation import Derivation
from gaext.filtered import (FilteredSubalgebra, IdealSequence, Member,
                            NotFoundWithinBounds, TruncationParams,
                            compute_m_nu, generated_in_degree_one,
                            subalgebra_contains, truncated_span,
                            verify_sequence_axioms)
from gaext.groebner import Ideal, InputError
from gaext.poly import Polynomial, parse
from gaext.report import PASS
from gaext.sl2 import (base_power_ideal, family1_derivation, family2_subalgebra,
                       sl2_ring, sl2_sequence, sl2_subalgebra, verify_family2)
from gaext.trivial import TrivialExtension


def test_truncation_params_validation_and_scaling():
    with pytest.raises(InputError):
        TruncationParams(-1, 3)
    t = TruncationParams(2, 6)
    assert t.scaled(1) is t
    assert t.scaled(2) == TruncationParams(4, 12)
    assert t.scaled(0.1) == TruncationParams(1, 1)  # never collapses to zero
    assert TruncationParams(0, 6).scaled(2).word_length == 0
    assert t.as_params() == (("L", 2), ("d", 6))


def test_truncated_span_deterministic_and_deduplicated():
    sub = sl2_subalgebra()
    trunc = TruncationParams(2, 4)
    span1 = truncated_span(sub, trunc)
    span2 = truncated_span(sub, trunc)
    assert [e.label for e in span1] == [e.label for e in span2]
    assert [e.poly for e in span1] == [e.poly for e in span2]
    # no two elements are scalar multiples of each other
    canon = [frozenset(e.poly.monic().terms.items()) for e in span1]
    assert len(canon) == len(set(canon))
    # degrees respect the bound and the list is degree-sorted
    degs = [e.poly.total_degree() for e in span1]
    assert max(degs) <= trunc.degree
    assert degs == sorted(degs)


def test_subalgebra_contains_witness_is_exact():
    sub = sl2_subalgebra()
    ring = sl2_ring()
    trunc = TruncationParams(2, 4)
    f = ring.parse("x*u + 3*y*v - 2*u*v + 5")
    result = subalgebra_contains(sub, f, trunc)
    assert isinstance(result, Member)
    span = {e.label: e.poly for e in truncated_span(sub, trunc)}
    rebuilt = Polynomial.zero(ring.variables)
    for label, coeff in result.combination:
        rebuilt = rebuilt + span[label] * coeff
    assert ring.normal_form(rebuilt) == ring.normal_form(f)


def test_subalgebra_contains_respects_truncation():
    sub = sl2_subalgebra()
    ring = sl2_ring()
    tight = TruncationParams(1, 2)
    wide = TruncationParams(3, 6)
    f = ring.parse("u^2*v")
    assert isinstance(subalgebra_contains(sub, f, tight), NotFoundWithinBounds)
    assert isinstance(subalgebra_contains(sub, f, wide), Member)


def test_compute_m_nu_sl2_levels():
    sub = sl2_subalgebra()
    for nu in range(1, 4):
        trunc = TruncationParams(nu, 2 * nu + 2)
        computed = compute_m_nu(sub, nu, trunc)
        assert computed.equals(base_power_ideal(nu))
    assert compute_m_nu(sub, 0, TruncationParams(0, 2)).is_unit()
    with pytest.raises(InputError):
        compute_m_nu(sub, -1, TruncationParams(1, 2))


def test_compute_m_nu_monotone_in_truncation():
    sub = sl2_subalgebra()
    small = compute_m_nu(sub, 2, TruncationParams(1, 4))
    large = compute_m_nu(sub, 2, TruncationParams(2, 6))
    assert large.contains_ideal(small)


def test_compute_m_nu_uses_kernel_combinations():
    # u^2*y - u*v*x is killed by D^3 but neither monomial is alone;
    # its level-2 image x^2*y - x^2*y... rather: D^2(u^2 y) = 2x^2 y,
    # D^2(uvx) = 2x^2 y, so the combination contributes nothing new, but
    # u*v itself has D^2(uv) = 2xy and must appear at level 2.
    sub = sl2_subalgebra()
    m2 = compute_m_nu(sub, 2, TruncationParams(2, 6))
    assert parse("x*y", ("x", "y")) in m2
    assert m2.equals(base_power_ideal(2))


def test_base_vars_must_be_constants():
    from gaext.derivation import Derivation
    ring = sl2_ring()
    d = Derivation(ring, {"u": ring.var("x"), "v": ring.var("y")})
    with pytest.raises(InputError):
        FilteredSubalgebra(ring, d, ("x", "u"), {"v": ring.var("v")})
    with pytest.raises(InputError):
        FilteredSubalgebra(ring, d, ("x",), {"z": ring.zero()})


def test_sequence_axioms_pass_for_sl2():
    sub = sl2_subalgebra()
    trunc = TruncationParams(3, 8)
    sequence = IdealSequence.compute(sub, [trunc] * 4)
    report = verify_sequence_axioms(sequence)
    assert report.overall == PASS


def test_sequence_axioms_detect_violations():
    sub = sl2_subalgebra()
    trunc = TruncationParams(2, 6)
    xy = ("x", "y")
    bad = IdealSequence(sub, (trunc,) * 3, [
        Ideal([parse("1", xy)], variables=xy),
        base_power_ideal(2),
        base_power_ideal(1),  # not contained in the previous level
    ])
    report = verify_sequence_axioms(bad)
    assert report.overall != PASS


def test_generated_in_degree_one():
    sub = sl2_subalgebra()
    trunc = TruncationParams(3, 8)
    sequence = IdealSequence.compute(sub, [trunc] * 4)
    results = generated_in_degree_one(sequence)
    assert [(nu, ok) for nu, ok, _ in results] == [(2, True), (3, True)]


def test_sequence_axioms_run_no_buchberger(monkeypatch):
    # m_0 holds the constant 1 and every level is monomial, so no axiom
    # needs a Groebner basis
    sequence = sl2_sequence(2)
    calls = []
    original = gaext.groebner.buchberger

    def counting(gens, order):
        calls.append(len(gens))
        return original(gens, order)

    monkeypatch.setattr(gaext.groebner, "buchberger", counting)
    assert verify_sequence_axioms(sequence).overall == PASS
    assert calls == []


def _random_polynomial(variables, rng, max_exp=3, terms=6):
    """Random polynomial with rational coefficients, not reduced."""
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        out[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(variables, out)


def _table_subalgebras():
    """(subalgebra, has relations) for the sl2, family-one and plane derivations."""
    d1 = family1_derivation(1)
    family1 = FilteredSubalgebra(d1.ring, d1, ("X0", "X1"),
                                 {name: d1.ring.var(name) for name in ("Y0", "Y1", "Y2", "Z")})
    plane = TrivialExtension({"t": parse("t", ("x", "y", "t"))}).subalgebra()
    return [(sl2_subalgebra(), True), (family1, False), (plane, False)]


def test_derivation_table_matches_leibniz_rule():
    rng = random.Random(20141)
    for sub, presented in _table_subalgebras():
        ring, derivation = sub.ambient, sub.derivation
        unreduced_inputs = 0
        for _ in range(60):
            f = _random_polynomial(ring.variables, rng)
            expected = ring.normal_form(derivation._apply_raw(f))
            assert sub.apply_derivation(f) == expected
            unreduced_inputs += ring.normal_form(f) != f
        # inputs divisible by x*v are not normal forms in O(SL2)
        assert (unreduced_inputs > 0) == presented


def test_family2_differentiates_each_monomial_once(monkeypatch):
    calls = []
    original = Derivation.__call__

    def counting(self, f):
        calls.append(f)
        return original(self, f)

    monkeypatch.setattr(Derivation, "__call__", counting)
    assert verify_family2(3, 2, 3).overall == PASS
    assert all(f.is_monomial() for f in calls)
    assert len(calls) == len(set(calls))
    assert len(calls) < 10000  # 34 997 when every image was re-derived


def test_derivation_table_belongs_to_one_subalgebra():
    first = family2_subalgebra(2, 1, 6)
    second = family2_subalgebra(2, 1, 6)
    assert first.derivation is second.derivation  # the cached sl2 derivation
    first.apply_derivation(first.generators["x^2*u"])
    assert first._d_rows and not second._d_rows
    assert not hasattr(first.derivation, "_d_rows")
