"""Acceptance suite: twelve exact, desk-scale criteria with runtime limits.

Each test checks one numbered criterion; the terminal summary prints one
pass/fail line per criterion (see conftest.py).
"""

import random
import time

from gaext.derivation import Derivation
from gaext.filtered import (FilteredSubalgebra, IdealSequence, TruncationParams,
                            compute_m_nu, generated_in_degree_one,
                            subalgebra_contains, verify_sequence_axioms)
from gaext.groebner import (Ideal, PresentedRing, buchberger, reduce_poly,
                            weighted_monomial_ideal)
from gaext.poly import Polynomial, parse
from gaext.report import PASS, Member, NotMember, Undecided
from gaext.rewrite import (CHART_VARS, chart_generators, expand_expression,
                           rewrite_membership)
from gaext.sl2 import (base_power_ideal, family1_ideal, family1_psi,
                       family1_subalgebra, family1_truncation,
                       family2_sequence, family2_subalgebra,
                       family2_truncation, family1_derivation,
                       gluing_checks, sl2_derivation, sl2_ring,
                       sl2_sequence, sl2_subalgebra)
from gaext.trivial import FIRST_KIND, verify_smoothext


def test_criterion_01_sl2_graded_sequence():
    start = time.perf_counter()
    sub = sl2_subalgebra()
    for nu in range(1, 5):
        computed = compute_m_nu(sub, nu, TruncationParams(nu, 2 * nu + 2))
        assert computed.equals(base_power_ideal(nu)), nu
    assert time.perf_counter() - start < 5.0


def test_criterion_02_family_one_graded_ideals():
    start = time.perf_counter()
    for n in (1, 2):
        sub = family1_subalgebra(n)
        for nu in (1, 2):
            trunc = TruncationParams(nu, (n + 2) * nu + 4)
            computed = compute_m_nu(sub, nu, trunc)
            assert computed.equals(base_power_ideal((n + 2) * nu)), (n, nu)
    assert time.perf_counter() - start < 60.0


def test_criterion_03_family_two_graded_ideals():
    start = time.perf_counter()
    for p, q in ((1, 1), (2, 1), (3, 2)):
        for nu in (1, 2):
            trunc = TruncationParams(1, 2 * (p + q) * nu + 4)
            sub = family2_subalgebra(p, q, trunc.degree)
            computed = compute_m_nu(sub, nu, trunc)
            assert computed.equals(weighted_monomial_ideal(p, q, nu)), (p, q, nu)
    assert time.perf_counter() - start < 60.0


def test_criterion_04_degree_one_generation_dichotomy():
    sequence21 = family2_sequence(2, 1, 2)
    x3 = parse("x^3", ("x", "y"))
    assert x3 in sequence21[2]
    assert x3 not in sequence21[1] * sequence21[1]
    results = generated_in_degree_one(sequence21)
    assert any(nu == 2 and not equal for nu, equal, _ in results)
    for n in (1, 2):
        sub = family1_subalgebra(n)
        trunc = family1_truncation(n, 2)
        sequence = IdealSequence.compute(sub, [trunc] * 3)
        for nu, equal, witness in generated_in_degree_one(sequence):
            assert equal, (n, nu, witness)


def test_criterion_05_cross_family_base_case():
    sequence = family2_sequence(1, 1, 3)
    for nu in range(1, 4):
        assert sequence[nu].equals(base_power_ideal(2 * nu)), nu


def test_criterion_06_psi_vanishing_and_commutation():
    start = time.perf_counter()
    ring = sl2_ring()
    derivation = sl2_derivation()
    for n in (1, 2, 3):
        psi = family1_psi(n)
        for g in family1_ideal(n).generators:
            assert ring.normal_form(g.substitute(psi)).is_zero(), (n, str(g))
        d_gen = family1_derivation(n)
        for name, image in psi.items():
            lhs = derivation(image)
            rhs = ring.normal_form(d_gen.images[name].substitute(psi))
            assert (lhs - rhs).is_zero(), (n, name)
    assert time.perf_counter() - start < 10.0


def _chart_oracle(n):
    """Truncated-linear-algebra membership oracle for the chart algebra."""
    ring = PresentedRing(CHART_VARS)
    zero = Derivation(ring, {})
    gens = {name: g for name, g in chart_generators(n).items()}
    return FilteredSubalgebra(ring, zero, (), gens)


def _random_chart_member(n, rng):
    gens = list(chart_generators(n).values())
    while True:
        f = Polynomial.one(CHART_VARS)
        for _ in range(rng.randint(1, 4)):
            f = f * rng.choice(gens)
            if f.total_degree() > 8:
                break
        if f.total_degree() <= 8:
            return f * rng.randint(1, 5)


def test_criterion_07_rewriter_agreement():
    rng = random.Random(2024)
    oracle_trunc = TruncationParams(4, 8)
    for n in (1, 2):
        oracle = _chart_oracle(n)
        for _ in range(100):
            f = _random_chart_member(n, rng)
            trace = rewrite_membership(f, n)
            assert isinstance(trace.result, Member)
            assert expand_expression(trace.result.certificate, n) == f
            bidegs = [s.bidegree for s in trace.steps]
            assert bidegs == sorted(bidegs, reverse=True)
            assert len(set(bidegs)) == len(bidegs)
            verdict = subalgebra_contains(oracle, f, oracle_trunc)
            if isinstance(verdict, Undecided):
                assert verdict.bounds == oracle_trunc.as_params()
            else:
                assert isinstance(verdict, Member)
        for _ in range(50):
            f = _random_chart_member(n, rng)
            j = rng.randint(0, 2)
            k = rng.randint(0, 2)
            i = j + (n + 2) * k + rng.randint(1, 3)
            bad = f + Polynomial(CHART_VARS, {(i, j, k): 1})
            trace = rewrite_membership(bad, n)
            assert isinstance(trace.result, NotMember)


def test_criterion_08_smoothext_suite():
    report = verify_smoothext()
    assert report.overall == PASS
    first_kind = [c for c in report.checks if c.check_id == "first-kind"]
    assert first_kind and first_kind[0].status == PASS
    assert FIRST_KIND in first_kind[0].witness


def test_criterion_09_gluing_suite():
    for n in (1, 2, 3):
        report = gluing_checks(n)
        assert report.overall == PASS, n
        agreements = [c for c in report.checks if c.check_id == "chart-agreement"]
        assert len(agreements) == n + 5


def test_criterion_10_blowup_cases():
    from gaext.blowup import verify_section7_cases
    report = verify_section7_cases()
    assert report.overall == PASS
    by_id = {}
    for c in report.checks:
        by_id.setdefault(c.check_id, []).append(c.status)
    assert by_id["initial-chart"] == [PASS]
    assert by_id["case1-free-chart"] == [PASS]
    assert by_id["case1-strict-transform"] == [PASS, PASS]
    assert by_id["case2a-full-fiber"] == [PASS, PASS]
    assert by_id["case2b-generic-chart"] == [PASS]
    assert by_id["case2b-partial-fiber"] == [PASS]


def test_criterion_11_dominated_family_member():
    trunc = family2_truncation(2, 1, 1)
    sub = family2_subalgebra(2, 1, trunc.degree)
    m1 = compute_m_nu(sub, 1, trunc)
    found = next(n for n in range(1, 7)
                 if m1.contains_ideal(base_power_ideal(n + 2)))
    assert found == 1
    member_trunc = TruncationParams(1, trunc.degree)
    for name, image in sorted(family1_psi(found).items()):
        result = subalgebra_contains(sub, image, member_trunc)
        assert isinstance(result, Member), (name, result)


def _random_element(ring, rng, max_deg=2, terms=3):
    f = Polynomial.zero(ring.variables)
    for _ in range(terms):
        t = Polynomial.constant(rng.randint(-3, 3), ring.variables)
        for name in ring.variables:
            t = t * ring.var(name) ** rng.randint(0, max_deg)
        f = f + t
    return ring.normal_form(f)


def test_criterion_12_property_suites():
    rng = random.Random(77)
    ring = sl2_ring()
    derivation = sl2_derivation()

    for _ in range(30):
        f = _random_element(ring, rng)
        g = _random_element(ring, rng)
        assert derivation(f * g) == ring.normal_form(
            derivation(f) * g + f * derivation(g))

    for _ in range(15):
        f = _random_element(ring, rng, 1, 2)
        g = _random_element(ring, rng, 1, 2)
        if f.is_zero() or g.is_zero():
            continue
        nf, topf = derivation.graded_leading_term(f)
        ng, topg = derivation.graded_leading_term(g)
        product = ring.normal_form(topf * topg)
        if product.is_zero():
            continue
        npq, toppq = derivation.graded_leading_term(f * g)
        assert (npq, toppq) == (nf + ng, product)

    sequences = [sl2_sequence(3),
                 IdealSequence.compute(family1_subalgebra(1),
                                       [family1_truncation(1, 2)] * 3),
                 family2_sequence(2, 1, 2)]
    for sequence in sequences:
        assert verify_sequence_axioms(sequence).overall == PASS

    xy = ("x", "y")
    from gaext.groebner import _s_polynomial
    for _ in range(10):
        gens = []
        for _ in range(2):
            g = Polynomial.zero(xy)
            for _ in range(3):
                g = g + Polynomial(
                    xy, {(rng.randint(0, 3), rng.randint(0, 3)):
                         rng.randint(-4, 4)})
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        basis = buchberger(gens)
        for i in range(len(basis)):
            for j in range(i):
                s = _s_polynomial(basis[i], basis[j])
                assert reduce_poly(s, basis).is_zero()
