"""Truncated spans, membership certificates, graded ideal sequences."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

import gaext.groebner
from gaext.derivation import Derivation
from gaext.filtered import (FilteredSubalgebra, IdealSequence, MonomialGenerators,
                            TruncationParams, _Candidates, _Level, compute_m_nu,
                            generated_in_degree_one, subalgebra_contains, truncated_span,
                            truncated_spans, verify_sequence_axioms)
from gaext.groebner import Ideal, InputError, PresentedRing
from gaext.linalg import Echelon
from gaext.poly import Polynomial, StructuralError, monomial_key, parse
from gaext.report import PASS, Member, Undecided
from gaext.sl2 import (base_power_ideal, family1_derivation, family1_subalgebra,
                       family1_truncation, family2_subalgebra, family2_truncation,
                       sequence_axioms_checks, sl2_derivation, sl2_ring, sl2_sequence,
                       sl2_subalgebra, verify_family2)
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


def _reference_span(sub, trunc):
    """One truncation's span, enumerated on its own: every word product is
    recomputed from its first factor, every base monomial multiplied in.
    ``MonomialGenerators`` declare that they and 1 span the subalgebra, so
    their words have at most one letter and their only base monomial is 1."""
    ring = sub.ambient
    length, degree = trunc.word_length, trunc.degree
    monomial = isinstance(sub.generators, MonomialGenerators)
    if monomial:
        length = min(length, 1)

    def too_big(poly):
        return poly.is_zero() or poly.total_degree() > degree

    words = [("1", ring.one())]
    for ell in range(1, length + 1):
        for combo in itertools.combinations_with_replacement(sorted(sub.generators), ell):
            poly = sub.generators[combo[0]]
            for lab in combo[1:]:
                if too_big(poly):
                    break
                poly = ring.normal_form(poly * sub.generators[lab])
            if not too_big(poly):
                words.append(("*".join(f"{lab}^{combo.count(lab)}" if combo.count(lab) > 1
                                       else lab for lab in sorted(set(combo))), poly))
    bases = [("1", ring.one())]
    if not monomial:
        bases = []
        for total in range(degree + 1):
            for combo in itertools.combinations_with_replacement(sub.base_vars, total):
                exps = tuple(combo.count(v) for v in ring.variables)
                label = "*".join(f"{v}^{combo.count(v)}" if combo.count(v) > 1 else v
                                 for v in sorted(set(combo), key=ring.variables.index))
                bases.append((label or "1", Polynomial(ring.variables, {exps: 1})))
    seen = {}
    for mlab, mono in bases:
        for wlab, word in words:
            poly = ring.normal_form(mono * word)
            if too_big(poly):
                continue
            canon = frozenset(poly.monic().terms.items())
            if canon not in seen:
                label = "*".join(lab for lab in (mlab, wlab) if lab != "1") or "1"
                seen[canon] = (label, poly)
    return sorted(seen.values(), key=lambda e: (
        e[1].total_degree(), monomial_key(max(e[1].terms, key=monomial_key)), e[0]))


T = TruncationParams


def _levels(fn, nu_max):
    return [fn(nu) for nu in range(nu_max + 1)]


def _family2(p, q):
    levels = _levels(lambda nu: family2_truncation(p, q, nu), 3)
    return family2_subalgebra(p, q, levels[-1].degree), levels


def _degree_dropping():
    """Q[x,s,t]/(st - 1): the word a*b = x*t^2*s = x*t has degree below its
    prefix a, and base x times the word c gives the same x*t."""
    ring = PresentedRing(("x", "s", "t"), [parse("s*t - 1", ("x", "s", "t"))])
    sub = FilteredSubalgebra(ring, Derivation(ring, {}), ("x",),
                             {"a": ring.parse("x*t^2"), "b": ring.parse("s"),
                              "c": ring.parse("t")})
    return sub, [T(2, 2), T(1, 3), T(2, 3)]


SPAN_SEQUENCES = {
    "degree-dropping": _degree_dropping,
    "sl2": lambda: (sl2_subalgebra(), _levels(lambda nu: T(nu, 2 * nu + 2), 4)),
    "family1-n1": lambda: (family1_subalgebra(1),
                           _levels(lambda nu: family1_truncation(1, nu), 3)),
    "family1-n2": lambda: (family1_subalgebra(2),
                           _levels(lambda nu: family1_truncation(2, nu), 2)),
    "family1-n3": lambda: (family1_subalgebra(3),
                           _levels(lambda nu: family1_truncation(3, nu), 2)),
    "family2-1-1": lambda: _family2(1, 1),
    "family2-2-1": lambda: _family2(2, 1),
    "family2-3-2": lambda: _family2(3, 2),
    "equal-levels": lambda: (family1_subalgebra(1), [T(2, 12)] * 3),
    "non-nested-levels": lambda: (family1_subalgebra(1), [T(3, 5), T(1, 13), T(2, 9)]),
}


@pytest.mark.parametrize("name", sorted(SPAN_SEQUENCES))
def test_one_pass_spans_match_per_level_spans(name):
    sub, truncations = SPAN_SEQUENCES[name]()
    spans = truncated_spans(sub, truncations)
    assert len(spans) == len(truncations)
    for trunc, span in zip(truncations, spans):
        assert [(e.label, e.poly) for e in span] == _reference_span(sub, trunc), trunc


def _ideals_or_error(levels) -> list | str:
    """Each level's generators, or the message of the first level that fails."""
    out = []
    for level in levels:
        try:
            out.append(level().generators)
        except StructuralError as exc:
            return str(exc)
    return out


@pytest.mark.parametrize("name", sorted(SPAN_SEQUENCES))
def test_lazy_blocks_match_eager_spans(name):
    """The sequence, which builds only the blocks m_nu visits, and m_nu on
    its own give m_nu on a span whose every block is built first, generator
    for generator.  Each element of a built block lies in the bidegree that
    its exponents filed it under."""
    sub, truncations = SPAN_SEQUENCES[name]()
    candidates = _Candidates(sub, truncations)
    levels = [_Level(candidates, nu) for nu in range(len(truncations))]
    for level in levels:
        for key in level:
            assert all(sub._bidegree(e) == key for el in level[key] for e in el.poly.terms)
    eager = _ideals_or_error(
        functools.partial(compute_m_nu, sub, nu, trunc, level)
        for nu, (trunc, level) in enumerate(zip(truncations, levels)))
    alone = _ideals_or_error(functools.partial(compute_m_nu, sub, nu, trunc)
                             for nu, trunc in enumerate(truncations))
    try:
        sequence = [m.generators for m in IdealSequence.compute(sub, truncations).ideals]
    except StructuralError as exc:
        sequence = str(exc)
    assert alone == eager
    assert sequence == eager


def _normal_form_calls(monkeypatch, sub, build) -> list:
    calls = []
    original = PresentedRing.normal_form

    def counting(ring, f):
        if ring is sub.ambient:
            calls.append(f)
        return original(ring, f)

    with monkeypatch.context() as patch:
        patch.setattr(PresentedRing, "normal_form", counting)
        build()
    return calls


def test_each_product_is_normal_formed_once_per_sequence(monkeypatch):
    sub = family1_subalgebra(1)
    plain = FilteredSubalgebra(sub.ambient, sub.derivation, sub.base_vars, sub.generators)
    top = TruncationParams(2, 12)
    for warm in (sub, plain):
        IdealSequence.compute(warm, [top] * 3)  # fills the derivation table
    per_sequence = _normal_form_calls(monkeypatch, sub,
                                      lambda: IdealSequence.compute(sub, [top] * 3))
    eager = _normal_form_calls(monkeypatch, sub, lambda: truncated_span(sub, top))
    assert len(set(per_sequence)) == len(per_sequence) > 0
    assert len(per_sequence) < len(eager)  # only the visited torus blocks are built
    # without a torus every block is visited: three levels cost one span
    per_sequence = _normal_form_calls(monkeypatch, plain,
                                      lambda: IdealSequence.compute(plain, [top] * 3))
    assert len(per_sequence) == len(eager)
    # family one's words repeat raw products (Y0*Y2 and Y1^2 are one product):
    # 305 normal forms, 280 distinct, before words shared the product cache
    sub = family1_subalgebra(3)
    levels = [family1_truncation(3, nu) for nu in range(4)]
    IdealSequence.compute(sub, levels)
    per_sequence = _normal_form_calls(monkeypatch, sub,
                                      lambda: IdealSequence.compute(sub, levels))
    assert len(set(per_sequence)) == len(per_sequence) > 0


def test_subalgebra_contains_witness_is_exact():
    sub = sl2_subalgebra()
    ring = sl2_ring()
    trunc = TruncationParams(2, 4)
    f = ring.parse("x*u + 3*y*v - 2*u*v + 5")
    result = subalgebra_contains(sub, f, trunc)
    assert isinstance(result, Member)
    span = {e.label: e.poly for e in truncated_span(sub, trunc)}
    rebuilt = Polynomial.zero(ring.variables)
    for label, coeff in result.certificate:
        rebuilt = rebuilt + span[label] * coeff
    assert ring.normal_form(rebuilt) == ring.normal_form(f)


def test_subalgebra_contains_respects_truncation():
    sub = sl2_subalgebra()
    ring = sl2_ring()
    tight = TruncationParams(1, 2)
    wide = TruncationParams(3, 6)
    f = ring.parse("u^2*v")
    missed = subalgebra_contains(sub, f, tight)
    assert missed == Undecided("NotFoundWithinBounds", tight.as_params())
    assert repr(missed) == "NotFoundWithinBounds(L=1, d=2)"
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

    def counting(gens):
        calls.append(len(gens))
        return original(gens)

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
    """(subalgebra, has relations) for the sl2, family-one and plane derivations,
    and for D(t) = x/2 on Q[x,y,t], whose table rows are not integral."""
    d1 = family1_derivation(1)
    family1 = FilteredSubalgebra(d1.ring, d1, ("X0", "X1"),
                                 {name: d1.ring.var(name) for name in ("Y0", "Y1", "Y2", "Z")})
    plane = TrivialExtension({"t": parse("t", ("x", "y", "t"))}).subalgebra()
    xyt = PresentedRing(("x", "y", "t"))
    half = Derivation(xyt, {"t": parse("1/2*x", xyt.variables)})
    halved = FilteredSubalgebra(xyt, half, ("x", "y"), {"t": xyt.var("t")})
    return [(sl2_subalgebra(), True), (family1, False), (plane, False), (halved, False)]


def _partial_derivative_sum(derivation, f):
    """sum of D(x_i) * df/dx_i through Polynomial.diff, before any normal form."""
    out = Polynomial.zero(f.variables)
    for name, image in derivation.images.items():
        out = out + image * f.diff(name)
    return out


def test_leibniz_rows_match_partial_derivatives():
    rng = random.Random(20149)
    for sub, _ in _table_subalgebras():
        derivation = sub.derivation
        for _ in range(60):
            f = _random_polynomial(sub.ambient.variables, rng)
            raw = derivation._apply_raw(f)
            assert raw == _partial_derivative_sum(derivation, f)
            assert all(type(c) in (int, Fraction) and c != 0
                       for h in (raw, derivation(f)) for c in h.terms.values())


def test_integral_coefficients_stay_int():
    # the family-one generator ring's kernel is larger than its base, so its
    # chains run through family one's subalgebra of O(SL2) instead
    sl2, _, plane, halved = (sub for sub, _ in _table_subalgebras())
    rows_with_fractions = []
    for sub in (sl2, family1_subalgebra(1), plane, halved):
        gens = []
        for nu in range(3):
            gens.extend(compute_m_nu(sub, nu, TruncationParams(2, 6)).generators)
        assert gens and all(type(c) is int for g in gens for c in g.terms.values())
        coefficients = [c for row in sub.derivation._rows.values() for c in row.values()]
        assert all(type(c) in (int, Fraction) and c != 0 for c in coefficients)
        # a coefficient whose denominator cancels is stored as an int
        assert all(type(c) is int or c.denominator > 1 for c in coefficients)
        rows_with_fractions.append(any(type(c) is Fraction for c in coefficients))
    # only D(t) = x/2 has table rows with a Fraction; the others are all int
    assert rows_with_fractions == [False, False, False, True]


def test_derivation_table_matches_leibniz_rule():
    rng = random.Random(20141)
    for sub, presented in _table_subalgebras():
        ring, derivation = sub.ambient, sub.derivation
        unreduced_inputs = 0
        for _ in range(60):
            f = _random_polynomial(ring.variables, rng)
            expected = ring.normal_form(derivation._apply_raw(f))
            assert derivation(f) == expected
            unreduced_inputs += ring.normal_form(f) != f
        # inputs divisible by x*v are not normal forms in O(SL2)
        assert (unreduced_inputs > 0) == presented


@pytest.fixture
def row_builds(monkeypatch):
    """Monomials whose table row is built, on a fresh cached sl2 derivation."""
    sl2_derivation.cache_clear()
    sl2_derivation()  # its relation check is not a row build
    calls = []
    original = Derivation._apply_raw

    def counting(self, f):
        calls.append(f)
        return original(self, f)

    monkeypatch.setattr(Derivation, "_apply_raw", counting)
    yield calls
    sl2_derivation.cache_clear()


def test_family2_differentiates_each_monomial_once(row_builds):
    assert verify_family2(3, 2, 3).overall == PASS
    assert all(f.is_monomial() for f in row_builds)
    assert len(row_builds) == len(set(row_builds))
    assert len(row_builds) < 10000  # 34 997 when every image was re-derived


def test_sequence_axioms_build_each_row_once(row_builds):
    # O(SL2) and family one need 80 and 171 rows, 194 of them distinct, and
    # both read the table of the cached sl2 derivation
    assert sequence_axioms_checks(1, 2).overall == PASS
    assert all(f.is_monomial() for f in row_builds)
    assert len(row_builds) == len(set(row_builds)) < 80 + 171


def test_derivation_table_is_shared_by_its_subalgebras(row_builds):
    first = family2_subalgebra(2, 1, 6)
    second = family2_subalgebra(2, 1, 6)
    assert first.derivation is second.derivation  # the cached sl2 derivation
    g = first.generators["x^2*u"]
    image = first.derivation(g)
    assert len(row_builds) == len(g.terms)
    assert second.derivation(second.generators["x^2*u"]) == image
    assert len(row_builds) == len(g.terms)  # the second reads the first's rows
    assert set(first.derivation._rows) == set(g.terms)


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1)])
def test_family2_spans_ignore_word_lengths_past_one(p, q):
    """Family two's generators span its truncated algebra linearly, so a word
    bound of 2 gives the span of word bound 1, element for element."""
    degree = 6
    sub = family2_subalgebra(p, q, degree)
    short, longer = truncated_spans(sub, [T(1, degree), T(2, degree)])
    assert [(e.label, e.poly) for e in longer] == [(e.label, e.poly) for e in short]


def test_family2_generators_span_their_products():
    """The declaration behind the word cap: without it, words of two
    generators and base-monomial multiples add no rank."""
    degree = 6
    declared = family2_subalgebra(2, 1, degree)
    labelled = dict(declared.generators)  # the same monomials, label to polynomial
    plain = FilteredSubalgebra(declared.ambient, declared.derivation, ("x", "y"), labelled)
    assert not isinstance(plain.generators, MonomialGenerators)
    ranks = []
    for sub, length in ((declared, 1), (plain, 2)):
        echelon = Echelon(sub.ambient.variables)
        for el in truncated_span(sub, T(length, degree)):
            echelon.insert(el.poly, el.label)
        ranks.append(len(echelon))
    assert ranks[0] == ranks[1] > 0
