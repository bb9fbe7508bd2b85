"""Torus blocks: m_nu read block by block equals the whole-span kernel path."""

import functools
from dataclasses import replace
from fractions import Fraction

import pytest

import gaext.filtered
import gaext.sl2
from gaext.derivation import Derivation, Grading, homogeneity_degree
from gaext.filtered import (FilteredSubalgebra, IdealSequence, MonomialGenerators,
                            TruncationParams, _Candidates, _Level, compute_m_nu,
                            truncated_spans)
from gaext.groebner import InputError, PresentedRing
from gaext.poly import StructuralError
from gaext.sl2 import (family1_subalgebra, family1_truncation, family2_cone,
                       family2_exponents, family2_sequence, family2_subalgebra,
                       family2_truncation, sl2_derivation, sl2_ring, sl2_subalgebra,
                       sl2_torus)
from test_filtered import _reference_span


def _without_torus(sub: FilteredSubalgebra) -> FilteredSubalgebra:
    return FilteredSubalgebra(sub.ambient, sub.derivation, sub.base_vars, sub.generators)


def _family1(n):
    return family1_subalgebra(n), [family1_truncation(n, nu) for nu in range(4)]


def _family2(p, q):
    truncations = [family2_truncation(p, q, nu) for nu in range(4)]
    return family2_subalgebra(p, q, max(t.degree for t in truncations)), truncations


def _sl2():
    return sl2_subalgebra(), [TruncationParams(nu, 2 * nu + 2) for nu in range(5)]


FAMILY2 = {"family2-p1q1": (1, 1), "family2-p2q1": (2, 1), "family2-p3q2": (3, 2)}

CASES = {
    "family1-n1": lambda: _family1(1),
    "family1-n2": lambda: _family1(2),
    "family1-n3": lambda: _family1(3),
    **{case: functools.partial(_family2, p, q) for case, (p, q) in FAMILY2.items()},
    "sl2": _sl2,
}

# the bounds a suite applies under no flag, --trunc-deg 4 and --trunc-len 1
BOUNDS = {
    "as-is": lambda t: t,
    "deg4": lambda t: replace(t, degree=4),
    "len1": lambda t: replace(t, word_length=1),
}


@pytest.mark.parametrize("bounds", sorted(BOUNDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_block_path_equals_kernel_path(case, bounds):
    sub, truncations = CASES[case]()
    assert sub.torus is not None
    plain = _without_torus(sub)
    truncations = [BOUNDS[bounds](t) for t in truncations]
    for nu, trunc in enumerate(truncations):
        blocks = compute_m_nu(sub, nu, trunc)
        kernel = compute_m_nu(plain, nu, trunc)
        assert blocks.equals(kernel)
        minimal = sorted(kernel.minimal_monomial_generators(), key=lambda e: (sum(e), e))
        assert [g.terms for g in blocks.generators] == [{e: Fraction(1)} for e in minimal]


@pytest.mark.parametrize("bounds", sorted(BOUNDS))
@pytest.mark.parametrize("case", sorted(FAMILY2))
def test_exponent_generators_match_labelled_generators(case, bounds):
    """Family 2's generators as exponent tuples give the spans that the
    reference enumeration over their labelled polynomials gives, and the
    sequence that the whole-span kernel path gives."""
    sub, truncations = CASES[case]()
    assert isinstance(sub.generators, MonomialGenerators)
    truncations = [BOUNDS[bounds](t) for t in truncations]
    for trunc, span in zip(truncations, truncated_spans(sub, truncations)):
        assert [(e.label, e.poly) for e in span] == _reference_span(sub, trunc), trunc
    plain = _without_torus(sub)
    sequence = IdealSequence.compute(sub, truncations)
    for nu, trunc in enumerate(truncations):
        assert sequence[nu].equals(compute_m_nu(plain, nu, trunc))


def test_exponent_generators_are_checked_at_construction(monkeypatch):
    ring = sl2_ring()

    def subalgebra(*exponents):
        return FilteredSubalgebra(ring, sl2_derivation(), ("x", "y"),
                                  MonomialGenerators(ring.variables, exponents),
                                  torus=sl2_torus())

    with pytest.raises(InputError, match=r"x\*v is not a normal form"):
        subalgebra((1, 0, 0, 0), (1, 0, 0, 1))
    with pytest.raises(InputError, match="monomial 1"):
        subalgebra((0, 0, 0, 0))
    for bad in ((1, 0, 0), (1, 0, 0, 0, 0), (1, -1, 0, 0), (1, 0, 0.5, 0)):
        with pytest.raises(InputError, match="exponents"):
            subalgebra(bad)
    with pytest.raises(InputError, match="repeated"):
        subalgebra((0, 1, 0, 0), (0, 1, 0, 0))
    labels = []
    original = gaext.filtered.monomial_label

    def labelling(*args):
        labels.append(args)
        return original(*args)

    monkeypatch.setattr(gaext.filtered, "monomial_label", labelling)
    sub = subalgebra((2, 0, 1, 0), (0, 1, 0, 0))
    assert len(sub.generators) == 2
    assert not labels
    assert sub.generators["x^2*u"] == ring.parse("x^2*u")
    assert list(sub.generators) == ["x^2*u", "y"]


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (3, 2), (5, 3), (4, 1), (7, 5)])
def test_family2_cone_matches_the_reference_enumeration(p, q):
    """Family 2's cone of torus blocks holds exactly the reference
    enumeration's monomials other than 1, each once, each under its own
    block, with no empty block, and reads in the reference order."""
    for degree in (0, 1, p + q, 34):
        cone = family2_cone(p, q, degree)
        bidegree = family2_subalgebra(p, q, degree)._bidegree
        listed = []
        for key in cone.block_keys:
            block = cone.block(key)
            assert block, (degree, key)
            assert all(bidegree(e) == key for e in block), (degree, key)
            listed.extend(block)
        reference = [e for e in family2_exponents(p, q, degree) if any(e)]
        assert len(listed) == len(set(listed)) == len(reference)
        assert set(listed) == set(reference)
        assert cone.exponents == tuple(reference)


def test_family2_sequence_makes_only_visited_blocks(monkeypatch):
    """Family 2 at (3, 2), levels 0..3, runs without the reference
    enumeration, and checks and lists as candidates exactly the generators
    of the blocks it reads, each block once, where the listed declaration
    checks and files all 7 517."""
    expected = [m.generators for m in family2_sequence(3, 2, 3).ideals]

    def no_enumeration(*args):
        raise AssertionError("family2_exponents is on the production path")

    monkeypatch.setattr(gaext.sl2, "family2_exponents", no_enumeration)
    assert [m.generators for m in family2_sequence(3, 2, 3).ideals] == expected

    truncations = [family2_truncation(3, 2, nu) for nu in range(4)]
    cone = family2_cone(3, 2, truncations[-1].degree)
    read, checked, listed = [], [], []

    def block(key):
        read.append(key)
        return cone.block(key)

    def checking(ambient, exps, *args):
        checked.append(len(exps))
        return check(ambient, exps, *args)

    def listing(self, key):
        cands = list_candidates(self, key)
        listed.append(sum(length == 1 for _, _, _, _, length, _, _ in cands))
        return cands

    check, list_candidates = gaext.filtered._check_normal_monomials, _Candidates._list
    monkeypatch.setattr(gaext.filtered, "_check_normal_monomials", checking)
    monkeypatch.setattr(_Candidates, "_list", listing)
    gens = MonomialGenerators(cone.variables, block_keys=cone.block_keys, block=block)
    sub = FilteredSubalgebra(sl2_ring(), sl2_derivation(), ("x", "y"), gens, torus=sl2_torus())
    sequence = IdealSequence.compute(sub, truncations)
    assert [m.generators for m in sequence.ideals] == expected
    assert len(read) == len(set(read)) == len(checked) == len(listed)
    visited = sum(len(cone.block(key)) for key in read)
    assert sum(checked) == sum(listed) == visited
    assert 0 < visited < 300  # 110 in 7 blocks, of 7 517 in 1 197


@pytest.mark.parametrize("block, message", [
    ([(1, 0, 0, 1)], r"x\*v is not a normal form"),
    ([(0, 0, 0, 0)], "monomial 1"),
    ([(0, 1, 1, 0), (1, 0, 0, 0)], r"x is not in torus block \(0, 0\)"),
    ([(0, 1, 1, 0), (0, 1, 1, 0)], "repeated"),
])
def test_declared_blocks_are_checked_when_read(block, message):
    """A block declaration is checked block by block, when a span first reads
    the block: construction and the candidates accept it, and the read of
    the bad block raises, while a good block reads."""
    blocks = {(0, 0): block, (1, 0): [(1, 0, 0, 0)]}
    gens = MonomialGenerators(sl2_ring().variables, block_keys=blocks, block=blocks.get)
    sub = FilteredSubalgebra(sl2_ring(), sl2_derivation(), ("x", "y"), gens, torus=sl2_torus())
    level = _Level(_Candidates(sub, [TruncationParams(1, 4)]), 0)
    assert [el.label for el in level[(1, 0)]] == ["x"]
    with pytest.raises(InputError, match=message):
        level[(0, 0)]
    with pytest.raises(InputError, match=message):
        IdealSequence.compute(sub, [TruncationParams(1, 4)])


def test_torus_is_checked_at_construction():
    ring = sl2_ring()
    derivation = sl2_derivation()
    u, x = ring.var("u"), ring.var("x")
    with pytest.raises(InputError, match="generator mixed"):
        FilteredSubalgebra(ring, derivation, ("x", "y"), {"mixed": u + x}, torus=sl2_torus())
    # every grading that keeps x*v - y*u - 1 homogeneous keeps this D
    # homogeneous too, so take the free ring: there D(u) = x moves the first
    # weight below by 1 but D(v) = y moves it by 2
    free = PresentedRing(ring.variables)
    free_d = Derivation(free, {"u": free.var("x"), "v": free.var("y")})
    skewed = (Grading(free, {"x": 1, "y": 0, "u": 0, "v": -2}),
              Grading(free, {"x": 0, "y": 1, "u": -1, "v": 0}))
    with pytest.raises(InputError, match="derivation"):
        FilteredSubalgebra(free, free_d, ("x", "y"), {"u": free.var("u")}, torus=skewed)
    doubled = (sl2_torus()[0], sl2_torus()[0])
    with pytest.raises(InputError, match="dependent"):
        FilteredSubalgebra(ring, derivation, ("x", "y"), {"u": u}, torus=doubled)
    # a valid torus of O(SL2) that keeps D homogeneous, but whose base weights
    # have determinant 2: its blocks would need fractional base exponents
    doubled_x = (Grading(ring, {"x": 2, "y": 0, "u": 0, "v": -2}), sl2_torus()[1])
    assert [homogeneity_degree(derivation, g) for g in doubled_x] == [2, 1]
    with pytest.raises(InputError, match="not unimodular"):
        FilteredSubalgebra(ring, derivation, ("x", "y"), {"u": u}, torus=doubled_x)
    with pytest.raises(InputError, match="two gradings"):
        FilteredSubalgebra(ring, derivation, ("x", "y"), {"u": u}, torus=sl2_torus()[:1])
    # without a torus the same generator is accepted, and kept on the kernel path
    assert FilteredSubalgebra(ring, derivation, ("x", "y"), {"mixed": u + x}).torus is None


def test_block_path_skips_covered_blocks():
    """Family 2 at (3, 2), levels 0..3, on a fresh table each way: the block
    path differentiates only the few blocks it visits."""
    ring = sl2_ring()
    rows = []
    for torus in (sl2_torus(), None):
        fresh = Derivation(ring, {"u": ring.var("x"), "v": ring.var("y")})
        truncations = [family2_truncation(3, 2, nu) for nu in range(4)]
        gens = family2_subalgebra(3, 2, truncations[-1].degree).generators
        sub = FilteredSubalgebra(ring, fresh, ("x", "y"), gens, torus=torus)
        IdealSequence.compute(sub, truncations)
        rows.append(len(fresh._rows))
    blocks, kernel = rows
    assert blocks * 20 < kernel  # 46 and 7 518 rows


def test_family1_builds_only_visited_blocks(monkeypatch):
    """Family 1 at n = 1, levels 0..3, on a fresh table: the sequence
    normal-forms the products of the blocks it visits and their D rows,
    where building every span candidate takes about 3 700 normal forms."""
    ring = sl2_ring()
    fresh = Derivation(ring, {"u": ring.var("x"), "v": ring.var("y")})
    family = family1_subalgebra(1)
    sub = FilteredSubalgebra(ring, fresh, family.base_vars, family.generators,
                             torus=sl2_torus())
    calls = []
    original = PresentedRing.normal_form

    def counting(self, f):
        if self is ring:
            calls.append(f)
        return original(self, f)

    monkeypatch.setattr(PresentedRing, "normal_form", counting)
    IdealSequence.compute(sub, [family1_truncation(1, nu) for nu in range(4)])
    assert 0 < len(calls) < 300


def test_family2_builds_only_visited_generators(monkeypatch):
    """Family 2 at (3, 2), levels 0..3, on a fresh table: construction and
    the sequence label and normal-form only the generators of the blocks
    they visit, where the labelled list of 7 517 generators takes 7 518
    labels and 7 563 normal forms."""
    ring = sl2_ring()
    fresh = Derivation(ring, {"u": ring.var("x"), "v": ring.var("y")})
    truncations = [family2_truncation(3, 2, nu) for nu in range(4)]
    gens = family2_subalgebra(3, 2, truncations[-1].degree).generators
    calls, labels = [], []
    normal_form, monomial_label = PresentedRing.normal_form, gaext.filtered.monomial_label

    def counting(self, f):
        if self is ring:
            calls.append(f)
        return normal_form(self, f)

    def labelling(*args):
        labels.append(args)
        return monomial_label(*args)

    monkeypatch.setattr(PresentedRing, "normal_form", counting)
    monkeypatch.setattr(gaext.filtered, "monomial_label", labelling)
    sub = FilteredSubalgebra(ring, fresh, ("x", "y"), gens, torus=sl2_torus())
    IdealSequence.compute(sub, truncations)
    assert len(gens) == 7517
    assert len(calls) < 300
    assert 0 < len(labels) < 300


@pytest.mark.parametrize("case", sorted(CASES))
def test_visit_order_within_a_degree_does_not_matter(case, monkeypatch):
    """Blocks come by target degree only: reversing the visit order within
    each degree leaves every m_nu unchanged, generator for generator."""
    sub, truncations = CASES[case]()
    ideals = IdealSequence.compute(sub, truncations).ideals
    original = FilteredSubalgebra._blocks
    moved = []

    def reversed_within_degree(self, keys, nu):
        # a stable sort of the reversed list reverses each degree's blocks
        blocks = original(self, keys, nu)
        out = sorted(reversed(blocks), key=lambda entry: sum(entry[0]))
        moved.append(out != blocks)
        return out

    monkeypatch.setattr(FilteredSubalgebra, "_blocks", reversed_within_degree)
    reversed_ideals = IdealSequence.compute(sub, truncations).ideals
    assert any(moved)
    assert [m.generators for m in reversed_ideals] == [m.generators for m in ideals]


def test_both_paths_reject_an_escaping_image():
    """On Q[x,y,u,w] with D(u) = x, the kernel of D is larger than Q[x,y]:
    D(u*w) = x*w is an m_1 image outside the base ring, an error with the
    torus and without it."""
    ring = PresentedRing(("x", "y", "u", "w"))
    derivation = Derivation(ring, {"u": ring.var("x")})
    torus = (Grading(ring, {"x": 1, "y": 0, "u": 0, "w": 0}),
             Grading(ring, {"x": 0, "y": 1, "u": 0, "w": 1}))
    for t in (torus, None):
        sub = FilteredSubalgebra(ring, derivation, ("x", "y"), {"uw": ring.parse("u*w")},
                                 torus=t)
        assert compute_m_nu(sub, 0, TruncationParams(1, 2)).is_unit()
        with pytest.raises(StructuralError, match="escapes the base ring"):
            compute_m_nu(sub, 1, TruncationParams(1, 2))
