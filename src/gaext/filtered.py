"""Truncated computation of the graded ideal sequence of a derivation.

A filtered subalgebra is given by a presented ambient ring, a locally
nilpotent derivation on it, distinguished base variables killed by the
derivation, and a finite generator list.  All filtration-level computations
happen on a finite truncated spanning set: products of at most L generators
times base monomials, capped at total degree d.  Results are certificates at
the recorded truncation — sound always, complete only within the bounds.

``IdealSequence.compute(subalgebra, truncations)`` is the one builder of a
graded sequence: it takes one ``TruncationParams`` per level (the list
index is nu), enumerates every level's span candidates in one pass,
computes each m_nu once, and keeps the per-level bounds in
``IdealSequence.truncations`` so every check can report its own level's.

A subalgebra may declare a 2-torus grading under which its relations,
generators and derivation are homogeneous and its two base variables have
unimodular weights, as O(SL2) and its subalgebras do.  Every span element
then lies in one torus block, named by an integer pair of base exponents;
each block's D^nu images are multiples of one base monomial, and
``compute_m_nu`` reads m_nu off the blocks one at a time, skipping each
block whose monomial it has already covered.  A candidate's block is known
from exponents before its product is formed, so a sequence builds only the
blocks m_nu visits: it multiplies, normal-forms and sorts no candidate of a
skipped block.  Without a torus the whole span is one block, and m_nu is
the kernel of D^(nu+1) on it.

Generators that are monic monomials and, together with 1, span the
subalgebra linearly, as family two's do, come as exponent tuples
(``MonomialGenerators``), either listed or declared by torus block: the
keys of the blocks that hold a generator, and per key a function that
makes the block's tuples.  The span is then 1 and the generators
themselves.  Listed tuples are checked for a normal form at construction
and filed by the block their exponents name; a declared block makes and
checks its tuples only when a span first reads it, so a sequence files
no tuple, and only the generators of visited blocks are made, labelled
and turned into polynomials.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import itemgetter, le, mul
from typing import Sequence

from .derivation import Derivation, Grading, homogeneity_degree
from .groebner import Ideal, InputError, PresentedRing
from .linalg import Echelon
from .poly import (Polynomial, StructuralError, add_terms, divide, monomial_key,
                   monomial_label)
from .report import Member, Report, Undecided


@dataclass(frozen=True)
class TruncationParams:
    """Bounds for span construction: generator word length and total degree."""

    word_length: int
    degree: int

    def __post_init__(self):
        if self.word_length < 0 or self.degree < 0:
            raise InputError("truncation bounds must be nonnegative")

    def scaled(self, factor: float) -> "TruncationParams":
        def scale(value: int) -> int:
            return max(int(value * factor), 1) if value else 0
        if factor == 1:
            return self
        return TruncationParams(scale(self.word_length), scale(self.degree))

    def as_params(self) -> tuple:
        return (("L", self.word_length), ("d", self.degree))


@dataclass(frozen=True)
class SpanElement:
    """A spanning candidate: printable label plus its normal-form polynomial."""

    label: str
    poly: Polynomial


class MonomialGenerators(Mapping):
    """Monic monomial generators given by exponent tuples, read as a mapping
    from label to ``Polynomial``.

    Passing them declares that they and 1 span the subalgebra linearly up to
    any degree bound: every product of base monomials and generators of
    degree at most d is a combination of 1 and the generators of degree at
    most d.  A span then holds no base monomial but 1 and no word of two or
    more generators, which would only add dependent products.

    They are listed or declared by torus block.  Listed ``exponents`` read
    in the order given and are all checked when the subalgebra is built.
    Declared by block, ``block_keys`` names the torus blocks that hold a
    generator and ``block(key)`` makes one block's exponent tuples; a span
    makes and checks a block's tuples only when it first reads the block,
    so no tuple of an unread block is ever made.  Such generators read by
    total degree, then by descending exponents.

    A tuple's ``monomial_label`` and polynomial are built only when its
    entry is read, so a subalgebra can hold thousands of such generators
    and build only those of the blocks it visits.
    """

    def __init__(self, variables: Sequence[str], exponents=None, *, block_keys=(), block=None):
        if (exponents is None) == (block is None):
            raise StructuralError("monomial generators are listed or declared by block")
        self.variables = tuple(variables)
        self.listed = block is None
        self.block_keys = tuple(block_keys)
        self.block = block
        self._exponents = None if exponents is None else tuple(exponents)
        self._by_label = None  # label -> exponents, made on the first lookup

    @property
    def exponents(self) -> tuple:
        """Every exponent tuple, in reading order; for a declaration by
        block, made from all of its blocks."""
        if self._exponents is None:
            self._exponents = tuple(sorted(
                itertools.chain.from_iterable(map(self.block, self.block_keys)),
                key=lambda e: (sum(e), tuple(-k for k in e))))
        return self._exponents

    def entry(self, exps: tuple) -> tuple:
        """(label, polynomial) of one exponent tuple."""
        return (monomial_label(self.variables, exps),
                Polynomial._of(self.variables, {exps: 1}))

    def __getitem__(self, label: str) -> Polynomial:
        if self._by_label is None:
            self._by_label = {monomial_label(self.variables, e): e for e in self.exponents}
        return self.entry(self._by_label[label])[1]

    def __iter__(self):
        return (monomial_label(self.variables, e) for e in self.exponents)

    def __len__(self):
        return len(self.exponents)


def _check_normal_monomials(ambient: PresentedRing, exps: tuple, key=None, bidegree=None):
    """Raise ``InputError`` unless every exponent tuple is distinct and names
    a nonconstant monomial of the ambient ring that no leading monomial of
    its relation basis divides, that is, a nonzero normal form, and, given
    a ``bidegree`` function, lies in the torus block ``key``."""
    n = len(ambient.variables)
    if not set(map(type, itertools.chain.from_iterable(exps))) <= {int}:
        raise InputError("generator exponents must be integers")
    leads = [g.leading_term()[0] for g in ambient.relation_ideal.groebner_basis()]
    for e in exps:
        if len(e) != n or min(e, default=0) < 0:
            raise InputError(f"generator exponents {e} are not {n} natural numbers")
        if not any(e):
            raise InputError("the monomial 1 is not a generator")
        for lead in leads:
            if all(map(le, lead, e)):
                raise InputError(f"generator {monomial_label(ambient.variables, e)} "
                                 "is not a normal form")
        if bidegree is not None and bidegree(e) != key:
            raise InputError(f"generator {monomial_label(ambient.variables, e)} "
                             f"is not in torus block {key}")
    if len(set(exps)) != len(exps):
        raise InputError("a generator is repeated")


class FilteredSubalgebra:
    """Finitely generated subalgebra of a presented ring, with derivation.

    ``base_vars`` must be killed by the derivation (their span is where the
    graded ideals live).

    ``torus`` may hold two ``Grading``s of the ambient ring; construction
    raises ``InputError`` unless D and every generator are homogeneous for
    both and the two base variables' weights form a matrix of determinant
    ±1.  Since the ring's products and normal forms keep both degrees,
    every span element is then bihomogeneous, and ``compute_m_nu`` works
    block by block.

    ``generators`` maps labels to polynomials, which are normal-formed and
    span the subalgebra as an algebra over the base ring, or is a
    ``MonomialGenerators``, whose exponent tuples must each name a
    nonconstant monomial that is already a normal form, and, when declared
    by block, lie in their block; it is kept as given, and no generator of
    it is built until a span reads it.  Listed tuples are checked here,
    those of a declared block when a span first reads the block.
    """

    def __init__(self, ambient: PresentedRing, derivation: Derivation,
                 base_vars: Sequence[str], generators: Mapping,
                 torus: Sequence[Grading] | None = None):
        if derivation.ring is not ambient:
            raise StructuralError("derivation acts on a different ring")
        self.ambient = ambient
        self.derivation = derivation
        self.base_vars = tuple(base_vars)
        for name in self.base_vars:
            if name not in ambient.variables:
                raise StructuralError(f"unknown base variable {name}")
            if not derivation.images[name].is_zero():
                raise InputError(f"base variable {name} is not a constant of the derivation")
        if isinstance(generators, MonomialGenerators):
            if generators.variables != ambient.variables:
                raise StructuralError("generators outside the ring's variables")
            if generators.listed:
                _check_normal_monomials(ambient, generators.exponents)
            gens = generators
        else:
            gens = {}
            for label, g in generators.items():
                nf = ambient.normal_form(g)
                if nf.is_zero():
                    raise InputError(f"generator {label} is zero")
                gens[label] = nf
        self.generators = gens
        self.torus = None if torus is None else tuple(torus)
        if self.torus is None:
            # every bidegree is (0, 0): the whole span is one block
            self._block_weights = ((0,) * len(ambient.variables),) * 2
        else:
            self._block_weights, self._block_shift = self._torus_coordinates()

    def _torus_coordinates(self) -> tuple:
        """Each variable's torus weights, and D's shift, in base exponents.

        Checks the torus: two gradings of the ambient ring (so the
        relations are homogeneous for both), D homogeneous for both, every
        generator bihomogeneous, and two base variables whose weights form
        a matrix of determinant ±1.  A bidegree then names one integer pair
        (a, b) of base exponents, natural numbers or not: the coordinates of
        a variable are the base exponents of its weights, and those of the
        shift tell where D moves a block.
        """
        if len(self.torus) != 2 or any(g.ring is not self.ambient for g in self.torus):
            raise InputError("a torus is two gradings of the ambient ring")
        shift = [homogeneity_degree(self.derivation, g) for g in self.torus]
        if None in shift:
            raise InputError("the derivation is not homogeneous for the torus")
        if len(self.base_vars) != 2:
            raise InputError("a torus needs exactly two base variables")
        (a, b), (c, d) = ([w.weights[n] for n in self.base_vars] for w in self.torus)
        det = a * d - b * c
        if not det:
            raise InputError("the base variables' torus weights are dependent")
        if det not in (1, -1):
            raise InputError("the base variables' torus weights are not unimodular")

        def solve(w1: int, w2: int) -> tuple:
            # the exponent pair (e1, e2) with e1*col(a, c) + e2*col(b, d) = (w1, w2);
            # 1/det is det
            return ((d * w1 - b * w2) * det, (a * w2 - c * w1) * det)
        columns = [solve(*(w.weights[n] for w in self.torus)) for n in self.ambient.variables]
        w1, w2 = tuple(zip(*columns))
        if isinstance(self.generators, MonomialGenerators):
            return (w1, w2), solve(*shift)  # a monomial is bihomogeneous
        for label, g in self.generators.items():
            if len(g.terms) > 1 and len({(sum(map(mul, e, w1)), sum(map(mul, e, w2)))
                                         for e in g.terms}) > 1:
                raise InputError(f"generator {label} is not homogeneous for the torus")
        return (w1, w2), solve(*shift)

    def _bidegree(self, exps: tuple) -> tuple:
        """The torus block of an ambient exponent tuple, as base exponents."""
        w1, w2 = self._block_weights
        return (sum(map(mul, exps, w1)), sum(map(mul, exps, w2)))

    def _monomial_blocks(self) -> tuple:
        """(keys, block) of ``MonomialGenerators``: the span blocks that hold
        a generator, and a function that lists one block's exponent tuples.

        Listed tuples, checked at construction, are filed by bidegree here.
        A declared block is checked as it is listed; without a torus the
        declared blocks make up the one block (0, 0).
        """
        gens = self.generators
        if gens.listed:
            filed: dict = {}
            for e in gens.exponents:
                filed.setdefault(self._bidegree(e), []).append(e)
            return tuple(filed), filed.__getitem__
        keys, listing = gens.block_keys, gens.block
        if self.torus is None:
            keys = ((0, 0),)

            def listing(key):
                return itertools.chain.from_iterable(map(gens.block, gens.block_keys))

        def block(key):
            exps = tuple(listing(key))
            _check_normal_monomials(self.ambient, exps, key, self._bidegree)
            return exps
        return keys, block

    def _blocks(self, keys, nu: int) -> list:
        """((a, b), key) per torus block that can add to m_nu.

        D^nu maps the block of bidegree ``key`` into one bidegree, whose
        base exponent pair (a, b) is the block's target.  A target with a
        negative exponent is no base monomial, so every D^nu image there is
        zero or escapes the base ring; such a block is left out, unchecked.
        Blocks come by ascending target degree a + b.  Every proper divisor
        of a target has lower degree, so the order within one degree
        changes neither which blocks are skipped nor m_nu.
        """
        s1, s2 = self._block_shift
        out = []
        for k1, k2 in keys:
            t1, t2 = k1 + nu * s1, k2 + nu * s2
            if t1 >= 0 and t2 >= 0:
                out.append(((t1, t2), (k1, k2)))
        out.sort(key=lambda entry: sum(entry[0]))
        return out

    def _base_monomials(self, degree: int):
        """(label, exponents, total degree) for base monomials up to degree."""
        variables = self.ambient.variables
        idx = [variables.index(v) for v in self.base_vars]
        for total in range(degree + 1):
            for combo in itertools.combinations_with_replacement(idx, total):
                exps = [0] * len(variables)
                for i in combo:
                    exps[i] += 1
                yield (monomial_label(variables, exps), tuple(exps), total)

    def _words(self, length: int, degree: int, products: dict) -> list:
        """(label, product, length, peak) for nonzero generator words.

        A word is a multiset of at most ``length`` generators whose every
        prefix, in sorted label order, has total degree at most ``degree``;
        peak is the largest such prefix degree.  Each word of length k is its
        (k-1)-prefix times one more generator, whose raw product is looked
        up in ``products`` (see ``_normal_form_once``) and normal-formed
        only if it is not there yet.  Words come in order of length, then of
        sorted label tuple.
        """
        labels = sorted(self.generators)
        gens = [self.generators[lab] for lab in labels]
        out = [("1", self.ambient.one(), 0, 0)]
        layer = []  # (label indices, product, peak) of the words of length ell
        for i, g in enumerate(gens):
            if g.total_degree() <= degree:  # generators are normal forms
                layer.append(((i,), g, g.total_degree()))
        for ell in range(1, length + 1):
            if ell > 1:
                longer = []
                for combo, poly, peak in layer:
                    for j in range(combo[-1], len(gens)):
                        # distinct words can share a raw product, as family one's
                        # Y0*Y2 and Y1^2 do
                        prod = _normal_form_once(self.ambient, poly * gens[j], products)
                        deg = prod.total_degree()
                        if 0 <= deg <= degree:  # the zero polynomial has degree -1
                            longer.append((combo + (j,), prod, max(peak, deg)))
                layer = longer
            for combo, poly, peak in layer:
                if ell == 1:  # a generator names its own one-letter word
                    label = labels[combo[0]]
                else:
                    used = sorted(set(combo))
                    label = monomial_label(map(labels.__getitem__, used), map(combo.count, used))
                out.append((label, poly, ell, peak))
        return out


class _Candidates:
    """The span candidates of several truncations, filed by torus block.

    A candidate is a base monomial times a generator word, enumerated
    base-monomial-major, word-minor, at the largest bounds, and kept if some
    truncation (L, d) admits its word length and the degrees of its base
    monomial and word prefixes.  Its block is the base monomial's bidegree
    plus the word's, read off the word's first term since words are
    bihomogeneous normal forms, so it is known before the product is
    formed.  ``build`` forms a block's products when a level first reads
    it, normal-forming each candidate at most once for all truncations.

    A subalgebra with ``MonomialGenerators`` has one base monomial, 1, and
    words of at most one letter, so a candidate is 1 or a generator.  The
    blocks are the keys of ``FilteredSubalgebra._monomial_blocks`` and
    block (0, 0), which holds 1; no candidate is filed up front, and
    ``build`` lists a block's generators the first time a level reads it,
    then makes the label and polynomial of each one the level admits.  Distinct monomials
    are never scalar multiples, so no block holds duplicates, and a block's
    elements do not depend on the order of its candidates, which here
    follows the declaration instead of the sorted labels.
    """

    def __init__(self, subalgebra: FilteredSubalgebra,
                 truncations: Sequence[TruncationParams]):
        self.ambient = subalgebra.ambient
        self.generators = subalgebra.generators
        self.bounds = [(t.word_length, t.degree) for t in truncations]
        top_degree = max(d for _, d in self.bounds)
        top_length = max(L for L, _ in self.bounds)
        self._products: dict = {}  # raw product's terms -> its normal form
        # bidegree -> candidates; a monomial block's are None until listed
        self.blocks: dict = {}
        if isinstance(self.generators, MonomialGenerators):
            keys, self._listing = subalgebra._monomial_blocks() if top_length else ((), None)
            self.blocks = dict.fromkeys(keys)
            # the last slot caches the built product
            self._one = ["1", None, "1", self.ambient.one(), 0, 0, None]
            self.blocks.setdefault((0, 0), [self._one])
            return
        bidegree = subalgebra._bidegree
        words = [w + bidegree(next(iter(w[1].terms)))
                 for w in subalgebra._words(top_length, top_degree, self._products)]
        # the largest degree bound of a truncation that admits each word length
        caps = [max((d for L, d in self.bounds if L >= length), default=-1)
                for length in range(max(w[2] for w in words) + 1)]
        for mlab, mono, mdeg in subalgebra._base_monomials(top_degree):
            m1, m2 = bidegree(mono)
            for wlab, word, length, peak, w1, w2 in words:
                reach = max(mdeg, peak)
                if reach > caps[length]:
                    continue
                # in enumeration order; the last slot caches the built product
                self.blocks.setdefault((m1 + w1, m2 + w2), []).append(
                    [mlab, mono if mdeg else None, wlab, word, length, reach, None])

    def _list(self, key) -> list:
        """The candidates of a block of monomial generators: 1 in block
        (0, 0), then each generator, whose label waits for ``build``."""
        cands = [["1", None, None, e, 1, sum(e), None] for e in self._listing(key)]
        if key == (0, 0):
            cands.insert(0, self._one)
        return cands

    def build(self, key, level: int) -> list:
        """(sort key, element) for the span elements of one block at
        truncations[level], unordered.

        A product of total degree above d is left out, and of scalar
        duplicates the first candidate stays.  Scalar multiples share a
        leading monomial, hence a block, so the block holds every duplicate
        of its elements.
        """
        L, d = self.bounds[level]
        cands = self.blocks[key]
        if cands is None:
            cands = self.blocks[key] = self._list(key)
        seen = {}  # canonical form -> entry
        for cand in cands:
            mlab, mono, wlab, word, length, reach, built = cand
            if length > L or reach > d:
                continue
            if built is None:
                if wlab is None:  # a monomial generator, a normal form by construction
                    wlab, poly = self.generators.entry(word)
                elif mono is None:  # words are normal forms already
                    poly = word
                else:
                    # x*(y^2*u + y) and y*(x*y*u + x) are one raw product
                    poly = _normal_form_once(self.ambient, word.times_monomial(mono),
                                             self._products)
                built = cand[-1] = _span_entry(mlab, wlab, poly)
            if not built:  # a zero product
                continue
            deg, canon, entry = built
            if deg <= d and canon not in seen:
                seen[canon] = entry
        return list(seen.values())


def _normal_form_once(ring: PresentedRing, raw: Polynomial, products: dict) -> Polynomial:
    """The normal form of ``raw``, read from ``products`` (frozen raw terms
    -> normal form) if an equal raw product was normal-formed before."""
    key = frozenset(raw.terms.items())  # hashed once, where a Polynomial key hashes twice
    nf = products.get(key)
    if nf is None:
        nf = products[key] = ring.normal_form(raw)
    return nf


def _span_entry(mlab: str, wlab: str, poly: Polynomial) -> tuple:
    """(degree, canonical form, (sort key, element)) of a nonzero product,
    else ()."""
    if poly.is_zero():
        return ()
    lead = max(poly.terms, key=monomial_key)
    c = poly.terms[lead]
    # scalar multiples share a lead, so dividing by its coefficient
    # makes one key per scalar class
    canon = frozenset(poly.terms.items() if c == 1
                      else ((e, divide(k, c)) for e, k in poly.terms.items()))
    if mlab == "1":
        label = wlab
    elif wlab == "1":
        label = mlab
    else:
        label = f"{mlab}*{wlab}"
    deg = poly.total_degree()
    return deg, canon, ((deg, monomial_key(lead), label), SpanElement(label, poly))


class _Level(Mapping):
    """One truncation's span as a mapping from torus block to its elements
    in span order; a block is built only when it is read."""

    def __init__(self, candidates: _Candidates, level: int):
        self._candidates = candidates
        self._level = level

    def __getitem__(self, key) -> list:
        return [el for _, el in sorted(self._candidates.build(key, self._level),
                                       key=itemgetter(0))]

    def __iter__(self):
        return iter(self._candidates.blocks)

    def __len__(self):
        return len(self._candidates.blocks)


def truncated_spans(subalgebra: FilteredSubalgebra,
                    truncations: Sequence[TruncationParams]) -> list:
    """One deterministic spanning list per truncation, built in one pass.

    The list for a truncation (L, d) holds the base-monomial times
    generator-word products whose word has at most L factors, whose base
    monomial, word prefixes and product have total degree at most d.
    Scalar-duplicate candidates are dropped, keeping the first in
    base-monomial-major, word-minor order; the survivors are sorted by
    total degree, then by leading monomial under ``monomial_key``, then
    by label.  Words and base monomials are enumerated once, at the largest
    bounds, and each product is normal-formed once for all truncations.
    This builds every torus block; ``IdealSequence.compute`` builds only
    the blocks ``compute_m_nu`` visits.
    """
    truncations = tuple(truncations)
    if not truncations:
        return []
    candidates = _Candidates(subalgebra, truncations)
    return [[el for _, el in sorted(itertools.chain.from_iterable(
                candidates.build(key, level) for key in candidates.blocks), key=itemgetter(0))]
            for level in range(len(truncations))]


def truncated_span(subalgebra: FilteredSubalgebra,
                   truncation: TruncationParams) -> list:
    """The spanning list of ``truncated_spans`` for one truncation."""
    return truncated_spans(subalgebra, [truncation])[0]


def subalgebra_contains(subalgebra: FilteredSubalgebra, f: Polynomial,
                        truncation: TruncationParams):
    """Exact linear search for f inside the truncated span.

    Returns a ``Member`` whose certificate is the ((label, coefficient), ...)
    combination, or ``Undecided`` with the truncation: not a disproof.
    """
    ambient = subalgebra.ambient
    target = ambient.normal_form(f)
    echelon = Echelon(ambient.variables)
    elements = truncated_span(subalgebra, truncation)
    for el in elements:
        echelon.insert(el.poly, el.label)
    residual, combo = echelon.reduce(target)
    if not residual.is_zero():
        return Undecided("NotFoundWithinBounds", truncation.as_params())
    combination = tuple(sorted((t, c) for t, c in combo.items() if c))
    witness = " + ".join(f"({c})*{t}" for t, c in combination) or "0"
    return Member(combination, witness)


def _kernel_images(derivation: Derivation, nu: int, elements: list):
    """D^nu of each kernel combination of D^(nu+1) on the elements, nonzero
    ones only, in the order the echelon finds them.

    Each element's D-chain is built when the loop reaches it, so a caller
    that stops early differentiates no later element.
    """
    variables = derivation.ring.variables
    apply = derivation.apply_terms
    echelon = Echelon(variables)
    level_images = []  # span index -> terms of D^nu of the element
    for idx, el in enumerate(elements):
        g = el.poly.terms
        for _ in range(nu):
            if not g:
                break
            g = apply(g)
        level_images.append(g)
        top = apply(g)
        if not top:
            combo = {idx: 1}
        else:
            combo = echelon.insert(Polynomial._of(variables, top), idx)
            if combo is None:
                continue
        terms: dict = {}  # normal forms span normal forms
        for i, c in combo.items():
            add_terms(terms, level_images[i], c)
        if terms:
            yield Polynomial._of(variables, terms)


def compute_m_nu(subalgebra: FilteredSubalgebra, nu: int,
                 truncation: TruncationParams,
                 span: _Level | None = None) -> Ideal:
    """Ideal generated by D^nu of the truncated kernel of D^(nu+1).

    Sound: every generator genuinely lies in the level-nu graded ideal.
    Complete only up to the truncation; enlarging it never shrinks the
    result.  ``IdealSequence.compute`` passes its level's span as ``span``,
    by torus block, built as it is read; without one, m_nu builds its own.

    Without a torus the kernel of D^(nu+1) on the whole span gives one
    generator per kernel combination with a nonzero image, made monic and
    deduplicated.  With one, m_nu is a monomial ideal: each torus block
    of the span adds its target base monomial exactly when D^(nu+1) has a
    kernel combination there whose D^nu image is nonzero, so the same
    kernel loop runs block by block, stops at the first such combination,
    and skips every block whose target the monomials found so far divide.
    A block left out is never built, so only the visited blocks' products
    are formed.  The result is then the minimal monomial generators.
    Either way the generators are sorted by total degree, then by terms.
    """
    if nu < 0:
        raise InputError("filtration level must be nonnegative")
    blocks = _Level(_Candidates(subalgebra, [truncation]), 0) if span is None else span
    derivation = subalgebra.derivation
    base = tuple(subalgebra.base_vars)
    if subalgebra.torus is None:  # one block: the whole span
        images = [image for block in blocks.values()
                  for image in _kernel_images(derivation, nu, block)]
    else:
        images = []
        found = []  # base exponent pairs of the targets added so far
        for (a, b), key in subalgebra._blocks(blocks, nu):
            if any(fa <= a and fb <= b for fa, fb in found):
                continue
            image = next(_kernel_images(derivation, nu, blocks[key]), None)
            if image is not None:
                # a bihomogeneous image in the base variables is x^a*y^b alone
                found.append((a, b))
                images.append(image)
    gens = {}
    for image in images:
        if not set(image.used_variables()) <= set(base):
            raise StructuralError("graded image escapes the base ring; derivation kernel "
                                  "is larger than the base variables")
        restricted = image.restrict(base).monic()
        gens[frozenset(restricted.terms.items())] = restricted
    ordered = sorted(gens.values(), key=lambda p: (p.total_degree(), sorted(p.terms)))
    if not ordered:
        return Ideal.zero(base)
    return Ideal(ordered, variables=base)


@dataclass
class IdealSequence:
    """Graded ideals m_0..m_max of one subalgebra, level nu cut at truncations[nu]."""

    subalgebra: FilteredSubalgebra
    truncations: tuple
    ideals: list = field(default_factory=list)

    @classmethod
    def compute(cls, subalgebra: FilteredSubalgebra,
                truncations: Sequence[TruncationParams]) -> "IdealSequence":
        truncations = tuple(truncations)
        if not truncations:
            raise InputError("an ideal sequence needs at least level 0")
        candidates = _Candidates(subalgebra, truncations)
        ideals = [compute_m_nu(subalgebra, nu, trunc, _Level(candidates, nu))
                  for nu, trunc in enumerate(truncations)]
        return cls(subalgebra, truncations, ideals)

    def __getitem__(self, nu: int) -> Ideal:
        return self.ideals[nu]

    def __len__(self):
        return len(self.ideals)


def verify_sequence_axioms(sequence: IdealSequence) -> Report:
    """Unit degree zero, descending chain, and multiplicativity checks.

    Each computed level is a lower bound of the true one, so a check that
    falls short is undecided at the bounds of the level it reads: level 0
    for the unit, m_nu for m_nu ⊇ m_(nu+1), m_(mu+nu) for m_mu·m_nu.
    """
    report = Report("sequence-axioms", sequence.truncations[-1].as_params())
    ideals = sequence.ideals

    def at_level(ok: bool, nu: int):
        return ok or Undecided("LowerBound", sequence.truncations[nu].as_params())

    report.add("axiom-unit-degree-zero", at_level(ideals[0].is_unit(), 0), (("nu", 0),))
    for nu in range(len(ideals) - 1):
        ok = ideals[nu].contains_ideal(ideals[nu + 1])
        report.add("axiom-descending", at_level(ok, nu), (("nu", nu + 1),))
    for mu in range(1, len(ideals)):
        for nu in range(mu, len(ideals) - mu):
            ok = ideals[mu + nu].contains_ideal(ideals[mu] * ideals[nu])
            report.add("axiom-multiplicative", at_level(ok, mu + nu),
                       (("mu", mu), ("nu", nu)))
    return report


def generated_in_degree_one(sequence: IdealSequence) -> list:
    """Per-level comparison of m_nu with the nu-th power of m_1.

    Returns a list of (nu, equal, witness) for nu >= 2.  When the two
    differ, the witness names a generator of one that the other lacks,
    looking in m_nu first.
    """
    results = []
    if len(sequence.ideals) < 3:
        return results
    m1 = sequence.ideals[1]
    power = m1
    for nu in range(2, len(sequence.ideals)):
        power = power * m1
        target = sequence.ideals[nu]
        witness = ""
        equal = power.contains_ideal(target) and target.contains_ideal(power)
        if not equal:
            sides = ((target, power, f"m_{nu}", f"m_1^{nu}"),
                     (power, target, f"m_1^{nu}", f"m_{nu}"))
            witness = next(f"{g} in {name} but not in {other_name}"
                           for ideal, other, name, other_name in sides
                           for g in ideal.generators if g not in other)
        results.append((nu, equal, witness))
    return results
