"""Ideal arithmetic: Buchberger completion, normal forms, presented rings.

Everything runs over exact rationals.  The Buchberger loop prunes pairs with
the coprimality and chain criteria, which is plenty for the desk-scale ideals
handled here (defining relations, monomial staircases, blowup charts).
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from .poly import Polynomial, StructuralError, add_terms, divide, monomial_key
from .report import Undecided


class InputError(ValueError):
    """Invalid mathematical input (not a structural mismatch)."""


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _minimal_exponents(exps) -> list:
    """The divisibility-minimal members of a set of exponent tuples, sorted."""
    minimal = []
    for e in sorted(set(exps)):  # a proper divisor sorts first
        if not any(_divides(m, e) for m in minimal):
            minimal.append(e)
    return minimal


def reduce_poly(f: Polynomial, basis: Sequence[Polynomial],
                leading: Sequence[tuple] | None = None) -> Polynomial:
    """Full multivariate division remainder of f by basis.

    ``leading`` may hold the basis's leading terms in basis order, for a
    caller that divides many polynomials by one basis.
    """
    if not basis:
        return f
    if leading is None:
        leading = [g.leading_term() for g in basis]
    lts = list(zip(leading, basis))
    remainder: dict = {}
    work = dict(f.terms)
    while work:
        exps = max(work, key=monomial_key)
        coeff = work[exps]
        for (lt_exps, lt_c), g in lts:
            if _divides(lt_exps, exps):
                # cancels the term at exps exactly, leaving only smaller ones
                add_terms(work, g.terms, divide(-coeff, lt_c), _exp_sub(exps, lt_exps))
                break
        else:
            remainder[exps] = coeff
            del work[exps]
    return Polynomial._of(f.variables, remainder)


def _s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    (ef, cf) = f.leading_term()
    (eg, cg) = g.leading_term()
    l = _exp_lcm(ef, eg)
    mf = Polynomial(f.variables, {_exp_sub(l, ef): divide(1, cf)})
    mg = Polynomial(g.variables, {_exp_sub(l, eg): divide(1, cg)})
    return mf * f - mg * g


def buchberger(gens: Sequence[Polynomial]) -> list:
    """Reduced Groebner basis of the ideal generated by gens."""
    basis = [g.monic() for g in gens if not g.is_zero()]
    if not basis:
        return []
    lts = [g.leading_term()[0] for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    def criteria(i, j):
        li, lj = lts[i], lts[j]
        l = _exp_lcm(li, lj)
        # coprime leading terms: S-polynomial reduces to zero
        if l == tuple(a + b for a, b in zip(li, lj)):
            return True
        # chain criterion
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(lts[k], l):
                a = (max(i, k), min(i, k))
                b = (max(j, k), min(j, k))
                if a not in pairs and b not in pairs:
                    return True
        return False

    while pairs:
        i, j = min(pairs, key=lambda p: sum(_exp_lcm(lts[p[0]], lts[p[1]])))
        pairs.discard((i, j))
        if criteria(i, j):
            continue
        s = reduce_poly(_s_polynomial(basis[i], basis[j]), basis)
        if s.is_zero():
            continue
        s = s.monic()
        basis.append(s)
        lts.append(s.leading_term()[0])
        k = len(basis) - 1
        pairs.update((k, m) for m in range(k))

    return _reduce_basis(basis)


def _reduce_basis(basis) -> list:
    # drop members whose leading term another member's leading term divides
    minimal = []
    lts = [g.leading_term()[0] for g in basis]
    for i, g in enumerate(basis):
        if any(j != i and _divides(lts[j], lts[i])
               and (not _divides(lts[i], lts[j]) or j < i) for j in range(len(basis))):
            continue
        minimal.append(g)
    # tail-reduce each member against the others
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = reduce_poly(g, others) if others else g
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: monomial_key(g.leading_term()[0]))
    return reduced


class Ideal:
    """An ideal of a polynomial ring, with a cached reduced Groebner basis."""

    def __init__(self, generators: Iterable[Polynomial], variables=None):
        gens = [g for g in generators if not g.is_zero()]
        if variables is None:
            if not gens:
                raise StructuralError("zero ideal needs an explicit variable tuple")
            variables = gens[0].variables
        self.variables = tuple(variables)
        for g in gens:
            if g.variables != self.variables:
                raise StructuralError("ideal generators live in different rings")
        self.generators = gens
        self._basis = None
        self._leading = None  # leading terms of _basis

    def __repr__(self):
        shown = ", ".join(g.to_str() for g in self.generators[:6])
        if len(self.generators) > 6:
            shown += ", ..."
        return f"<Ideal ({shown})>"

    @classmethod
    def zero(cls, variables) -> "Ideal":
        return cls([], variables=variables)

    def groebner_basis(self) -> list:
        if self._basis is None:
            self._basis = buchberger(self.generators)
            self._leading = [g.leading_term() for g in self._basis]
        return self._basis

    @cached_property
    def _staircase(self):
        """Minimal exponents of a monomial ideal, which are its reduced
        Groebner basis under any order; None if a generator is no monomial."""
        if not self.is_monomial_ideal():
            return None
        return _minimal_exponents(next(iter(g.terms)) for g in self.generators)

    def is_zero(self) -> bool:
        return not self.generators  # zero generators were dropped

    def is_unit(self) -> bool:
        if any(g.is_constant() for g in self.generators):
            return True
        if self._staircase is not None:
            return False  # every nonconstant monomial vanishes at the origin
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0].is_constant()

    def normal_form(self, f: Polynomial) -> Polynomial:
        return reduce_poly(f, self.groebner_basis(), self._leading)

    def __contains__(self, f: Polynomial) -> bool:
        if f.is_zero():
            return True
        staircase = self._staircase
        if staircase is not None:
            # termwise divisibility test, no basis reduction needed
            return all(any(_divides(m, e) for m in staircase) for e in f.terms)
        return self.normal_form(f).is_zero()

    def is_monomial_ideal(self) -> bool:
        return all(g.is_monomial() for g in self.generators)

    def minimal_monomial_generators(self) -> list:
        if self._staircase is None:
            raise StructuralError("not a monomial ideal")
        return list(self._staircase)

    def equals(self, other: "Ideal") -> bool:
        if self.variables != other.variables:
            raise StructuralError("ideals live in different rings")
        if self._staircase is not None and other._staircase is not None:
            return self._staircase == other._staircase
        return (all(g in other for g in self.generators)
                and all(g in self for g in other.generators))

    def __add__(self, other: "Ideal") -> "Ideal":
        if self.variables != other.variables:
            raise StructuralError("ideals live in different rings")
        return Ideal(self.generators + other.generators, variables=self.variables)

    def __mul__(self, other: "Ideal") -> "Ideal":
        if self.variables != other.variables:
            raise StructuralError("ideals live in different rings")
        if self._staircase is not None and other._staircase is not None:
            exps = _minimal_exponents(tuple(a + b for a, b in zip(e, f))
                                      for e in self._staircase for f in other._staircase)
            gens = [Polynomial(self.variables, {e: 1}) for e in exps]
        else:
            gens = [f * g for f in self.generators for g in other.generators]
        return Ideal(gens, variables=self.variables)

    def __pow__(self, k: int) -> "Ideal":
        if not isinstance(k, int) or k < 0:
            raise InputError("ideal powers must be nonnegative integers")
        if k == 0:
            return Ideal([Polynomial.one(self.variables)], variables=self.variables)
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def contains_ideal(self, other: "Ideal") -> bool:
        if self._staircase is not None and other._staircase is not None:
            return all(any(_divides(m, e) for m in self._staircase)
                       for e in other._staircase)
        # cheap pre-pass: scalar multiples of our generators are members
        own = {frozenset(g.monic().terms.items()) for g in self.generators}
        return all(frozenset(g.monic().terms.items()) in own or g in self
                   for g in other.generators)


class PresentedRing:
    """Polynomial ring modulo relations, with unique normal forms.

    Normal forms are remainders modulo the reduced Groebner basis of the
    relation ideal under ``monomial_key`` (deglex along the ring's variable
    tuple), so nf(f) == 0 exactly when f lies in the relation ideal.

    When that basis is one x^m - tail, with x^m nonconstant and no tail
    monomial sharing a variable with it (O(SL2): x*v -> y*u + 1), each term
    c*x^e becomes c*x^(e - k*m)*tail^k in one pass, k the largest power of
    x^m dividing x^e.  No result term is divisible by x^m, so the pass yields
    the remainder itself; every other ring divides by its basis.
    """

    def __init__(self, variables, relations: Iterable[Polynomial] = ()):
        self.variables = tuple(variables)
        rels = [r for r in relations if not r.is_zero()]
        for r in rels:
            if r.variables != self.variables:
                raise StructuralError("relation outside the ring's variables")
        self.relations = tuple(rels)
        self._relation_ideal = None

    def __repr__(self):
        rels = ", ".join(str(r) for r in self.relations) or "0"
        return f"<PresentedRing Q[{', '.join(self.variables)}]/({rels})>"

    @property
    def relation_ideal(self) -> Ideal:
        if self._relation_ideal is None:
            self._relation_ideal = Ideal(list(self.relations), variables=self.variables)
            self._relation_ideal.groebner_basis()
        return self._relation_ideal

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.variables)

    def one(self) -> Polynomial:
        return Polynomial.one(self.variables)

    def var(self, name: str) -> Polynomial:
        return Polynomial.variable(name, self.variables)

    def gens(self) -> tuple:
        return tuple(self.var(v) for v in self.variables)

    @cached_property
    def _one_relation(self):
        """(support of m, m, [1, tail, tail^2, ...]) for the one-pass rule,
        else None; the powers grow on demand."""
        basis = self.relation_ideal.groebner_basis()
        if len(basis) != 1:
            return None
        m = basis[0].leading_term()[0]
        support = tuple((i, a) for i, a in enumerate(m) if a)
        tail = Polynomial._of(self.variables, {e: -c for e, c in basis[0].terms.items()
                                               if e != m})
        if not support or any(e[i] for e in tail.terms for i, _ in support):
            return None
        return support, m, [self.one(), tail]

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.variables != self.variables:
            raise StructuralError("element outside the ring's variables")
        if not self.relations:
            return f
        rule = self._one_relation
        if rule is None:
            ideal = self.relation_ideal
            if not any(_divides(lt, e) for e in f.terms for lt, _ in ideal._leading):
                return f  # no term is divisible by a basis leading term
            return ideal.normal_form(f)
        support, m, powers = rule
        out = None
        for e, c in f.terms.items():
            k = min(e[i] // a for i, a in support)
            if k:
                if out is None:
                    out = dict(f.terms)
                del out[e]  # no result term equals e, which x^m divides
                while len(powers) <= k:
                    powers.append(powers[-1] * powers[1])
                add_terms(out, powers[k].terms, c, tuple(a - k * b for a, b in zip(e, m)))
        return f if out is None else Polynomial._of(self.variables, out)

    def parse(self, text: str) -> Polynomial:
        from .poly import parse
        return self.normal_form(parse(text, self.variables))


def weighted_monomial_ideal(p: int, q: int, nu: int,
                            variables=("x", "y")) -> Ideal:
    """Ideal spanned by the monomials x^a y^b with p*a + q*b >= (p+q)*nu.

    Generated by the finitely many staircase-minimal solutions; nu = 0
    yields the unit ideal.
    """
    if p <= 0 or q <= 0 or nu < 0:
        raise InputError("weights and index must be positive (nu >= 0)")
    if gcd(p, q) != 1:
        raise InputError(f"weights must be coprime, got ({p}, {q})")
    variables = tuple(variables)
    if nu == 0:
        return Ideal([Polynomial.one(variables)], variables=variables)
    threshold = (p + q) * nu
    candidates = []
    alpha = 0
    while True:
        rest = threshold - p * alpha
        beta = 0 if rest <= 0 else -(-rest // q)  # ceil division
        candidates.append((alpha, beta))
        if beta == 0:
            break
        alpha += 1
    gens = [Polynomial(variables, {e: 1}) for e in _minimal_exponents(candidates)]
    return Ideal(gens, variables=variables)


def is_primary_at_origin(ideal: Ideal, bound: int | None = None):
    """Whether a proper nonzero ideal of Q[x,y] has radical <x, y>.

    True exactly when the ideal sits inside the maximal ideal at the origin
    and contains a power of each variable.  The power search runs up to
    4 * (max generator degree) by default; exhausting it yields
    ``Undecided`` with the bound rather than a silent verdict.
    """
    if len(ideal.variables) != 2:
        raise InputError("primary-at-origin test lives in a two-variable ring")
    if ideal.is_zero() or ideal.is_unit():
        raise InputError("test requires a proper nonzero ideal")
    # containment in <x,y>: membership there is a vanishing constant term
    if any(g.constant_term() != 0 for g in ideal.generators):
        return False
    if ideal.is_monomial_ideal():
        # decidable outright: needs a pure power of each variable
        minimal = ideal.minimal_monomial_generators()
        return all(any(e[i] > 0 and sum(e) == e[i] for e in minimal)
                   for i in range(2))
    if bound is None:
        bound = 4 * max(g.total_degree() for g in ideal.generators)
    for name in ideal.variables:
        v = Polynomial.variable(name, ideal.variables)
        for n in range(1, bound + 1):
            if v ** n in ideal:
                break
        else:
            return Undecided("PowerNotFound", (("bound", bound),))
    return True
