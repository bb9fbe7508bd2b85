"""PresentedRing.normal_form against division by the relation basis.

A ring whose reduced relation basis is one x^m - tail, with no tail monomial
sharing a variable with x^m, is normal-formed in one pass and never calls
``reduce_poly``.  Every other ring divides by its basis.  Both must agree with
``relation_ideal.normal_form`` (``reduce_poly``) and, where sympy is
installed, with ``sympy.reduced`` under grlex, the order of
``poly.monomial_key``.
"""

import random
from fractions import Fraction

import pytest

from gaext import groebner
from gaext.groebner import PresentedRing
from gaext.poly import Polynomial, parse
from gaext.pullback import build_pullback
from gaext.sl2 import localized_ring, sl2_ring

XY = ("x", "y")


def _ring(variables, *relations):
    return PresentedRing(variables, [parse(r, variables) for r in relations])


def _pullback(g, h):
    return build_pullback(XY, parse(g, XY), parse(h, XY)).ring


ONE_RELATION = {
    "sl2": sl2_ring,
    "gluing": localized_ring,
    "trivial-localisation": lambda: _ring(("x", "y", "t", "w"), "x*w - 1"),
    "pullback-x-y": lambda: _pullback("x", "y"),
    "pullback-x2-y": lambda: _pullback("x^2", "y"),
    "a2-b": lambda: _ring(("a", "b"), "a^2 - b"),
    "st-1": lambda: _ring(("x", "s", "t"), "s*t - 1"),
}
GENERAL = {
    "pullback-x2+y-y2": lambda: _pullback("x^2 + y", "y^2"),
    # the y-chart of the blowup of Q[x,y,z] along <2x, y, z>, with w0 = 2x/y
    # and w2 = z/y: two relations that share the divisor y
    "blowup-chart": lambda: _ring(("x", "y", "z", "w0", "w2"), "w0*y - 2*x", "w2*y - z"),
    "no-relations": lambda: PresentedRing(("x", "y", "z")),
}


def _samples(ring, seed, count=25):
    """Seeded random polynomials whose terms are small monomials times up to
    the 6th power of a leading monomial of the relation basis."""
    rng = random.Random(seed)
    n = len(ring.variables)
    leads = [g.leading_term()[0] for g in ring.relation_ideal.groebner_basis()]
    leads = leads or [(0,) * n]
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            lead, j = rng.choice(leads), rng.randint(0, 6)
            e = tuple(rng.randint(0, 2) + j * a for a in lead)
            terms[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
        out.append(Polynomial(ring.variables, terms))
    return out


def _normal_forms(ring, polys, monkeypatch):
    """ring.normal_form of each poly, and how many reduce_poly calls it made."""
    ring.relation_ideal.groebner_basis()  # Buchberger's own reductions are not counted
    calls = []
    original = groebner.reduce_poly

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "reduce_poly", counting)
        forms = [ring.normal_form(f) for f in polys]
    return forms, len(calls)


@pytest.mark.parametrize("name", sorted(ONE_RELATION))
def test_one_relation_rings_normal_form_in_one_pass(name, monkeypatch):
    ring = ONE_RELATION[name]()
    polys = _samples(ring, seed=sorted(ONE_RELATION).index(name))
    forms, calls = _normal_forms(ring, polys, monkeypatch)
    assert calls == 0
    assert sum(nf != f for f, nf in zip(polys, forms)) > len(polys) // 2
    for f, nf in zip(polys, forms):
        assert nf == ring.relation_ideal.normal_form(f)
        assert ring.normal_form(nf) is nf  # nothing left to reduce: f itself


@pytest.mark.parametrize("name", sorted(GENERAL))
def test_other_rings_divide_by_their_basis(name, monkeypatch):
    ring = GENERAL[name]()
    polys = _samples(ring, seed=100 + sorted(GENERAL).index(name))
    forms, calls = _normal_forms(ring, polys, monkeypatch)
    for f, nf in zip(polys, forms):
        assert nf == ring.relation_ideal.normal_form(f)
    # one division per input with a term to reduce, none for the others
    assert calls == sum(nf != f for f, nf in zip(polys, forms))
    assert (calls == 0) == (name == "no-relations")


@pytest.mark.parametrize("name", sorted(ONE_RELATION) + sorted(GENERAL))
def test_normal_forms_match_sympy(name):
    sympy = pytest.importorskip("sympy")
    ring = {**ONE_RELATION, **GENERAL}[name]()
    symbols = sympy.symbols(ring.variables)

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.prod(s ** k for s, k in zip(symbols, e))
                   for e, c in p.terms.items())

    basis = [expr(g) for g in ring.relation_ideal.groebner_basis()]
    for f in _samples(ring, seed=200, count=6):
        remainder = expr(f)
        if basis:
            _, remainder = sympy.reduced(remainder, basis, *symbols, order="grlex")
        theirs = {e: Fraction(int(c.p), int(c.q)) for e, c in
                  sympy.Poly(remainder, *symbols, domain="QQ").terms() if c}
        assert ring.normal_form(f).terms == theirs
