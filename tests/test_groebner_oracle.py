"""buchberger against sympy.groebner, an independent oracle, under deglex.

Reduced monic Groebner bases are unique for a fixed monomial order, so the
two must agree exactly.  sympy's "grlex" is the order of
``poly.monomial_key``: total degree first, then lex with the first variable
most significant.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from gaext.groebner import buchberger  # noqa: E402
from gaext.poly import Polynomial  # noqa: E402

NAMES = ("x", "y", "z", "w")


@st.composite
def _ideals(draw):
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    coeff = st.integers(-3, 3).filter(bool)
    polys = st.dictionaries(exps, coeff, min_size=1, max_size=3)
    gens = draw(st.lists(polys, min_size=1, max_size=3))
    return NAMES[:n], gens


def _term_sets(polys):
    return {frozenset(terms.items()) for terms in polys}


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(_ideals())
def test_buchberger_matches_sympy_groebner(ideal):
    names, gens = ideal
    ours = buchberger([Polynomial(names, terms) for terms in gens])
    symbols = sympy.symbols(names)
    exprs = [sum(c * sympy.prod(s ** k for s, k in zip(symbols, e))
                 for e, c in terms.items()) for terms in gens]
    theirs = sympy.groebner(exprs, *symbols, order="grlex", domain="QQ")
    expected = [{e: Fraction(int(c.p), int(c.q))
                 for e, c in sympy.Poly(g, *symbols, domain="QQ").terms()}
                for g in theirs.exprs]
    assert _term_sets(g.terms for g in ours) == _term_sets(expected)
    assert len(ours) == len(expected)
