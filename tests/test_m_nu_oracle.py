"""compute_m_nu against an independent oracle built on sympy.

The oracle takes the elements of ``truncated_spans`` as sympy polynomials,
applies D = x*d/du + y*d/dv by sympy differentiation, normal-forms with
``sympy.reduced`` modulo x*v - y*u - 1 under grlex, and reads the kernel of
D^(nu+1) off ``Matrix.nullspace``.  The ideal of the D^nu images of that
kernel must equal ``compute_m_nu`` on both paths: block by block under the
torus of O(SL2), and by whole-span kernel combinations without it.  So must
each level of ``IdealSequence.compute``, which builds only the blocks it
visits.  The oracle shares no code with ``Derivation``, ``Echelon`` or
``add_terms``.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from gaext.filtered import (FilteredSubalgebra, IdealSequence,  # noqa: E402
                            TruncationParams, compute_m_nu, truncated_spans)
from gaext.groebner import Ideal  # noqa: E402
from gaext.poly import Polynomial  # noqa: E402
from gaext.sl2 import (family1_subalgebra, family1_truncation,  # noqa: E402
                       family2_subalgebra, family2_truncation, sl2_subalgebra)

GENS = sympy.symbols("x y u v")
X, Y, U, V = (sympy.Poly(g, *GENS, domain="QQ") for g in GENS)
RELATION = X * V - Y * U - 1


def _to_sympy(poly: Polynomial):
    return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                 for e, c in poly.terms.items()}, *GENS, domain="QQ")


def _d(f):
    image = X * f.diff(GENS[2]) + Y * f.diff(GENS[3])
    return sympy.reduced(image, [RELATION], order="grlex")[1]


def _oracle(span: list, nu: int) -> Ideal:
    chains = []
    for el in span:
        chain = [_to_sympy(el.poly)]
        for _ in range(nu + 1):
            chain.append(_d(chain[-1]))
        chains.append(chain)
    monomials = sorted({m for chain in chains for m in chain[nu + 1].as_dict()})
    rows = [[chain[nu + 1].as_dict().get(m, 0) for chain in chains] for m in monomials]
    matrix = sympy.Matrix(rows) if rows else sympy.zeros(1, len(chains))
    gens = []
    for vec in matrix.nullspace():
        image = sum((c * chain[nu] for c, chain in zip(vec, chains) if c),
                    sympy.Poly(0, *GENS, domain="QQ"))
        terms = {}
        for (a, b, c, d), k in image.as_dict().items():
            assert c == d == 0, "an image escapes the base ring"
            terms[(a, b)] = Fraction(int(k.p), int(k.q))
        gens.append(Polynomial(("x", "y"), terms))
    return Ideal(gens, variables=("x", "y"))


def _family1(n, nu_max):
    return family1_subalgebra(n), [family1_truncation(n, nu) for nu in range(nu_max + 1)]


def _family2(p, q, nu_max):
    truncations = [family2_truncation(p, q, nu) for nu in range(nu_max + 1)]
    return family2_subalgebra(p, q, max(t.degree for t in truncations)), truncations


CASES = {
    "sl2-nu3": lambda: (sl2_subalgebra(),
                        [TruncationParams(nu, 2 * nu + 2) for nu in range(4)]),
    "family1-n1-nu2": lambda: _family1(1, 2),
    "family2-p2q1-nu1": lambda: _family2(2, 1, 1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_m_nu_matches_the_sympy_oracle(case):
    sub, truncations = CASES[case]()
    plain = FilteredSubalgebra(sub.ambient, sub.derivation, sub.base_vars, sub.generators)
    spans = truncated_spans(sub, truncations)
    sequence = IdealSequence.compute(sub, truncations)
    for nu, (trunc, span) in enumerate(zip(truncations, spans)):
        expected = _oracle(span, nu)
        assert compute_m_nu(sub, nu, trunc).equals(expected)
        assert compute_m_nu(plain, nu, trunc).equals(expected)
        assert sequence[nu].equals(expected)
