"""Echelon: exact kernel combinations, reduction certificates, rank over Q."""

import random
from fractions import Fraction

import pytest

from gaext.linalg import Echelon
from gaext.poly import Polynomial

XYZ = ("x", "y", "z")


def _random_row(rng):
    """A few terms of degree at most 2 per variable, with rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in XYZ)
        terms[exps] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    return Polynomial(XYZ, terms)


def _rows(seed, count=40):
    """Random rows; every third is a rational combination of two earlier ones."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        if i % 3 == 2:
            a, b = rng.sample(rows, 2)
            rows.append(a * Fraction(rng.randint(1, 7), rng.randint(2, 5))
                        - b * Fraction(rng.randint(1, 7), rng.randint(1, 3)))
        else:
            rows.append(_random_row(rng))
    return [row for row in rows if not row.is_zero()]


def _combination(rows, combo):
    out = Polynomial.zero(XYZ)
    for tag, c in combo.items():
        out = out + rows[tag] * c
    return out


def _filled(rows):
    echelon = Echelon(XYZ)
    dependences = [echelon.insert(row, tag) for tag, row in enumerate(rows)]
    return echelon, dependences


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_kernel_combinations_and_reductions_are_exact(seed):
    rows = _rows(seed)
    echelon, dependences = _filled(rows)
    # pivots are kept as inserted, so most leading coefficients are not 1
    assert any(row.leading_coefficient() != 1 for row in echelon.rows.values())
    found = 0
    for tag, combo in enumerate(dependences):
        if combo is None:
            continue
        found += 1
        assert combo[tag] == 1
        assert _combination(rows, combo).is_zero()
    assert found == len(rows) - len(echelon) > 0

    rng = random.Random(seed + 100)
    for _ in range(20):
        vec = _random_row(rng) + _combination(rows, {rng.randrange(len(rows)): Fraction(3, 2)})
        residual, combo = echelon.reduce(vec)
        assert vec - _combination(rows, combo) == residual
        assert residual.is_zero() or residual.leading_term()[0] not in echelon.rows


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_rank_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rows = _rows(seed)
    echelon, _ = _filled(rows)
    monomials = sorted({e for row in rows for e in row.terms})
    matrix = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                            for c in (row.terms.get(e, Fraction(0)) for e in monomials)]
                           for row in rows])
    assert len(echelon) == matrix.rank()
