"""Polynomial arithmetic, the sparse-term kernel, the monomial order, parsing,
bidegrees."""

import ast
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gaext
from gaext.groebner import reduce_poly
from gaext.linalg import Echelon
from gaext.poly import (BIDEG_BOTTOM, Polynomial,
                        StructuralError, add_terms, bidegree, divide,
                        parse, ring)
from gaext.sl2 import sl2_derivation, sl2_ring

XY = ("x", "y")
XYUV = ("x", "y", "u", "v")


def test_construction_and_equality():
    x, y = ring("x y")
    assert x + y == y + x
    assert x - x == Polynomial.zero(XY)
    assert (x + y) * (x - y) == x * x - y * y
    assert Polynomial.constant(Fraction(3, 2), XY) * 2 == Polynomial.constant(3, XY)


def test_zero_handling():
    z = Polynomial.zero(XY)
    assert z.is_zero()
    assert z.total_degree() == -1
    assert not z.terms
    x, _ = ring("x y")
    assert (x * 0).is_zero()
    assert (z * x).is_zero()
    with pytest.raises(ZeroDivisionError):
        z / 0


def test_pow():
    x, y = ring("x y")
    assert (x + y) ** 0 == Polynomial.one(XY)
    assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
    with pytest.raises(ValueError):
        (x + y) ** -1


def test_variable_mismatch_raises():
    x, _ = ring("x y")
    u = Polynomial.variable("u", ("u", "v"))
    with pytest.raises(StructuralError):
        x + u


def test_diff():
    x, y = ring("x y")
    f = x**3 * y + 2 * x * y**2
    assert f.diff("x") == 3 * x**2 * y + 2 * y**2
    assert f.diff("y") == x**3 + 4 * x * y


def test_substitute_is_homomorphism():
    random.seed(11)
    x, y = ring("x y")
    a, b = ring("a b")
    images = {"x": a * b + 1, "y": a - b**2}
    for _ in range(20):
        f = sum((x**random.randint(0, 3) * y**random.randint(0, 3)
                 * random.randint(-4, 4) for _ in range(3)),
                Polynomial.zero(XY))
        g = sum((x**random.randint(0, 3) * random.randint(-4, 4)
                 for _ in range(3)), Polynomial.zero(XY))
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
        assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


def test_parse_roundtrip():
    random.seed(7)
    x, y, u, v = ring("x y u v")
    for _ in range(25):
        f = Polynomial.zero(XYUV)
        for _ in range(random.randint(1, 5)):
            term = Polynomial.constant(Fraction(random.randint(-9, 9),
                                                random.randint(1, 5)), XYUV)
            for w in (x, y, u, v):
                term = term * w ** random.randint(0, 3)
            f = f + term
        assert parse(str(f), XYUV) == f


def test_parse_forms():
    assert parse("x^2 - 2*x*y + y^2", XY) == parse("(x - y)^2", XY)
    assert parse("1/2 x", XY) * 2 == parse("x", XY)
    assert parse("-x + x", XY).is_zero()
    with pytest.raises(StructuralError):
        parse("x + z", XY)
    for text in ("2/0", "x + 1/00*y", "(y - 3/0)^2"):
        with pytest.raises(StructuralError, match="zero denominator"):
            parse(text, XY)


def test_order_leading_terms():
    f = parse("x*v - y*u - 1", XYUV)
    assert f.leading_term() == ((1, 0, 0, 1), Fraction(1))


def test_order_total_degree_dominates():
    f = parse("x + y^3", XY)
    assert f.leading_term()[0] == (0, 3)


def test_bidegree():
    tvu = ("t", "v", "u")
    f = parse("t^7*u^5 + 2*v^3*u^4 + 3*v*u^5", tvu)
    assert bidegree(f) == (5, 1)
    assert bidegree(Polynomial.zero(tvu)) == BIDEG_BOTTOM
    assert BIDEG_BOTTOM < (0, 0)
    assert bidegree(parse("t^4", tvu)) == (0, 0)


def _naive_add_terms(out, terms, c, shift):
    """out + c * x^shift * terms, summed termwise, zeros dropped at the end."""
    result = dict(out)
    for e, k in terms.items():
        if shift is not None:
            e = tuple(a + b for a, b in zip(e, shift))
        result[e] = result.get(e, 0) + c * k
    return {e: k for e, k in result.items() if k != 0}


def _random_terms(rng, coefficient, count):
    return {tuple(rng.randint(0, 2) for _ in range(3)): coefficient(rng)
            for _ in range(rng.randint(0, count))}


def _nonzero_int(rng):
    return rng.choice((-1, 1)) * rng.randint(1, 3)


def _nonzero_fraction(rng):
    return Fraction(_nonzero_int(rng), rng.randint(1, 3))


@pytest.mark.parametrize("coefficient", [_nonzero_int, _nonzero_fraction])
def test_add_terms_matches_naive_sum(coefficient):
    rng = random.Random(4021)
    for _ in range(300):
        out = _random_terms(rng, coefficient, 6)
        terms = _random_terms(rng, coefficient, 6)
        c = rng.choice((0, 1, -1, coefficient(rng)))
        shift = rng.choice((None, (0, 0, 0), (1, 0, 2)))
        expected = _naive_add_terms(out, terms, c, shift)
        before = dict(out)
        assert add_terms(out, terms, c, shift) is out  # updated in place
        assert out == expected
        assert all(k != 0 for k in out.values())
        if coefficient is _nonzero_int and type(c) is int:
            assert all(type(k) is int for k in out.values())
        if c == 0:
            assert out == before


def test_add_terms_cancels_to_empty_and_keeps_new_coefficients():
    terms = {(1, 0): Fraction(2, 3), (0, 1): Fraction(-5), (0, 0): Fraction(1)}
    out = dict(terms)
    assert add_terms(out, terms, -1) == {}
    out = add_terms({}, terms)
    # c = 1 multiplies nothing: a new key stores the very coefficient object
    assert all(out[e] is k for e, k in terms.items())
    shifted = add_terms({}, {("a",): 3, ("b",): 4}, 1)
    assert shifted == {("a",): 3, ("b",): 4}  # any keys without a shift
    assert add_terms({(1, 1): 1}, {(0, 0): 1}, -1, (1, 1)) == {}


def _exact(coefficients) -> bool:
    return all(type(c) in (int, Fraction) and c != 0 for c in coefficients)


@settings(max_examples=80, deadline=None)
@given(st.booleans(), st.data())
def test_arithmetic_keeps_coefficients_exact(integral, data):
    """int inputs give int results under +, -, *, **, substitute, normal_form,
    D and reduction by a monic basis; any input gives nonzero int or Fraction
    coefficients, never a float, under /, monic, reduce_poly and Echelon."""
    coefficients = st.integers(-5, 5)
    if not integral:
        coefficients = st.one_of(coefficients, st.fractions(-5, 5, max_denominator=6))

    def draw(variables):
        exps = st.tuples(*[st.integers(0, 2)] * len(variables))
        return Polynomial(variables, data.draw(st.dictionaries(exps, coefficients, max_size=4)))

    f, g = draw(XYUV), draw(XYUV)
    c = data.draw(coefficients.filter(bool))
    monic_basis = []
    for h in (draw(XYUV), draw(XYUV)):
        if h.terms:
            lead, lc = h.leading_term()
            monic_basis.append(h + Polynomial(XYUV, {lead: 1 - lc}))
    sl2 = sl2_ring()
    closed = [f + g, f - g, -f, f * g, f * c, (f * c) / c, f ** data.draw(st.integers(0, 3)),
              f.substitute({v: draw(("a", "b")) for v in XYUV}),
              sl2.normal_form(f), sl2_derivation()(f), reduce_poly(f * g, monic_basis)]
    for h in closed:
        assert (all(type(k) is int for k in h.terms.values()) if integral
                else _exact(h.terms.values())), h

    echelon = Echelon(XYUV)
    combos = [echelon.insert(h, tag) for tag, h in enumerate((f, g, f + g, f * g))]
    residual, combo = echelon.reduce(f * g + g)
    divided = [f / c, f.monic(), reduce_poly(f * g, [h for h in (f, g) if h.terms]), residual,
               *echelon.rows.values()]
    for h in divided:
        assert _exact(h.terms.values()), h
    for d in [combo, *echelon.combos.values(), *(d for d in combos if d)]:
        assert _exact(d.values()), d


def test_validating_constructor_rejects_inexact_input():
    with pytest.raises(StructuralError):
        Polynomial(("x",), {(1,): 0.1})
    with pytest.raises(StructuralError):
        Polynomial(("x",), {(2.0,): 1})
    with pytest.raises(StructuralError):
        Polynomial(("x",), {(1,): "1/2"})
    with pytest.raises(StructuralError):
        Polynomial.constant(0.5, ("x",))
    # arithmetic rejects the same operands with the same error
    x, _ = ring("x y")
    for inexact in (lambda: x * 0.5, lambda: x + 0.5, lambda: x - 0.5, lambda: 0.5 * x,
                    lambda: x * "a", lambda: x / 0.5):
        with pytest.raises(StructuralError):
            inexact()
    # an integral quotient or Fraction is stored as an int
    quotients = [divide(4, 2), divide(Fraction(3, 2), Fraction(3, 4)), divide(Fraction(6, 3))]
    assert quotients == [2, 2, 2] and all(type(q) is int for q in quotients)
    assert divide(2, 4) == Fraction(1, 2) and divide(-1, Fraction(-2, 3)) == Fraction(3, 2)
    assert type(Polynomial(("x",), {(1,): Fraction(4, 2)}).terms[(1,)]) is int
    assert all(type(c) is int for c in parse("4/2*x - 3*y + 1", XY).terms.values())


def test_only_poly_divides():
    """No module but poly.py divides with /: every other coefficient quotient
    goes through poly.divide, so int / int never makes a float."""
    offenders = []
    for path in sorted(pathlib.Path(gaext.__file__).parent.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_poly_builds_unvalidated_polynomials():
    """Polynomial.__new__ appears in poly.py alone; every other module builds
    through the validating constructor or the trusted Polynomial._of."""
    offenders = []
    for path in sorted(pathlib.Path(gaext.__file__).parent.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "Polynomial"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
