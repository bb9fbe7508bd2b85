"""Sparse multivariate polynomials with exact rational coefficients.

The polynomial is the universal carrier for everything in this package:
presented rings, derivations, filtration engines and the chart rewriter all
work with the same representation.  A polynomial is a map from exponent
vectors (aligned with a fixed tuple of variable names) to nonzero ``int``
or ``Fraction`` coefficients.  Coefficients meet only through + and * and
through ``divide``, the one place where a coefficient is divided or
normalised, so integral input stays ``int``.  All arithmetic is exact; no
floating point appears anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping


class StructuralError(ValueError):
    """Operands do not fit together (mismatched variables, missing images)."""


Exponents = tuple  # tuple[int, ...], aligned with a variable tuple
Coefficient = int | Fraction

#: Bottom element of the bidegree order.  The empty tuple compares below
#: every pair under Python's lexicographic tuple order, which is exactly
#: the convention needed for bideg(0).
BIDEG_BOTTOM: tuple = ()


def monomial_key(exps: Exponents) -> tuple:
    """The one monomial order, deglex: a larger key is a larger monomial.

    Total degree decides first, then the exponents along the ring's own
    variable tuple, the first variable most significant.
    """
    return (sum(exps),) + exps


def divide(a: Coefficient, b: Coefficient = 1) -> Coefficient:
    """The exact quotient a / b, an ``int`` when its denominator is 1: the one
    place where a coefficient is divided (``int / int`` would be a float)."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def add_terms(out: dict, terms: Mapping, c=1, shift: Exponents | None = None) -> dict:
    """out += c * x^shift * terms in place, dropping the terms that cancel.

    This is the one place where sparse terms combine.  Coefficients meet
    only through + and *, so integer terms stay ``int``; c = 1 multiplies
    nothing, a new key stores its product as is, and no zero is stored.
    Keys need not be exponent tuples when no shift is given.
    """
    if not c:
        return out
    scale = c != 1
    get = out.get
    for e, k in terms.items():
        if shift is not None:
            e = tuple(map(add, e, shift))
        if scale:
            k = c * k
        old = get(e)
        if old is None:
            out[e] = k
        else:
            s = old + k
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def monomial_label(names, exponents) -> str:
    """The monic monomial as text: x^2*y for names (x, y) and exponents
    (2, 1), skipping zero exponents, and "1" when every exponent is zero."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, exponents) if e) or "1"


class Polynomial:
    """Immutable sparse polynomial over a fixed variable tuple."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Coefficient]):
        self.variables = tuple(variables)
        clean = {}
        n = len(self.variables)
        for exps, c in terms.items():
            if not isinstance(c, (int, Fraction)):
                raise StructuralError(f"coefficient {c!r} is not an int or a Fraction")
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != n or any(not isinstance(e, int) or e < 0 for e in exps):
                raise StructuralError(f"bad exponent vector {exps} for {self.variables}")
            clean[exps] = clean.get(exps, 0) + c
        self.terms = {e: divide(c) for e, c in clean.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, variables: tuple, terms: dict) -> "Polynomial":
        """Trusted constructor: terms already map exponent tuples of the right
        length to nonzero coefficients, and the polynomial takes the dict over."""
        out = cls.__new__(cls)
        out.variables = variables
        out.terms = terms
        return out

    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, c, variables) -> "Polynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, name: str, variables) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise StructuralError(f"{name!r} is not among {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    @classmethod
    def one(cls, variables) -> "Polynomial":
        return cls.constant(1, variables)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self) -> Coefficient:
        zero = (0,) * len(self.variables)
        return self.terms.get(zero, 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.leading_coefficient()
        return self if c == 1 else self / c

    def leading_term(self):
        """(exponents, coefficient) of the largest term under monomial_key."""
        if not self.terms:
            raise StructuralError("zero polynomial has no leading term")
        exps = max(self.terms, key=monomial_key)
        return exps, self.terms[exps]

    def leading_coefficient(self) -> Coefficient:
        return self.leading_term()[1]

    def used_variables(self) -> set:
        used = set()
        for exps in self.terms:
            for v, e in zip(self.variables, exps):
                if e:
                    used.add(v)
        return used

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        try:
            variables = other.variables
        except AttributeError:  # a float, a string: what the constructor rejects
            raise StructuralError(f"operand {other!r} is not a Polynomial, "
                                  "an int or a Fraction") from None
        if self.variables != variables:
            raise StructuralError(
                f"variable sets differ: {self.variables} vs {variables}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.variables)
        self._check_compatible(other)
        return Polynomial._of(self.variables, add_terms(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial._of(self.variables,
                                  add_terms({}, self.terms, other))
        self._check_compatible(other)
        terms: dict = {}
        for e, c in self.terms.items():
            add_terms(terms, other.terms, c, e)
        return Polynomial._of(self.variables, terms)

    __rmul__ = __mul__

    def times_monomial(self, exps: Exponents) -> "Polynomial":
        """self times the monic monomial with exponent vector exps."""
        return Polynomial._of(self.variables, add_terms({}, self.terms, 1, exps))

    def __truediv__(self, c):
        if not c:
            raise ZeroDivisionError("polynomial division by zero")
        try:
            return Polynomial._of(self.variables,
                                  {e: divide(k, c) for e, k in self.terms.items()})
        except TypeError:  # Fraction takes no float or string divisor
            raise StructuralError(f"divisor {c!r} is not an int or a Fraction") from None

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise StructuralError("polynomial powers must be nonnegative integers")
        result = Polynomial.one(self.variables)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.variables)
        return (isinstance(other, Polynomial)
                and self.variables == other.variables and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- structure maps -----------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative."""
        i = self.variables.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            de = list(e)
            de[i] -= 1
            terms[tuple(de)] = c * e[i]
        return Polynomial(self.variables, terms)

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Apply the ring homomorphism sending each variable to its image.

        Every variable actually occurring in self must have an image; all
        images must share one variable set (the target ring).
        """
        used = self.used_variables()
        missing = used - set(images)
        if missing:
            raise StructuralError(f"no image for variables {sorted(missing)}")
        if images:
            target = next(iter(images.values())).variables
            for g in images.values():
                if g.variables != target:
                    raise StructuralError("substitution images live in different rings")
        else:
            target = self.variables
        power_cache: dict = {}

        def power(name, k):
            key = (name, k)
            if key not in power_cache:
                power_cache[key] = images[name] ** k
            return power_cache[key]

        terms: dict = {}
        for e, c in self.terms.items():
            product = None
            for v, k in zip(self.variables, e):
                if k:
                    product = power(v, k) if product is None else product * power(v, k)
            if product is None:
                add_terms(terms, {(0,) * len(target): c})
            else:
                add_terms(terms, product.terms, c)
        return Polynomial._of(target, terms)

    def extend(self, variables) -> "Polynomial":
        """View in a larger ring whose variables include all of ours."""
        variables = tuple(variables)
        idx = []
        for v in self.variables:
            if v not in variables:
                raise StructuralError(f"{v!r} missing from extension ring")
            idx.append(variables.index(v))
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(variables)
            for i, k in zip(idx, e):
                ne[i] = k
            terms[tuple(ne)] = c
        return Polynomial(variables, terms)

    def restrict(self, variables) -> "Polynomial":
        """Project onto a subring; error if an outside variable occurs."""
        variables = tuple(variables)
        outside = self.used_variables() - set(variables)
        if outside:
            raise StructuralError(f"polynomial uses {sorted(outside)} outside {variables}")
        idx = [self.variables.index(v) for v in variables]
        terms = {tuple(e[i] for i in idx): c for e, c in self.terms.items()}
        return Polynomial(variables, terms)

    # -- printing / parsing -------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]),
                      reverse=True)

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            monomial = monomial_label(self.variables, exps)
            mag = abs(c)
            if monomial == "1":
                body = str(mag)
            elif mag == 1:
                body = monomial
            else:
                body = f"{mag}*{monomial}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __str__ = to_str

    def __repr__(self):
        return f"<Polynomial {self.to_str()}>"


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<op>[\^*+\-()]))")


def parse(text: str, variables) -> Polynomial:
    """Parse the textual polynomial syntax (round-trips with to_str).

    Terms are joined by + and -, coefficients are integers or a/b,
    powers use ^, and * between factors is optional.
    """
    variables = tuple(variables)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise StructuralError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", m.group("num")))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))

    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None)

    def parse_expr():
        nonlocal i
        result = Polynomial.zero(variables)
        sign = 1
        kind, val = peek()
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
        result = result + parse_term() * sign
        while True:
            kind, val = peek()
            if kind == "op" and val in "+-":
                i += 1
                result = result + parse_term() * (-1 if val == "-" else 1)
            else:
                return result

    def parse_term():
        nonlocal i
        result = parse_factor()
        while True:
            kind, val = peek()
            if kind == "op" and val == "*":
                i += 1
                result = result * parse_factor()
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                result = result * parse_factor()
            else:
                return result

    def parse_factor():
        nonlocal i
        kind, val = peek()
        if kind is None:
            raise StructuralError("unexpected end of polynomial text")
        if kind == "op" and val == "(":
            i += 1
            inner = parse_expr()
            kind, val = peek()
            if not (kind == "op" and val == ")"):
                raise StructuralError("unbalanced parenthesis")
            i += 1
            base = inner
        elif kind == "num":
            i += 1
            try:
                base = Polynomial.constant(Fraction(val), variables)
            except ZeroDivisionError:
                raise StructuralError(f"zero denominator in {val}") from None
        else:
            i += 1
            base = Polynomial.variable(val, variables)
        kind, val = peek()
        if kind == "op" and val == "^":
            i += 1
            kind, val = peek()
            if kind != "num" or "/" in val:
                raise StructuralError("exponent must be a nonnegative integer")
            i += 1
            base = base ** int(val)
        return base

    result = parse_expr()
    if i != len(tokens):
        raise StructuralError(f"trailing tokens in {text!r}")
    return result


def ring(names: str) -> tuple:
    """Convenience: "x y z" -> (x, y, z) as Polynomials over ("x","y","z")."""
    variables = tuple(names.split())
    return tuple(Polynomial.variable(v, variables) for v in variables)


def bidegree(f: Polynomial):
    """Maximal (u-degree, v-degree) over the terms of f in C[t,v,u].

    Pairs compare lexicographically; BIDEG_BOTTOM is returned for 0.
    """
    allowed = {"t", "v", "u"}
    outside = f.used_variables() - allowed
    if outside:
        raise StructuralError(f"bidegree defined on C[t,v,u] only, got {sorted(outside)}")
    if f.is_zero():
        return BIDEG_BOTTOM
    iu = f.variables.index("u") if "u" in f.variables else None
    iv = f.variables.index("v") if "v" in f.variables else None
    best = BIDEG_BOTTOM
    for e in f.terms:
        k = e[iu] if iu is not None else 0
        j = e[iv] if iv is not None else 0
        if (k, j) > best:
            best = (k, j)
    return best
