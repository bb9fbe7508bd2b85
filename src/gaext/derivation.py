"""Derivations of presented rings, nilpotency bounds, and gradings."""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping

from .groebner import InputError, PresentedRing
from .poly import Polynomial, StructuralError, add_terms, divide
from .report import Undecided


class Derivation:
    """A derivation of a presented ring, given by its images on the variables.

    Construction checks that the derivation kills the relation ideal, i.e.
    that applying the Leibniz rule to each relation lands back in the ideal;
    otherwise the map would not descend to the quotient.

    D and the normal form are both linear, so D is applied through a table
    of the normal form of D(m), built once per monomial m on first use and
    kept as long as the derivation is.
    """

    def __init__(self, ring: PresentedRing, images: Mapping[str, Polynomial]):
        self.ring = ring
        imgs = {}
        for name in ring.variables:
            img = images.get(name)
            if img is None:
                img = ring.zero()
            elif img.variables != ring.variables:
                raise StructuralError(f"image of {name} lives in the wrong ring")
            imgs[name] = ring.normal_form(img)
        extra = set(images) - set(ring.variables)
        if extra:
            raise StructuralError(f"images given for unknown variables: {sorted(extra)}")
        self.images = imgs
        # (variable index, image terms) for every variable D does not kill
        self._leibniz = tuple((i, imgs[name].terms)
                              for i, name in enumerate(ring.variables)
                              if not imgs[name].is_zero())
        # exponents -> terms of D(monomial) in normal form, filled on first use
        self._rows: dict = {}
        for rel in ring.relations:
            if not self._apply_raw(rel) in ring.relation_ideal:
                raise InputError(
                    f"derivation does not preserve the relation {rel}")

    def __repr__(self):
        parts = ", ".join(f"{n} -> {p}" for n, p in self.images.items()
                          if not p.is_zero())
        return f"<Derivation {parts or '0'}>"

    def _apply_raw(self, f: Polynomial) -> Polynomial:
        """D(f) before the normal form, by the Leibniz rule on exponent tuples.

        Sums e_i * c * x^(e - eps_i) * D(x_i) over the terms c * x^e of f and
        the variables x_i with a nonzero image, in one dict.
        """
        terms: dict = {}
        for exps, c in f.terms.items():
            for i, image in self._leibniz:
                k = exps[i]
                if k:
                    add_terms(terms, image, k * c, exps[:i] + (k - 1,) + exps[i + 1:])
        return Polynomial._of(f.variables, terms)

    def apply_terms(self, terms: dict) -> dict:
        """The terms of D(f) in normal form, from the terms of f.

        Coefficients meet the table rows only through products and sums, so
        integral coefficients stay ``int``.  A row is stored with every
        integral coefficient as an ``int``, whatever products made it.
        """
        rows = self._rows
        out: dict = {}
        for exps, c in terms.items():
            row = rows.get(exps)
            if row is None:
                monomial = Polynomial._of(self.ring.variables, {exps: 1})
                row = self.ring.normal_form(self._apply_raw(monomial)).terms
                if any(type(k) is Fraction for k in row.values()):
                    # D(t^2) = t*x from D(t) = x/2 has 2*(1/2) = Fraction(1)
                    row = {e: divide(k) for e, k in row.items()}
                rows[exps] = row
            add_terms(out, row, c)
        return out

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.variables != self.ring.variables:
            raise StructuralError("argument outside the derivation's ring")
        return Polynomial._of(f.variables, self.apply_terms(f.terms))

    def _chain(self, f: Polynomial, bound: int | None):
        """[f, D f, ..., D^nu f] in normal form, up to the last nonzero iterate,
        or Undecided when D^bound f is still nonzero."""
        g = self.ring.normal_form(f)
        if bound is None:
            bound = 2 * max(g.total_degree(), 0) + 4
        chain = []
        while not g.is_zero():
            chain.append(g)
            if len(chain) > bound:
                return Undecided("NoVanishingPower", (("bound", bound),))
            g = self(g)
        return chain

    def nilpotency_degree(self, f: Polynomial, bound: int | None = None):
        """Least nu with D^(nu+1) f = 0, or Undecided past the search bound."""
        chain = self._chain(f, bound)
        return chain if isinstance(chain, Undecided) else len(chain) - 1

    def graded_leading_term(self, f: Polynomial, bound: int | None = None):
        """Pair (nu, D^nu f / nu!) for the least nu with D^(nu+1) f = 0.

        This is the image of f in the associated graded piece of its level,
        read off the same walk as ``nilpotency_degree``.  Returns its
        ``Undecided`` when the walk exhausts the bound, and (-1, 0) for f = 0.
        """
        chain = self._chain(f, bound)
        if isinstance(chain, Undecided):
            return chain
        if not chain:
            return (-1, self.ring.zero())
        nu = len(chain) - 1
        return (nu, chain[-1] * divide(1, factorial(nu)))


class Grading:
    """Integer weights on the variables of a presented ring.

    Validates that every relation is homogeneous, so the weight of a normal
    form is well defined on the quotient.
    """

    def __init__(self, ring: PresentedRing, weights: Mapping[str, int]):
        self.ring = ring
        missing = set(ring.variables) - set(weights)
        if missing:
            raise StructuralError(f"no weight for variables: {sorted(missing)}")
        self.weights = {n: weights[n] for n in ring.variables}
        for name, w in self.weights.items():
            if not isinstance(w, int):
                raise InputError(f"weight {w!r} of {name} is not an int")
        for rel in ring.relations:
            rel_weights = self.weight_range(rel)
            if rel_weights and rel_weights[0] != rel_weights[1]:
                raise InputError(f"relation {rel} is not weight-homogeneous")

    def monomial_weight(self, exps) -> int:
        return sum(e * self.weights[n]
                   for e, n in zip(exps, self.ring.variables))

    def weight_range(self, f: Polynomial):
        """(least, greatest) weight of f's monomials, or None for 0."""
        if f.is_zero():
            return None
        weights = [self.monomial_weight(e) for e in f.terms]
        return min(weights), max(weights)


def homogeneity_degree(derivation: Derivation, grading: Grading):
    """The common weight shift of the derivation, if one exists.

    Compares weight(D(v)) - weight(v) across variables; variables killed by
    the derivation put no constraint on the shift.  Returns the shift, or
    None when images disagree or are themselves inhomogeneous.
    """
    shifts = set()
    for name, img in derivation.images.items():
        if not img.is_zero():
            shifts.update(w - grading.weights[name] for w in grading.weight_range(img))
    if len(shifts) > 1:
        return None
    return shifts.pop() if shifts else 0
