"""Pullback of the standard bundle along a plane map (g, h).

The total ring is base[f0, f1] / (g*f1 - h*f0 - 1) with the derivation
f0 -> g, f1 -> h.  For (g, h) = (x, y) this is exactly the special linear
group surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivation import Derivation
from .filtered import FilteredSubalgebra, IdealSequence, TruncationParams
from .groebner import Ideal, InputError, PresentedRing
from .poly import Polynomial


@dataclass
class PullbackBundle:
    base_variables: tuple
    g: Polynomial
    h: Polynomial
    ring: PresentedRing
    derivation: Derivation
    trivial: bool


def build_pullback(base_variables, g: Polynomial, h: Polynomial) -> PullbackBundle:
    """Total ring and derivation of the bundle pulled back along (g, h)."""
    base_variables = tuple(base_variables)
    if g.is_zero() and h.is_zero():
        raise InputError("degenerate pullback: g = h = 0")
    total_vars = base_variables + ("f0", "f1")
    g_ext = g.extend(total_vars)
    h_ext = h.extend(total_vars)
    f0 = Polynomial.variable("f0", total_vars)
    f1 = Polynomial.variable("f1", total_vars)
    relation = g_ext * f1 - h_ext * f0 - Polynomial.one(total_vars)
    ring = PresentedRing(total_vars, [relation])
    derivation = Derivation(ring, {"f0": g_ext, "f1": h_ext})
    trivial = (g.is_constant() and not g.is_zero()) or \
              (h.is_constant() and not h.is_zero())
    return PullbackBundle(base_variables, g, h, ring, derivation, trivial)


def pullback_subalgebra(bundle: PullbackBundle) -> FilteredSubalgebra:
    ring = bundle.ring
    return FilteredSubalgebra(ring, bundle.derivation, bundle.base_variables,
                              {"f0": ring.var("f0"), "f1": ring.var("f1")})


def graded_sequence_of_pullback(bundle: PullbackBundle, nu_max: int) -> IdealSequence:
    """Levels 0..nu_max of the full pullback ring; expected <g, h>^nu."""
    degree_unit = max(bundle.g.total_degree(), bundle.h.total_degree(), 1)
    return IdealSequence.compute(
        pullback_subalgebra(bundle),
        [TruncationParams(nu, degree_unit * (nu + 2) + 2) for nu in range(nu_max + 1)])


def expected_pullback_ideal(bundle: PullbackBundle, nu: int) -> Ideal:
    base = Ideal([bundle.g, bundle.h], variables=bundle.base_variables)
    return base ** nu
