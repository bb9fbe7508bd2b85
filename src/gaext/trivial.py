"""Extensions of the trivial line bundle over the plane.

The ambient ring is Q[x,y,t] with the derivation d/dt.  A finitely
generated subalgebra containing Q[x,y] is of the second kind when every
positive t-power coefficient of every generator vanishes at the origin of
the plane; otherwise it is of the first kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivation import Derivation
from .filtered import (FilteredSubalgebra, IdealSequence, TruncationParams,
                       subalgebra_contains, verify_sequence_axioms)
from .groebner import Ideal, InputError, PresentedRing
from .poly import Polynomial
from .report import PASS, Report

PLANE_VARS = ("x", "y", "t")

FIRST_KIND = "FirstKind"
SECOND_KIND = "SecondKind"


def plane_ring() -> PresentedRing:
    return PresentedRing(PLANE_VARS)


def plane_derivation(ring: PresentedRing) -> Derivation:
    return Derivation(ring, {"t": ring.one()})


@dataclass(frozen=True)
class Classification:
    kind: str
    degenerate: bool

    def __eq__(self, other):
        if isinstance(other, str):
            return self.kind == other
        return (self.kind, self.degenerate) == (other.kind, other.degenerate)


class TrivialExtension:
    """Subalgebra of Q[x,y][t] containing Q[x,y], stable under d/dt."""

    def __init__(self, generators: dict, proper: bool = True):
        self.ring = plane_ring()
        self.derivation = plane_derivation(self.ring)
        gens = {}
        for label, g in generators.items():
            if g.variables != PLANE_VARS:
                g = g.restrict(PLANE_VARS)
            gens[label] = g
        self.generators = gens
        self.proper = proper

    def subalgebra(self) -> FilteredSubalgebra:
        gens = dict(self.generators)
        x = self.ring.var("x")
        y = self.ring.var("y")
        gens.setdefault("x", x)
        gens.setdefault("y", y)
        return FilteredSubalgebra(self.ring, self.derivation, ("x", "y"), gens)

    def verify_stability(self, truncation: TruncationParams) -> Report:
        """Each generator's derivative must re-express inside the algebra.

        A derivative not found within the truncation is indeterminate.
        """
        report = Report("trivial-ext-stability", truncation.as_params())
        sub = self.subalgebra()
        for label, g in sorted(self.generators.items()):
            image = self.derivation(g)
            report.add("derivative-stable", subalgebra_contains(sub, image, truncation),
                       (("gen", label),))
        return report


def _t_coefficients(g: Polynomial) -> dict:
    """Map t-exponent -> coefficient polynomial in Q[x,y]."""
    it = g.variables.index("t")
    out: dict = {}
    for exps, coeff in g.terms.items():
        base = tuple(e for i, e in enumerate(exps) if i != it)
        out.setdefault(exps[it], {})[base] = coeff
    variables = tuple(v for v in g.variables if v != "t")
    return {k: Polynomial(variables, terms) for k, terms in out.items()}


def classify_kind(ext: TrivialExtension) -> Classification:
    """First kind iff some generator has a t-power coefficient that is a
    unit at the origin; degenerate when no generator involves t at all."""
    degenerate = True
    kind = SECOND_KIND
    for g in ext.generators.values():
        coeffs = _t_coefficients(g)
        if any(k >= 1 for k in coeffs):
            degenerate = False
        for power, coeff in coeffs.items():
            if power >= 1 and coeff.constant_term() != 0:
                kind = FIRST_KIND
    return Classification(kind, degenerate)


def ideal_sequence_algebra(sequence: IdealSequence) -> TrivialExtension:
    """Graded model algebra O(plane) + sum of m_nu t^nu from its generators."""
    axioms = verify_sequence_axioms(sequence)
    if axioms.overall != PASS:
        raise InputError("ideal sequence does not pass the sequence axioms")
    gens = {}
    proper = True
    ring = plane_ring()
    t = ring.var("t")
    for nu in range(1, len(sequence.ideals)):
        ideal = sequence.ideals[nu]
        if ideal.is_unit():
            proper = False
        for g in ideal.generators:
            lifted = g.extend(PLANE_VARS) * t ** nu
            gens[f"({g})*t^{nu}"] = lifted
    return TrivialExtension(gens, proper=proper)


def verify_smoothext() -> Report:
    """The worked first-kind example: chart images, gluing, classification."""
    report = Report("smoothext", ())
    ring = plane_ring()
    x, y, t = ring.gens()
    one = ring.one()
    charts = {
        "L2": (x, y, x * t, y * t, x * t ** 2 - t),
        "L1": (x, x * y, x * t + one, x * y * t + y, x * t ** 2 + t),
    }
    t_vars = tuple(f"T{i}" for i in range(1, 6))
    t1, t2, t3, t4, t5 = (Polynomial.variable(nm, t_vars) for nm in t_vars)
    equations = {
        "T1*T4-T2*T3": t1 * t4 - t2 * t3,
        "T2*T5+T4-T3*T4": t2 * t5 + t4 - t3 * t4,
        "T1*T5-T3^2+T3": t1 * t5 - t3 ** 2 + t3,
    }
    for chart, images in charts.items():
        subs = dict(zip(t_vars, images))
        for name, eq in equations.items():
            value = eq.substitute(subs)
            report.add("chart-equation", value.is_zero(),
                       (("chart", chart), ("eq", name)),
                       "" if value.is_zero() else str(value))

    # gluing (x, y, t) -> (x, xy, t + 1/x) in the x-localization
    loc_vars = ("x", "y", "t", "w")
    xw, yw, tw, ww = (Polynomial.variable(nm, loc_vars) for nm in loc_vars)
    loc = PresentedRing(loc_vars, [xw * ww - Polynomial.one(loc_vars)])
    glue = {"x": xw, "y": xw * yw, "t": tw + ww}
    for i, (img2, img1) in enumerate(zip(charts["L2"], charts["L1"]), start=1):
        pulled = loc.normal_form(img2.extend(loc_vars).substitute(glue))
        diff = loc.normal_form(img1.extend(loc_vars) - pulled)
        report.add("gluing-intertwines", diff.is_zero(), (("T", i),),
                   "" if diff.is_zero() else str(diff))

    _, _, c, d, e = charts["L1"]
    report.add("inverse-recovers", (d - y * c).is_zero() and (e - t * c).is_zero(),
               (), "d = y*c and e = t*c on the unit-at-origin chart")

    ext = TrivialExtension({
        "xt": x * t, "yt": y * t, "xt2-t": x * t ** 2 - t})
    kind = classify_kind(ext)
    report.add("first-kind", kind.kind == FIRST_KIND and not kind.degenerate, (),
               f"classified {kind.kind}")
    return report
