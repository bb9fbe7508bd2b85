"""Chart-local blowup of a ring with derivation along an invariant center.

One affine chart of the blowup along <g_1, ..., g_s> with divisor f adjoins
the fractions g_i/f.  The center must consist of distinct variables of a
relation-free ring, f one of them, and the fractions are eliminated into
fresh free variables.  The derivation is transported by the quotient rule
D(g_i/f) = (D(g_i) - (g_i/f) D(f)) / f, which must come out polynomial in
the chart — a failure signals a non-invariant center.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivation import Derivation
from .groebner import Ideal, InputError, PresentedRing
from .poly import Polynomial, StructuralError
from .report import Report


@dataclass
class ChartBlowup:
    source: PresentedRing
    divisor: Polynomial
    centers: list
    ring: PresentedRing
    derivation: Derivation
    substitution: dict       # source variable -> chart expression
    strict_transforms: dict  # original center name -> chart coordinate


def _reexpress(poly, variables):
    used = tuple(sorted(poly.used_variables()))
    return poly.restrict(used).extend(variables)


def _divide_by_variable(poly: Polynomial, name: str) -> Polynomial:
    idx = poly.variables.index(name)
    terms = {}
    for exps, coeff in poly.terms.items():
        if exps[idx] == 0:
            raise InputError(
                f"derivation transport is not polynomial: {poly} not divisible by {name}")
        terms[exps[:idx] + (exps[idx] - 1,) + exps[idx + 1:]] = coeff
    return Polynomial(poly.variables, terms)


def blowup_chart(ring: PresentedRing, derivation: Derivation, f: Polynomial,
                 centers, j: int, names=None) -> ChartBlowup:
    """One chart of the blowup along the centers, inverting center j.

    ``f`` is the divisor generating the exceptional locus in this chart;
    ``names`` optionally renames the adjoined coordinates (center variable
    name -> chart name).  A center of more than one entry must be distinct
    coordinate variables of a ring without relations; any other raises
    ``InputError``.
    """
    f = ring.normal_form(f)
    centers = [ring.normal_form(g) for g in centers]
    if not (0 <= j < len(centers)):
        raise InputError("chart index outside the center list")
    center_ideal = Ideal(centers, variables=ring.variables)
    if f not in center_ideal:
        raise InputError("divisor must lie in the center ideal")
    if len(centers) == 1:
        # trivial center <f>: the chart is the original ring
        return ChartBlowup(ring, f, centers, ring, derivation,
                           {v: ring.var(v) for v in ring.variables}, {})
    if ring.relations or not all(g.is_monomial() and g.total_degree() == 1
                                 and g.leading_coefficient() == 1
                                 for g in centers):
        raise InputError("a blowup center must be coordinate variables of a ring "
                         "without relations")
    return _blowup_chart_elimination(ring, derivation, f, centers, j,
                                     names or {})


def _variable_name(poly: Polynomial) -> str:
    (exps,) = poly.terms
    return poly.variables[exps.index(1)]


def _blowup_chart_elimination(ring, derivation, f, centers, j, names):
    center_names = [_variable_name(g) for g in centers]
    divisor_name = _variable_name(f)
    if divisor_name != center_names[j]:
        raise InputError("chart index does not match the divisor")
    chart_vars = []
    chart_name = {}
    for v in ring.variables:
        if v in center_names and v != divisor_name:
            chart_name[v] = names.get(v, f"w_{v}")
        else:
            chart_name[v] = names.get(v, v)
        chart_vars.append(chart_name[v])
    chart_vars = tuple(chart_vars)
    chart = PresentedRing(chart_vars)
    substitution = {}
    strict = {}
    divisor_var = chart.var(chart_name[divisor_name])
    for v in ring.variables:
        w = chart.var(chart_name[v])
        if v in center_names and v != divisor_name:
            substitution[v] = w * divisor_var
            strict[v] = w
        else:
            substitution[v] = w
    strict[divisor_name] = divisor_var
    images = {}
    d_f = derivation.images[divisor_name].substitute(substitution)
    for v in ring.variables:
        image = derivation.images[v].substitute(substitution)
        if v in center_names and v != divisor_name:
            numerator = image - chart.var(chart_name[v]) * d_f
            images[chart_name[v]] = _divide_by_variable(numerator,
                                                        chart_name[divisor_name])
        else:
            images[chart_name[v]] = image
    transported = Derivation(chart, images)
    return ChartBlowup(ring, f, centers, chart, transported, substitution, strict)


def fixed_locus_ideal(derivation: Derivation, generators=None) -> Ideal:
    """Ideal of common zeros of the derivation's generator images."""
    ring = derivation.ring
    if generators is None:
        generators = ring.gens()
    images = [ring.normal_form(derivation(g)) for g in generators]
    images = [g for g in images if not g.is_zero()]
    if not images:
        return Ideal.zero(ring.variables)
    return Ideal(images, variables=ring.variables)


def initial_chart() -> ChartBlowup:
    """Blow up the y-chart of <x,y,z> in Q[x,y,z] with D(x) = y^2.

    The chart coordinates (xi, eta, zeta) = (x/y, y, z/y) carry the linear
    derivation D(xi) = eta.
    """
    base = PresentedRing(("x", "y", "z"))
    y = base.var("y")
    derivation = Derivation(base, {"x": y ** 2})
    return blowup_chart(base, derivation, y,
                        [base.var("x"), y, base.var("z")], 1,
                        names={"x": "xi", "y": "eta", "z": "zeta"})


def verify_section7_cases() -> Report:
    """Fixed-locus dichotomy for the three blowup centers of the model chart."""
    report = Report("section7", ())
    first = initial_chart()
    chart = first.ring
    d_xi = first.derivation.images["xi"]
    report.add("initial-chart", (d_xi - chart.var("eta")).is_zero(), (),
               f"D(xi) = {d_xi}")

    xi, eta, zeta = chart.gens()

    def principal(g, ring):
        return Ideal([g], variables=ring.variables)

    # case 1: blow up the origin; three charts
    centers = [xi, eta, zeta]
    eta_chart = blowup_chart(chart, first.derivation, eta, centers, 1)
    fixed = fixed_locus_ideal(eta_chart.derivation)
    report.add("case1-free-chart", fixed.is_unit(), (("chart", "eta"),),
               "fixed ideal is the unit ideal")
    for name, idx in (("xi", 0), ("zeta", 2)):
        cb = blowup_chart(chart, first.derivation, centers[idx], centers, idx)
        fixed = fixed_locus_ideal(cb.derivation)
        strict = cb.strict_transforms["eta"]
        inside = strict ** 2 in fixed
        contained = all(g in principal(strict, cb.ring)
                        for g in fixed.generators)
        report.add("case1-strict-transform", inside and contained,
                   (("chart", name),),
                   "fixed locus is exactly the strict transform of eta=0")

    # case 2a: center = the xi-axis <eta, zeta>: full exceptional fibers
    for divisor, idx in ((eta, 0), (zeta, 1)):
        cb = blowup_chart(chart, first.derivation, divisor, [eta, zeta], idx)
        fixed = fixed_locus_ideal(cb.derivation)
        exceptional = principal(_reexpress(divisor, cb.ring.variables), cb.ring)
        full_fiber = all(g in exceptional for g in fixed.generators)
        report.add("case2a-full-fiber", full_fiber,
                   (("chart", divisor.to_str()),),
                   "fixed ideal vanishes on the whole exceptional divisor")

    # case 2b: center = the zeta-axis <xi, eta>
    cb = blowup_chart(chart, first.derivation, eta, [xi, eta], 1)
    fixed = fixed_locus_ideal(cb.derivation)
    report.add("case2b-generic-chart", fixed.is_unit(), (("chart", "eta"),),
               "no fixed points in the generic chart")
    cb = blowup_chart(chart, first.derivation, xi, [xi, eta], 0)
    fixed = fixed_locus_ideal(cb.derivation)
    w_eta = cb.strict_transforms["eta"]
    proper = (w_eta ** 2 in fixed) and not all(
        g in principal(_reexpress(xi, cb.ring.variables), cb.ring)
        for g in fixed.generators)
    report.add("case2b-partial-fiber", proper, (("chart", "xi"),),
               "fixed locus meets the exceptional divisor in a proper subset")
    return report
