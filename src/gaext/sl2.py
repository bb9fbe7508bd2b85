"""The special linear group surface algebra and its two extension families.

O(SL2) = Q[x,y,u,v]/(xv - yu - 1) carries the structural derivation
D(u) = x, D(v) = y.  Family one adjoins the chart algebra of the ideal
I(n); family two is the nonnegative part of a weighted multiplicative
grading.  Each verify_* operation returns a deterministic report.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd

from .blowup import fixed_locus_ideal
from .derivation import Derivation, Grading, homogeneity_degree
from .filtered import (FilteredSubalgebra, IdealSequence, MonomialGenerators,
                       TruncationParams, compute_m_nu, generated_in_degree_one,
                       subalgebra_contains, verify_sequence_axioms)
from .groebner import Ideal, InputError, PresentedRing, weighted_monomial_ideal
from .poly import Polynomial
from .report import PASS, Report, Undecided

SL2_VARS = ("x", "y", "u", "v")


def as_is(truncation: TruncationParams) -> TruncationParams:
    """The default ``bounds`` of every suite: its own truncations, unchanged."""
    return truncation


@lru_cache(maxsize=None)
def sl2_ring() -> PresentedRing:
    x, y, u, v = (Polynomial.variable(n, SL2_VARS) for n in SL2_VARS)
    return PresentedRing(SL2_VARS, [x * v - y * u - Polynomial.one(SL2_VARS)])


@lru_cache(maxsize=None)
def sl2_derivation() -> Derivation:
    ring = sl2_ring()
    return Derivation(ring, {"u": ring.var("x"), "v": ring.var("y")})


@lru_cache(maxsize=None)
def sl2_torus() -> tuple:
    """The 2-torus grading of O(SL2), w1 = (1,0,0,-1) and w2 = (0,1,-1,0)
    on (x, y, u, v); D shifts it by (1, 1)."""
    ring = sl2_ring()
    return (Grading(ring, {"x": 1, "y": 0, "u": 0, "v": -1}),
            Grading(ring, {"x": 0, "y": 1, "u": -1, "v": 0}))


def sl2_subalgebra() -> FilteredSubalgebra:
    ring = sl2_ring()
    return FilteredSubalgebra(ring, sl2_derivation(), ("x", "y"),
                              {"u": ring.var("u"), "v": ring.var("v")},
                              torus=sl2_torus())


def base_power_ideal(k: int) -> Ideal:
    """The k-th power of <x, y> in Q[x, y]."""
    variables = ("x", "y")
    gens = [Polynomial(variables, {(k - i, i): 1}) for i in range(k + 1)]
    if k == 0:
        return Ideal([Polynomial.one(variables)], variables=variables)
    return Ideal(gens, variables=variables)


def _add_graded_check(report: Report, check_id: str, computed: Ideal,
                      expected: Ideal, params: tuple, truncation: TruncationParams,
                      witness: str) -> bool:
    """Report computed = expected, where computed is a truncated lower bound.

    A computed generator outside the expected ideal disproves the claim; an
    expected generator that the truncation missed leaves it undecided.
    Returns whether the line passed.
    """
    verdict = computed.equals(expected)
    if not verdict:
        escaping = next((g for g in computed.generators if g not in expected), None)
        if escaping is not None:
            witness += f": {escaping} escapes"
        else:
            missing = next(g for g in expected.generators if g not in computed)
            verdict = Undecided("LowerBound", truncation.as_params())
            witness += f": missing {missing}"
    check = report.add(check_id, verdict, params + truncation.as_params(), witness)
    return check.status == PASS


def _with_bounds(params: tuple, verdict) -> tuple:
    """params, followed by the bounds of an undecided verdict."""
    return params + verdict.bounds if isinstance(verdict, Undecided) else params


def _levels_bounds(sequence: IdealSequence, *levels) -> tuple:
    """The bounds of each level a comparison reads, as L_nu and d_nu."""
    return tuple((f"{name}_{nu}", value) for nu in levels
                 for name, value in sequence.truncations[nu].as_params())


def sl2_sequence(nu_max: int) -> IdealSequence:
    """Graded ideals of O(SL2) itself, level nu at truncation L=nu, d=2nu+2."""
    return IdealSequence.compute(
        sl2_subalgebra(),
        [TruncationParams(nu, 2 * nu + 2) for nu in range(nu_max + 1)])


# ---------------------------------------------------------------------------
# family one


def family1_variables(n: int) -> tuple:
    if n < 1:
        raise InputError("family one needs n >= 1 (n = 0 is covered by family two)")
    return ("X0", "X1") + tuple(f"Y{i}" for i in range(n + 2)) + ("Z",)


def family1_ideal(n: int) -> Ideal:
    """Defining ideal I(n) of the contracted chart variety, deduplicated."""
    variables = family1_variables(n)

    def var(name):
        return Polynomial.variable(name, variables)

    x0, x1, z = var("X0"), var("X1"), var("Z")
    ys = [var(f"Y{i}") for i in range(n + 2)]
    gens = []
    # quadric block Y_i Y_j - Y_k Y_l over equal index sums
    for total in range(2 * (n + 1) + 1):
        pairs = [(i, total - i) for i in range(total // 2 + 1)
                 if 0 <= total - i <= n + 1 and i <= n + 1]
        for (i, j), (k, l) in itertools.combinations(pairs, 2):
            gens.append(ys[i] * ys[j] - ys[k] * ys[l])
    for i in range(n + 1):
        gens.append(x0 * ys[i + 1] - x1 * ys[i])
    for i in range(n + 1):
        gens.append(z * ys[i] + x1 ** n * ys[i + 1] - ys[i + 1] * ys[n + 1])
    gens.append(z * x0 + x1 ** (n + 1) - x1 * ys[n + 1])
    return Ideal(gens, variables=variables)


def family1_psi(n: int) -> dict:
    """Pullback images in O(SL2) of the chart-variety coordinates."""
    variables = family1_variables(n)
    x, y, u, v = (Polynomial.variable(nm, SL2_VARS) for nm in SL2_VARS)
    images = {"X0": y, "X1": x, "Z": u * x ** (n + 1)}
    for i in range(n + 2):
        images[f"Y{i}"] = v * x ** i * y ** (n + 1 - i)
    return {name: images[name] for name in variables}


def family1_derivation(n: int) -> Derivation:
    """The stated derivation on the coordinate generators of the chart variety."""
    ring = PresentedRing(family1_variables(n))
    x0, x1 = ring.var("X0"), ring.var("X1")
    images = {"Z": x1 ** (n + 2)}
    for i in range(n + 2):
        images[f"Y{i}"] = x1 ** i * x0 ** (n + 2 - i)
    return Derivation(ring, images)


def family1_subalgebra(n: int) -> FilteredSubalgebra:
    ring = sl2_ring()
    psi = family1_psi(n)
    gens = {name: img for name, img in psi.items()
            if name not in ("X0", "X1")}
    return FilteredSubalgebra(ring, sl2_derivation(), ("x", "y"), gens,
                              torus=sl2_torus())


def family1_truncation(n: int, nu: int) -> TruncationParams:
    return TruncationParams(nu, (n + 2) * nu + 4)


def verify_family1(n: int, nu_max: int, bounds=as_is) -> Report:
    """Checks (a)-(e) for one family-one member, level nu at
    ``bounds(family1_truncation(n, nu))``."""
    report = Report("family1", (("n", n), ("nu_max", nu_max)))
    ring = sl2_ring()
    derivation = sl2_derivation()
    psi = family1_psi(n)
    ideal = family1_ideal(n)

    for idx, g in enumerate(ideal.generators):
        image = ring.normal_form(g.substitute(psi))
        report.add("psi-vanishing", image.is_zero(), (("n", n), ("gen", idx)),
                   "" if image.is_zero() else f"psi({g}) = {image}")

    d_gen = family1_derivation(n)
    gen_vars = family1_variables(n)
    for name in gen_vars:
        lhs = derivation(psi[name])
        rhs = ring.normal_form(d_gen.images[name].substitute(psi))
        ok = (lhs - rhs).is_zero()
        report.add("derivation-commutes", ok, (("n", n), ("var", name)),
                   "" if ok else f"D(psi({name})) = {lhs} != {rhs}")

    sequence = IdealSequence.compute(
        family1_subalgebra(n),
        [bounds(family1_truncation(n, nu)) for nu in range(nu_max + 1)])
    for nu in range(1, nu_max + 1):
        _add_graded_check(report, "graded-ideal", sequence[nu],
                          base_power_ideal((n + 2) * nu), (("n", n), ("nu", nu)),
                          sequence.truncations[nu], f"m_{nu} vs <x,y>^{(n + 2) * nu}")
    for nu, equal, witness in generated_in_degree_one(sequence):
        # both sides are lower bounds, so a difference disproves nothing
        verdict = equal or Undecided("LowerBound", _levels_bounds(sequence, 1, nu))
        report.add("degree-one-generation", verdict,
                   _with_bounds((("n", n), ("nu", nu)), verdict), witness)

    fixed = fixed_locus_ideal(d_gen)
    k = n + 2
    expected_fixed = Ideal(
        [Polynomial(gen_vars, {(k - i, i) + (0,) * (len(gen_vars) - 2): 1})
         for i in range(k + 1)],
        variables=gen_vars)
    report.add("fixed-locus", fixed.equals(expected_fixed), (("n", n),),
               f"<D images> vs <X0,X1>^{k}")
    return report


# ---------------------------------------------------------------------------
# family two


def family2_weights(p: int, q: int) -> dict:
    if p <= 0 or q <= 0:
        raise InputError("weights must be positive")
    if gcd(p, q) != 1:
        raise InputError(f"weights must be coprime, got ({p}, {q})")
    return {"x": p, "y": q, "u": -q, "v": -p}


def family2_grading(p: int, q: int) -> Grading:
    return Grading(sl2_ring(), family2_weights(p, q))


def family2_bezout(p: int, q: int) -> tuple:
    """Minimal nonnegative m with m*q - n*p = 1."""
    family2_weights(p, q)  # validates coprimality
    m = next(m for m in range(p + 1)
             if m * q >= 1 and (m * q - 1) % p == 0)
    return m, (m * q - 1) // p


def family2_exponents(p: int, q: int, degree: int):
    """Exponents (a, b, c, d) of the normal-form monomials x^a y^b u^c v^d of
    nonnegative weight up to the degree bound.

    These have a*d = 0 (x*v is not a normal form) and
    p*a + q*b >= q*c + p*d, and come by total degree and then by descending
    exponents of x, y and u.
    """
    family2_weights(p, q)  # validates the weights
    for total in range(degree + 1):
        for a in range(total, -1, -1):
            for b in range(total - a, -1, -1):
                rest = total - a - b
                # with x present v must be absent, so u takes the rest
                for c in (range(rest, -1, -1) if a == 0 else (rest,)):
                    d = rest - c
                    if p * (a - d) + q * (b - c) >= 0:
                        yield (a, b, c, d)


def family2_nonnegative_generators(p: int, q: int, degree: int) -> dict:
    """The monomials of ``family2_exponents``, label to polynomial, in order."""
    gens = MonomialGenerators(SL2_VARS, family2_exponents(p, q, degree))
    return dict(map(gens.entry, gens.exponents))


def family2_cone(p: int, q: int, degree: int) -> MonomialGenerators:
    """The monomials of ``family2_exponents`` other than 1, declared by torus
    block of ``sl2_torus``.

    x^a y^b u^c v^e lies in block (k1, k2) = (a - e, b - c), of weight
    p*k1 + q*k2, so a block's monomials all have nonnegative weight or none
    does: the blocks kept are a cone.  A block's normal forms (a*e = 0) are
    a = max(k1, 0), e = max(-k1, 0) and b = k2 + c for c >= max(0, -k2), of
    degree |k1| + k2 + 2c, so the block holds one up to the degree bound
    exactly when |k1| + |k2| <= degree.  Block (0, 0) holds 1, left out.
    """
    family2_weights(p, q)  # validates the weights
    # block (0, 0) holds y^c*u^c, so a generator from degree 2 on
    keys = [(k1, k2) for k1 in range(-degree, degree + 1)
            for k2 in range(abs(k1) - degree, degree - abs(k1) + 1)
            if p * k1 + q * k2 >= 0 and (k1 or k2 or degree >= 2)]

    def block(key: tuple) -> list:
        k1, k2 = key
        a, e = max(k1, 0), max(-k1, 0)
        first = 1 if key == (0, 0) else max(-k2, 0)
        return [(a, k2 + c, c, e) for c in range(first, (degree - abs(k1) - k2) // 2 + 1)]
    return MonomialGenerators(SL2_VARS, block_keys=keys, block=block)


def family2_subalgebra(p: int, q: int, degree: int) -> FilteredSubalgebra:
    """The nonnegative-weight monomials other than 1 as generators, declared
    by torus block (``family2_cone``): with 1 they span the subalgebra
    linearly, and a span makes only the monomials of the blocks it reads."""
    return FilteredSubalgebra(sl2_ring(), sl2_derivation(), ("x", "y"),
                              family2_cone(p, q, degree), torus=sl2_torus())


def family2_truncation(p: int, q: int, nu: int) -> TruncationParams:
    return TruncationParams(1, 2 * (p + q) * nu + 4)


def family2_sequence(p: int, q: int, nu_max: int, bounds=as_is) -> IdealSequence:
    """Levels 0..nu_max, level nu at ``bounds(family2_truncation(p, q, nu))``,
    over one subalgebra built at the largest level degree.

    Its generators of degree at most d are exactly those of the subalgebra
    built at d, so each level's span is unchanged.
    """
    truncations = [bounds(family2_truncation(p, q, nu)) for nu in range(nu_max + 1)]
    sub = family2_subalgebra(p, q, max(t.degree for t in truncations))
    return IdealSequence.compute(sub, truncations)


def verify_family2(p: int, q: int, nu_max: int, bounds=as_is) -> Report:
    """Checks (a)-(e) for one family-two member, level nu at
    ``bounds(family2_truncation(p, q, nu))``; the positive-weight probe
    reads level 1's bounds whatever nu_max is."""
    report = Report("family2", (("p", p), ("q", q), ("nu_max", nu_max)))
    ring = sl2_ring()
    derivation = sl2_derivation()
    grading = family2_grading(p, q)

    shift = homogeneity_degree(derivation, grading)
    report.add("derivation-homogeneous", shift == p + q,
               (("p", p), ("q", q)), f"weight shift {shift}")

    x, y, u, v = ring.gens()
    a = x ** q * u ** p
    b = x * v
    c = y ** p * v ** q
    identity = ring.normal_form(a * c - b ** q * (b - ring.one()) ** p)
    report.add("base-identity", identity.is_zero(), (("p", p), ("q", q)),
               "" if identity.is_zero() else str(identity))

    m, n = family2_bezout(p, q)
    report.add("bezout", m * q - n * p == 1 and m >= 0,
               (("p", p), ("q", q)), f"m={m},n={n}")

    sequence = family2_sequence(p, q, nu_max, bounds)
    reached = [True]  # reached[nu]: the graded-ideal line of level nu passed
    for nu in range(1, nu_max + 1):
        reached.append(_add_graded_check(
            report, "graded-ideal", sequence[nu], weighted_monomial_ideal(p, q, nu),
            (("p", p), ("q", q), ("nu", nu)), sequence.truncations[nu],
            f"m_{nu} vs weighted({p},{q},{nu})"))

    if (p, q) == (2, 1) and nu_max >= 2:
        # both checks compare truncated lower bounds, so they decide nothing
        # until the levels they read have reached their expected ideals
        x3 = Polynomial(("x", "y"), {(3, 0): 1})
        m1_squared = sequence[1] * sequence[1]
        in_m2 = x3 in sequence[2]
        in_m1_sq = x3 in m1_squared
        cube = (in_m2 and not in_m1_sq if reached[1]
                else Undecided("LowerBound", _levels_bounds(sequence, 1, 2)))
        report.add("cube-witness", cube, _with_bounds((("p", p), ("q", q)), cube),
                   f"x^3 in m_2: {in_m2}; x^3 in m_1^2: {in_m1_sq}")
        differs = (not sequence[2].equals(m1_squared) if reached[1] and reached[2]
                   else Undecided("LowerBound", _levels_bounds(sequence, 1, 2)))
        report.add("degree-one-fails", differs, _with_bounds((("p", p), ("q", q)), differs),
                   "m_2 != m_1^2")

    probe = bounds(family2_truncation(p, q, 1))
    gens = family2_nonnegative_generators(p, q, min(probe.degree, p + q + 2))
    bad = ""
    for label, g in sorted(gens.items()):
        if grading.weight_range(g)[0] <= 0:
            continue
        image = derivation(g)
        if image.is_zero():
            continue
        if grading.weight_range(image)[0] <= 0:
            bad = f"D({label}) has a nonpositive-weight term"
            break
    report.add("positive-weight-stable", not bad, (("p", p), ("q", q)), bad)
    return report


# ---------------------------------------------------------------------------
# gluing data of the chart surface


GLUE_VARS = ("z", "zi", "u", "v")


@lru_cache(maxsize=None)
def localized_ring() -> PresentedRing:
    z, zi = (Polynomial.variable(nm, GLUE_VARS) for nm in ("z", "zi"))
    return PresentedRing(GLUE_VARS, [z * zi - Polynomial.one(GLUE_VARS)])


def _glue_substitution(n: int, sign: int) -> dict:
    """Pullback along the chart transition (z,(u,v)) -> (1/z, (±z^{n+1}v^n + z^{n+2}u, zv))."""
    ring = localized_ring()
    z, zi, u, v = ring.gens()
    return {"z": zi, "zi": z,
            "u": z ** (n + 2) * u + sign * z ** (n + 1) * v ** n,
            "v": z * v}


def star_left(s, t, x, y, n: int):
    return (s * t ** n * y ** n + t ** (n + 2) * x, t * y)


def star_right(x, y, s, t, n: int):
    return (t ** n * (x + y ** (n + 2) * s), t * y)


def borel_product(a, b, c, d):
    return (a + b ** 2 * c, b * d)


def gluing_checks(n: int) -> Report:
    """Symbolic verification of the chart-gluing data for one n."""
    if n < 1:
        raise InputError("gluing checks need n >= 1")
    report = Report("gluing", (("n", n),))
    ring = localized_ring()
    forward = _glue_substitution(n, +1)
    backward = _glue_substitution(n, -1)

    for name in ("z", "u", "v"):
        f = ring.var(name)
        round_trip = ring.normal_form(f.substitute(backward).substitute(forward))
        ok = (round_trip - f).is_zero()
        report.add("transition-inverse", ok, (("n", n), ("coord", name)),
                   "" if ok else str(round_trip - f))
        g = ring.normal_form(f.substitute(forward).substitute(backward))
        ok = (g - f).is_zero()
        report.add("transition-inverse-rev", ok, (("n", n), ("coord", name)),
                   "" if ok else str(g - f))

    free_vars = ("s", "t", "x", "y", "a", "b")
    s, t, x, y, a, b = (Polynomial.variable(nm, free_vars) for nm in free_vars)
    inner = star_right(x, y, a, b, n)
    lhs = star_left(s, t, inner[0], inner[1], n)
    inner2 = star_left(s, t, x, y, n)
    rhs = star_right(inner2[0], inner2[1], a, b, n)
    ok = all((l - r).is_zero() for l, r in zip(lhs, rhs))
    report.add("actions-commute", ok, (("n", n),))

    prod1 = borel_product(*borel_product(s, t, x, y), a, b)
    prod2 = borel_product(s, t, *borel_product(x, y, a, b))
    assoc = all((l - r).is_zero() for l, r in zip(prod1, prod2))
    zero = Polynomial.zero(free_vars)
    one = Polynomial.one(free_vars)
    unit = borel_product(zero, one, x, y)
    unital = (unit[0] - x).is_zero() and (unit[1] - y).is_zero()
    report.add("borel-law", assoc and unital, (("n", n),))

    z, zi, u, v = ring.gens()
    functions = []
    for i in range(2):
        functions.append((f"f{i}", z ** (1 - i) * v, z ** i * v))
    for i in range(n + 2):
        functions.append((f"g{i}",
                          z ** (n + 2 - i) * u + z ** (n + 1 - i) * v ** n,
                          z ** i * u))
    functions.append(("h", u, z ** (n + 2) * u - z ** (n + 1) * v ** n))
    for name, on_q0, on_q1 in functions:
        pulled = ring.normal_form(on_q1.substitute(forward))
        diff = ring.normal_form(on_q0 - pulled)
        report.add("chart-agreement", diff.is_zero(), (("n", n), ("fn", name)),
                   "" if diff.is_zero() else str(diff))
    return report


# ---------------------------------------------------------------------------
# cross-family comparisons


def verify_cross_family(nu_max: int = 3, bounds=as_is) -> Report:
    """P(1,1) graded ideals against the n = 0 pattern, plus the dominance
    instance: the first family member sitting inside O(P(2,1)).

    Level nu of P(1,1) is cut at ``bounds(family2_truncation(1, 1, nu))``
    and the P(2,1) level-1 search at ``bounds(family2_truncation(2, 1, 1))``.
    A computed m_1 is only a lower bound, so a dominating level other than
    1, or a generator missed within the search, is indeterminate rather
    than a failure.
    """
    report = Report("cross-family", (("nu_max", nu_max),))
    sequence = family2_sequence(1, 1, nu_max, bounds)
    for nu in range(1, nu_max + 1):
        _add_graded_check(report, "p0-graded-ideal", sequence[nu],
                          base_power_ideal(2 * nu), (("nu", nu),),
                          sequence.truncations[nu], f"m_{nu}(P(1,1)) vs <x,y>^{2 * nu}")

    probe = bounds(family2_truncation(2, 1, 1))
    sub = family2_subalgebra(2, 1, probe.degree)
    m1 = compute_m_nu(sub, 1, probe)
    found = None
    for n in range(1, 7):
        if m1.contains_ideal(base_power_ideal(n + 2)):
            found = n
            break
    verdict = True if found == 1 else Undecided("LowerBound", probe.as_params())
    report.add("dominating-level", verdict, probe.as_params(),
               f"least n with <x,y>^(n+2) inside m_1: {found}")
    if found is not None:
        for name, image in sorted(family1_psi(found).items()):
            report.add("generator-membership", subalgebra_contains(sub, image, probe),
                       (("gen", name),) + probe.as_params())
    return report


# ---------------------------------------------------------------------------
# sequence axioms


def sequence_axioms_checks(n: int, nu_max: int, bounds=as_is) -> Report:
    """The sequence axioms of O(SL2) at its fixed bounds and, for n >= 1,
    of family one with every level at ``bounds(family1_truncation(n, nu_max))``."""
    report = Report("sequence-axioms", (("nu_max", nu_max),))
    report.extend(verify_sequence_axioms(sl2_sequence(nu_max)))
    if n >= 1:
        top = bounds(family1_truncation(n, nu_max))
        report.extend(verify_sequence_axioms(
            IdealSequence.compute(family1_subalgebra(n), [top] * (nu_max + 1))))
    return report
