"""Bidegree-descent rewriting into the chart algebra of the first family.

The chart algebra is generated, inside Q[t,v,u], by
    v, vt, u, ut, ..., ut^(n+1), ut^(n+2) - v^n t^(n+1).
Membership is decided constructively: strip the terms of maximal bidegree
(u-degree, v-degree, lexicographic) by subtracting an explicit generator
word, and recurse on the strictly smaller remainder.  A term c t^i v^j u^k
is strippable exactly when i <= j + (n+2)k; a violating term is a
certificate of non-membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .groebner import InputError
from .poly import BIDEG_BOTTOM, Coefficient, Polynomial, bidegree
from .report import FAIL, PASS, Member, NotMember, Undecided, status_of

CHART_VARS = ("t", "v", "u")

# The boundary exponent i - j = (n+2)k falls outside the stated q <= k-1
# range; it is handled by the pure power of the last generator, whose
# expansion has the same top term.  Reports carry this note verbatim.
BOUNDARY_NOTE = ("boundary case i-j=(n+2)k handled by the pure power of the "
                 "last generator (extension of the stated q-range)")


def generator_names(n: int) -> tuple:
    return tuple(f"G{i}" for i in range(n + 5))


@lru_cache(maxsize=None)
def chart_generators(n: int) -> MappingProxyType:
    """Read-only name -> polynomial map of the n+5 chart-algebra generators."""
    if n < 1:
        raise InputError("chart generators need n >= 1")
    t, v, u = (Polynomial.variable(nm, CHART_VARS) for nm in CHART_VARS)
    gens = {"G0": v, "G1": t * v}
    for r in range(n + 2):
        gens[f"G{2 + r}"] = u * t ** r
    gens[f"G{n + 4}"] = u * t ** (n + 2) - v ** n * t ** (n + 1)
    return MappingProxyType(gens)


def expand_expression(expression: Polynomial, n: int) -> Polynomial:
    """Evaluate a generator-word polynomial back in Q[t,v,u]."""
    return expression.substitute(chart_generators(n))


@dataclass(frozen=True)
class RewriteStep:
    bidegree: tuple
    stripped: str      # the maximal-bidegree term group
    word: Polynomial   # expression in the generator variables


@dataclass
class RewriteTrace:
    input: Polynomial
    n: int
    steps: list = field(default_factory=list)
    result: object = None
    note: str = BOUNDARY_NOTE

    def lines(self) -> list:
        out = [f"input\t{self.input}\tn={self.n}"]
        for s in self.steps:
            out.append(f"step\tbideg={s.bidegree}\tstrip={s.stripped}\tword={s.word}")
        tag = {PASS: "member", FAIL: "not-member"}.get(status_of(self.result), "status")
        out.append(f"{tag}\t{self.result}")
        return out


def _term_str(coeff: Coefficient, exps: tuple) -> str:
    mono = Polynomial(CHART_VARS, {exps: coeff})
    return str(mono)


def reduce_step(f: Polynomial, n: int):
    """One descent step: (word, remainder, stripped) or NotMember.

    The word is a polynomial in the generator variables whose expansion
    cancels every maximal-bidegree term of f, so the remainder has strictly
    smaller bidegree.  A NotMember carries the first term violating the
    regularity inequality i <= j + (n+2)k, with its exponents (i, j, k).
    """
    if f.is_zero():
        raise InputError("reduce_step needs a nonzero polynomial")
    if f.variables != CHART_VARS:
        f = f.restrict(CHART_VARS)
    top = bidegree(f)
    k, j = top
    it = f.variables.index("t")
    names = generator_names(n)
    last = n + 4  # index of the generator u t^(n+2) - v^n t^(n+1)

    group = []
    for exps, coeff in f.terms.items():
        eu = exps[f.variables.index("u")]
        ev = exps[f.variables.index("v")]
        if (eu, ev) == (k, j):
            group.append((exps[it], coeff, exps))
    for i, coeff, exps in sorted(group):
        if i > j + (n + 2) * k:
            return NotMember(_term_str(coeff, exps), (i, j, k))
    stripped = []
    terms: dict = {}  # exponents over names -> coefficient
    for i, coeff, exps in sorted(group):
        stripped.append(_term_str(coeff, exps))
        part = [0] * len(names)  # exponents of G0..G(n+4)
        if i <= j:
            part[0], part[1], part[2] = j - i, i, k
        else:
            q, r = divmod(i - j, n + 2)
            part[1] = j
            if q <= k - 1:
                part[2 + r] += 1
                part[last] += q
                part[2] += k - q - 1
            else:
                # q == k forces r == 0 under the regularity inequality
                part[last] = k
        part = tuple(part)
        terms[part] = terms.get(part, 0) + coeff
    word = Polynomial(names, terms)
    remainder = f - expand_expression(word, n)
    return (word, remainder, " + ".join(stripped))


def rewrite_membership(f: Polynomial, n: int, max_steps: int = 10000) -> RewriteTrace:
    """Iterate reduce_step to an explicit generator expression or a refusal."""
    if n < 1:
        raise InputError("rewriting needs n >= 1")
    if not set(f.used_variables()) <= set(CHART_VARS):
        raise InputError("rewriting lives in Q[t,v,u]")
    if f.variables != CHART_VARS:
        f = f.restrict(CHART_VARS)
    trace = RewriteTrace(f, n)
    names = generator_names(n)
    expression = Polynomial.zero(names)
    current = f
    last = None
    steps = 0
    while not current.is_zero():
        if steps >= max_steps:
            trace.result = Undecided("StepLimit", (("max_steps", max_steps),))
            return trace
        top = bidegree(current)
        if last is not None and not (top < last):
            raise AssertionError("bidegree did not strictly decrease")
        last = top
        outcome = reduce_step(current, n)
        if isinstance(outcome, NotMember):
            trace.result = outcome
            return trace
        word, remainder, stripped = outcome
        trace.steps.append(RewriteStep(top, stripped, word))
        expression = expression + word
        current = remainder
        steps += 1
    residual = f - expand_expression(expression, n)
    if not residual.is_zero():
        raise AssertionError("member expression does not re-expand to the input")
    trace.result = Member(expression, str(expression))
    return trace
