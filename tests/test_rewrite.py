"""Bidegree-descent rewriting: members, refusals, trace invariants."""

import random

import pytest

from gaext.groebner import InputError
from gaext.poly import Polynomial, bidegree, parse
from gaext.report import Member, NotMember
from gaext.rewrite import (CHART_VARS, chart_generators, expand_expression,
                           generator_names, reduce_step, rewrite_membership)

TVU = CHART_VARS


def _random_member(n, rng, factors=3):
    """A product of random chart generators times a random chart polynomial."""
    gens = list(chart_generators(n).values())
    f = Polynomial.one(TVU)
    for _ in range(rng.randint(1, factors)):
        f = f * rng.choice(gens)
    return f * rng.randint(1, 4)


def test_generator_inventory():
    assert generator_names(1) == ("G0", "G1", "G2", "G3", "G4", "G5")
    gens = chart_generators(1)
    assert gens["G0"] == parse("v", TVU)
    assert gens["G1"] == parse("t*v", TVU)
    assert gens["G2"] == parse("u", TVU)
    assert gens["G4"] == parse("u*t^2", TVU)
    assert gens["G5"] == parse("u*t^3 - v*t^2", TVU)
    with pytest.raises(InputError):
        chart_generators(0)


def test_each_generator_is_member():
    for n in (1, 2):
        for name, g in chart_generators(n).items():
            trace = rewrite_membership(g, n)
            assert isinstance(trace.result, Member), name


def test_reduce_step_regularity_violation():
    # t^5*u with n=1: i=5 > j + (n+2)k = 3
    outcome = reduce_step(parse("t^5*u", TVU), 1)
    assert isinstance(outcome, NotMember)
    assert outcome.exponents == (5, 0, 1)
    assert outcome.witness == "t^5*u"


def test_boundary_case_pure_power():
    # i - j = (n+2)k exactly: t^3*u for n=1 equals G5 + v*t^2 with
    # v*t^2 itself violating, so the remainder drives a NotMember...
    # unless the v*t^2 part is also a member: v*t^2 = G1*t? no, it is
    # regular (i=2 <= j + 0? j=1, no: 2 > 1). So t^3*u is not a member.
    trace = rewrite_membership(parse("u*t^3", TVU), 1)
    assert isinstance(trace.result, NotMember)
    # but u*t^3 - v*t^2 is exactly G5
    trace = rewrite_membership(parse("u*t^3 - v*t^2", TVU), 1)
    assert isinstance(trace.result, Member)


def test_u2t6_not_member():
    trace = rewrite_membership(parse("u^2*t^6", TVU), 1)
    assert isinstance(trace.result, NotMember)


def test_random_members_roundtrip():
    rng = random.Random(101)
    for n in (1, 2):
        for _ in range(40):
            f = _random_member(n, rng)
            trace = rewrite_membership(f, n)
            assert isinstance(trace.result, Member)
            assert expand_expression(trace.result.certificate, n) == f


def test_random_violations_rejected():
    rng = random.Random(103)
    for n in (1, 2):
        for _ in range(25):
            f = _random_member(n, rng)
            j = rng.randint(0, 2)
            k = rng.randint(0, 2)
            i = j + (n + 2) * k + rng.randint(1, 3)
            bad = Polynomial(TVU, {(i, j, k): 1})
            trace = rewrite_membership(f + bad, n)
            assert isinstance(trace.result, NotMember)


def test_trace_bidegrees_strictly_decrease():
    rng = random.Random(107)
    f = sum((_random_member(1, rng) for _ in range(4)), Polynomial.zero(TVU))
    trace = rewrite_membership(f, 1)
    assert isinstance(trace.result, Member)
    bidegs = [s.bidegree for s in trace.steps]
    assert bidegs == sorted(bidegs, reverse=True)
    assert len(set(bidegs)) == len(bidegs)


def test_trace_lines_are_renderable():
    trace = rewrite_membership(parse("u*v + v^2", TVU), 1)
    lines = trace.lines()
    assert lines[0].startswith("input\t")
    assert lines[-1].startswith("member\t")


def test_input_validation():
    with pytest.raises(InputError):
        rewrite_membership(parse("t", TVU), 0)
    with pytest.raises(InputError):
        rewrite_membership(parse("x", ("x", "t", "v", "u")), 1)
    with pytest.raises(InputError):
        reduce_step(Polynomial.zero(TVU), 1)
