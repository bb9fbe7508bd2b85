"""Workload definitions: the argv strings each workload sends to `gaext`.

A workload is a list of queries.  One pass over the list is one timed
iteration.  Each query carries the argv the program receives and what the
benchmark expects back.  This module never imports gaext: the expected
verdicts of `chart-queries` come from how the generator built each
polynomial, not from the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Verify workloads run fixed parameter points from the ROADMAP baseline
# table; the seed does not change them.
VERIFY = {
    "family1-graded": ("verify", "family1", "--n", "1", "--nu-max", "3"),
    "family2-weighted": ("verify", "family2", "--p", "3", "--q", "2", "--nu-max", "3"),
    "sequence-axioms": ("verify", "sequence-axioms", "--nu-max", "2", "--n", "1"),
}

# The small suites that `chart-queries` mixes in, with their golden files.
SMALL_SUITES = {
    "gluing-n1": ("verify", "gluing", "--n", "1"),
    "gluing-n2": ("verify", "gluing", "--n", "2"),
    "gluing-n3": ("verify", "gluing", "--n", "3"),
    "section7": ("verify", "section7"),
    "smoothext": ("verify", "smoothext"),
}

WORKLOADS = tuple(VERIFY) + ("chart-queries",)

CHART_QUERIES = 300       # queries in one pass of chart-queries
SUITE_SHARE = 0.1         # share of the stream that is a small suite
MEMBER_SHARE = 0.5        # share of the membership queries that are members


@dataclass(frozen=True)
class Query:
    """One CLI call and its expected outcome.

    kind is "golden" (exit 0 and a report equal to golden/<name>.txt),
    "member" (exit 0; the printed expression re-expands to polynomial) or
    "nonmember" (exit 1; the witness is the added term).
    """

    argv: tuple
    kind: str
    name: str = ""
    n: int = 0
    polynomial: str = ""
    added_term: str = ""


def chart_generators(n: int) -> list:
    """Chart-algebra generators G0..G(n+4) as {(t, v, u) exponents: coeff}."""
    gens = [{(0, 1, 0): 1}, {(1, 1, 0): 1}]
    gens += [{(r, 0, 1): 1} for r in range(n + 2)]
    gens.append({(n + 2, 0, 1): 1, (n + 1, n, 0): -1})
    return gens


def _mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _add(f: dict, g: dict, scale: int) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def format_polynomial(terms: dict) -> str:
    """Render {(t, v, u) exponents: int} in the CLI's input syntax."""
    parts = []
    for exps in sorted(terms, reverse=True):
        c = terms[exps]
        factors = [name if k == 1 else f"{name}^{k}"
                   for name, k in zip("tvu", exps) if k]
        body = "*".join(factors)
        mag = abs(c)
        if not body:
            text = str(mag)
        else:
            text = body if mag == 1 else f"{mag}*{body}"
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts)


def _coefficient(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def _membership_query(rng: random.Random) -> Query:
    n = rng.randint(1, 3)
    gens = chart_generators(n)
    terms: dict = {}
    while not terms:
        for _ in range(rng.randint(1, 4)):
            word = {(0, 0, 0): 1}
            for _ in range(rng.randint(1, 3)):
                word = _mul(word, rng.choice(gens))
            terms = _add(terms, word, _coefficient(rng))
    added = ""
    if rng.random() >= MEMBER_SHARE:
        # Every term of a generator word has positive u- or v-degree, so a
        # pure power of t is never cancelled and never in the algebra.
        extra = {(rng.randint(1, 4), 0, 0): _coefficient(rng)}
        terms = _add(terms, extra, 1)
        added = format_polynomial(extra)
    text = format_polynomial(terms)
    # "--" keeps a leading minus sign from reading as an option
    return Query(("membership", "--n", str(n), "--", text),
                 "nonmember" if added else "member",
                 n=n, polynomial=text, added_term=added)


def queries(workload: str, seed: int) -> list:
    """The queries of one pass of a workload."""
    if workload in VERIFY:
        return [Query(VERIFY[workload], "golden", name=workload)]
    if workload != "chart-queries":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    out = []
    for _ in range(CHART_QUERIES):
        if rng.random() < SUITE_SHARE:
            name = rng.choice(sorted(SMALL_SUITES))
            out.append(Query(SMALL_SUITES[name], "golden", name=name))
        else:
            out.append(_membership_query(rng))
    return out
