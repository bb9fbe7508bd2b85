"""Command-line front end: verification suites and membership queries."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import lru_cache

from .filtered import TruncationParams
from .groebner import InputError
from .poly import StructuralError, parse
from .report import FAIL, INDETERMINATE_STATUS, PASS, Report, status_of
from .rewrite import CHART_VARS, rewrite_membership
from .trivial import verify_smoothext

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3
EXIT_CODES = {PASS: EXIT_PASS, FAIL: EXIT_FAIL, INDETERMINATE_STATUS: EXIT_INDETERMINATE}

SUITES = ("family1", "family2", "smoothext", "section7", "gluing",
          "sequence-axioms", "cross-family")


def _trunc_scale() -> float:
    raw = os.environ.get("LND_TRUNC_SCALE")
    if not raw:
        return 1.0
    try:
        value = float(raw)
    except ValueError as exc:
        raise StructuralError(f"bad LND_TRUNC_SCALE value {raw!r}") from exc
    if not (value > 0 and math.isfinite(value)):
        raise StructuralError("LND_TRUNC_SCALE must be positive and finite")
    return value


def _bounds(args):
    """The bounds every suite applies to its own default truncations.

    A flag replaces its field and the other keeps its default; with
    neither flag, LND_TRUNC_SCALE scales both.  A scale too large for a
    bound to stay finite is an input error.
    """
    flags = {field: value for field, value in (("word_length", args.trunc_len),
                                               ("degree", args.trunc_deg))
             if value is not None}

    def bounds(truncation: TruncationParams) -> TruncationParams:
        scale = _trunc_scale()  # a bad scale is an error even under flags
        if flags:
            return replace(truncation, **flags)
        try:
            return truncation.scaled(scale)
        except OverflowError as exc:
            raise StructuralError(f"LND_TRUNC_SCALE {scale} overflows a bound") from exc
    return bounds


def run_suite(args) -> Report:
    from . import sl2
    from .blowup import verify_section7_cases

    name = args.suite
    bounds = _bounds(args)
    if name == "family1":
        if args.n < 1:
            raise UsageError("family1 needs --n >= 1 (n = 0 is family2 with p = q = 1)")
        return sl2.verify_family1(args.n, args.nu_max, bounds)
    if name == "family2":
        return sl2.verify_family2(args.p, args.q, args.nu_max, bounds)
    if name == "smoothext":
        return verify_smoothext()
    if name == "section7":
        return verify_section7_cases()
    if name == "gluing":
        if args.n < 1:
            raise UsageError("gluing needs --n >= 1")
        return sl2.gluing_checks(args.n)
    if name == "sequence-axioms":
        return sl2.sequence_axioms_checks(args.n, args.nu_max, bounds)
    if name == "cross-family":
        return sl2.verify_cross_family(args.nu_max, bounds)
    raise UsageError(f"unknown suite {name!r}")


class UsageError(Exception):
    pass


def _check_ranges(args):
    """Reject an out-of-range flag whether or not the command reads it."""
    if args.command == "membership":
        limits = (("--max-steps", args.max_steps, 0),)
    else:
        limits = (("--nu-max", args.nu_max, 0), ("--n", args.n, 0),
                  ("--p", args.p, 1), ("--q", args.q, 1),
                  ("--trunc-len", args.trunc_len, 0),
                  ("--trunc-deg", args.trunc_deg, 0))
    for flag, value, least in limits:
        if value is not None and value < least:
            raise UsageError(f"{flag} must be >= {least}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaext",
        description="Exact verification of bundle-extension identities")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--n", type=int, default=1)
    verify.add_argument("--p", type=int, default=1)
    verify.add_argument("--q", type=int, default=1)
    verify.add_argument("--nu-max", type=int, default=2)
    verify.add_argument("--trunc-len", type=int, default=None)
    verify.add_argument("--trunc-deg", type=int, default=None)
    verify.add_argument("--format", choices=("text", "structured"),
                        default="text")

    member = sub.add_parser("membership",
                            help="rewrite a polynomial in t, v, u into chart generators")
    member.add_argument("polynomial")
    member.add_argument("--n", type=int, default=1)
    member.add_argument("--max-steps", type=int, default=10000)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        _check_ranges(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "membership":
        try:
            poly = parse(args.polynomial, CHART_VARS)
        except StructuralError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.n < 1:
            print("membership needs --n >= 1", file=sys.stderr)
            return EXIT_USAGE
        trace = rewrite_membership(poly, args.n, args.max_steps)
        for line in trace.lines():
            print(line)
        print(f"note\t{trace.note}")
        return EXIT_CODES[status_of(trace.result)]

    try:
        report = run_suite(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StructuralError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "structured":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.text())
    return EXIT_CODES[report.overall]


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
