"""Span tracing of gaext's public functions from outside the package.

`Tracer.install()` wraps each function in SPANS at every place it is
bound: the module that defines it, every gaext module that imported it
with `from .x import f`, and every alias on its class (`__rmul__` is
`__mul__`).  `uninstall()` puts every original back.  Spans are aggregated
in memory: calls, total time (outermost call of a span only, so recursion
is not counted twice) and self time (duration minus the time of child
spans).  Size counters are read off arguments and return values.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

# metric prefix -> (module, attribute path) of the function to wrap
SPANS = {
    "poly.mul": ("poly", "Polynomial.__mul__"),
    "poly.substitute": ("poly", "Polynomial.substitute"),
    "groebner.reduce_poly": ("groebner", "reduce_poly"),
    "groebner.buchberger": ("groebner", "buchberger"),
    "groebner.normal_form": ("groebner", "PresentedRing.normal_form"),
    "groebner.ideal_mul": ("groebner", "Ideal.__mul__"),
    "groebner.ideal_contains": ("groebner", "Ideal.__contains__"),
    "groebner.contains_ideal": ("groebner", "Ideal.contains_ideal"),
    "groebner.equals": ("groebner", "Ideal.equals"),
    "groebner.is_unit": ("groebner", "Ideal.is_unit"),
    "linalg.insert": ("linalg", "Echelon.insert"),
    "linalg.reduce": ("linalg", "Echelon.reduce"),
    "derivation.apply": ("derivation", "Derivation.__call__"),
    "filtered.truncated_span": ("filtered", "truncated_span"),
    "filtered.compute_m_nu": ("filtered", "compute_m_nu"),
    "filtered.subalgebra_contains": ("filtered", "subalgebra_contains"),
    "filtered.verify_sequence_axioms": ("filtered", "verify_sequence_axioms"),
    "filtered.generated_in_degree_one": ("filtered", "generated_in_degree_one"),
    "sl2.verify_family1": ("sl2", "verify_family1"),
    "sl2.verify_family2": ("sl2", "verify_family2"),
    "sl2.gluing_checks": ("sl2", "gluing_checks"),
    "rewrite.rewrite_membership": ("rewrite", "rewrite_membership"),
    "blowup.verify_section7_cases": ("blowup", "verify_section7_cases"),
    "trivial.verify_smoothext": ("trivial", "verify_smoothext"),
    "report.text": ("report", "Report.text"),
    "cli.main": ("cli", "main"),
}

# size counters and ratios, summed over one pass; a ratio is sum / sum
COUNTERS = (
    "groebner.buchberger.input_gens",
    "groebner.buchberger.basis_gens",
    "groebner.buchberger.reductions",
    "groebner.buchberger.nonzero_ratio",
    "groebner.ideal_mul.out_gens",
    "groebner.ideal_mul.minimal_ratio",
    "linalg.insert.dependent_ratio",
    "filtered.truncated_span.size",
    "filtered.compute_m_nu.gens",
    "rewrite.steps",
)

# ratio -> (numerator, denominator) tallies
_RATIOS = {
    "groebner.buchberger.nonzero_ratio": ("bb_reduce_nonzero",
                                          "groebner.buchberger.reductions"),
    "groebner.ideal_mul.minimal_ratio": ("mul_minimal", "mul_monomial_gens"),
    "linalg.insert.dependent_ratio": ("insert_dependent", "insert"),
}


# spans whose arguments or results feed COUNTERS
_OBSERVED = {"groebner.buchberger", "groebner.reduce_poly", "groebner.ideal_mul",
             "linalg.insert", "filtered.truncated_span", "filtered.compute_m_nu",
             "rewrite.rewrite_membership"}


def _minimal_count(exponents) -> int:
    """Number of minimal elements of a set of exponent tuples."""
    distinct = sorted(set(exponents), key=sum)
    minimal = []
    for e in distinct:
        if not any(all(a <= b for a, b in zip(m, e)) for m in minimal):
            minimal.append(e)
    return len(minimal)


class Tracer:
    """Wraps SPANS while installed and tallies one pass of a workload."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.total = dict.fromkeys(SPANS, 0.0)
        self.self_time = dict.fromkeys(SPANS, 0.0)
        self.tally: dict = {}
        self._active = dict.fromkeys(SPANS, 0)
        self._stack: list = []     # child time accumulated per open span
        self._patched: list = []   # (owner, attribute, original, wrapper)
        self.missing: list = []    # spans whose function no longer exists

    def _count(self, key: str, amount: int = 1):
        self.tally[key] = self.tally.get(key, 0) + amount

    def _observe(self, name: str, args, result):
        if name == "groebner.buchberger":
            self._count("groebner.buchberger.input_gens", len(args[0]))
            self._count("groebner.buchberger.basis_gens", len(result))
        elif name == "groebner.reduce_poly" and self._active["groebner.buchberger"]:
            self._count("groebner.buchberger.reductions")
            self._count("bb_reduce_nonzero", int(not result.is_zero()))
        elif name == "groebner.ideal_mul":
            gens = result.generators
            self._count("groebner.ideal_mul.out_gens", len(gens))
            if all(len(g.terms) == 1 for g in gens):
                self._count("mul_monomial_gens", len(gens))
                self._count("mul_minimal",
                            _minimal_count(next(iter(g.terms)) for g in gens))
        elif name == "linalg.insert":
            self._count("insert")
            self._count("insert_dependent", int(result is not None))
        elif name == "filtered.truncated_span":
            self._count("filtered.truncated_span.size", len(result))
        elif name == "filtered.compute_m_nu":
            self._count("filtered.compute_m_nu.gens", len(result.generators))
        elif name == "rewrite.rewrite_membership":
            self._count("rewrite.steps", len(result.steps))

    def _wrap(self, name: str, fn):
        stack, active = self._stack, self._active
        calls, total, self_time = self.calls, self.total, self.self_time
        observe = self._observe if name in _OBSERVED else None

        def span(*args, **kwargs):
            stack.append(0.0)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                active[name] -= 1
                children = stack.pop()
                calls[name] += 1
                self_time[name] += elapsed - children
                if not active[name]:
                    total[name] += elapsed
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                # counting is not the caller's work: keep it out of self time
                start = perf_counter()
                observe(name, args, result)
                if stack:
                    stack[-1] += perf_counter() - start
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        """Wrap every binding site of every span; idempotent per tracer."""
        if self._patched:
            return
        for module_name, _ in SPANS.values():
            importlib.import_module(f"gaext.{module_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gaext" or n.startswith("gaext.")]
        owners = list(modules)
        for module in modules:
            owners.extend(v for v in vars(module).values()
                          if inspect.isclass(v) and v.__module__ == module.__name__)
        for name, (module_name, path) in SPANS.items():
            obj = sys.modules[f"gaext.{module_name}"]
            for part in path.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, obj)
            sites = [(owner, attr) for owner in owners
                     for attr, value in list(vars(owner).items()) if value is obj]
            for owner, attr in sites:
                self._patched.append((owner, attr, obj, wrapper))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every original and check that none was missed."""
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)
        wrappers = [w for *_, w in self._patched]
        for owner in {id(o): o for o, *_ in self._patched}.values():
            for attr, value in vars(owner).items():
                if any(value is w for w in wrappers):
                    raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
        self._patched = []

    def counts(self) -> dict:
        """Deterministic part of one pass: span calls and size counters."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        for name in COUNTERS:
            if name in _RATIOS:
                num, den = _RATIOS[name]
                den_value = self.tally.get(den, 0)
                out[name] = self.tally.get(num, 0) / den_value if den_value else 0.0
            else:
                out[name] = self.tally.get(name, 0)
        return out

    def times(self) -> dict:
        out = {}
        for name in SPANS:
            out[f"{name}.self_s"] = self.self_time[name]
            out[f"{name}.total_s"] = self.total[name]
        return out
