"""The workload process: imports gaext, then times passes of CLI calls.

run.py starts this file in a fresh interpreter and sends a JSON job on
stdin: {"root", "argvs", "seconds", "trace"}.  Every call goes through
`gaext.cli.main(argv)`, the function behind the `gaext` command, with its
output captured.  With no argvs the process only measures set-up.  The
result, one JSON object, is the only thing written to the real stdout.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time


def setup(root: Path) -> float:
    """Import gaext and fill its lru_caches, as every CLI call does once."""
    start = perf_counter()
    import gaext.blowup  # noqa: F401  (imported lazily by `verify section7`)
    import gaext.cli  # noqa: F401
    from gaext import sl2
    sl2.sl2_ring().relation_ideal
    sl2.sl2_derivation()
    sl2.localized_ring().relation_ideal
    elapsed = perf_counter() - start
    source = Path(gaext.cli.__file__).resolve()
    if not source.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"gaext imported from {source}, not from {root}/src")
    return elapsed


def call(argv: list):
    """One CLI call: (exit code, stdout, stderr, wall s, cpu s)."""
    import gaext.cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        wall, cpu = perf_counter(), process_time()
        try:
            code = gaext.cli.main(list(argv))
        except Exception as exc:  # a crash is a failed query, not a dead run
            code = f"{type(exc).__name__}: {exc}"
            err.write(traceback.format_exc())
        wall, cpu = perf_counter() - wall, process_time() - cpu
    return code, out.getvalue(), err.getvalue(), wall, cpu


def schedule(trace: bool):
    """Pass kinds in order: the minimum first, then the repeating tail."""
    if trace:
        # one untraced pass to compare against, two traced passes whose
        # counts must agree, then alternate
        return ["plain", "traced", "traced"], ["plain", "traced"]
    return ["plain"] * 3, ["plain"]


def run(job: dict) -> dict:
    root = Path(job["root"])
    result = {"setup_s": setup(root)}
    argvs = job["argvs"]
    if not argvs:
        return result
    from spans import Tracer

    first: list = []             # (code, stdout, stderr) of each query's first call
    diverged = [0] * len(argvs)  # later calls whose output differs from the first
    passes, latencies, traces, missing = [], [], [], []
    minimum, tail = schedule(bool(job["trace"]))
    durations: dict = {}
    start = perf_counter()
    while True:
        done = len(passes)
        if done < len(minimum):
            kind = minimum[done]
        else:
            kind = tail[(done - len(minimum)) % len(tail)]
            expected = statistics.median(durations[kind])
            if perf_counter() - start + expected > job["seconds"]:
                break
        tracer = Tracer() if kind == "traced" else None
        if tracer:
            tracer.install()
        began = perf_counter()
        wall = cpu = 0.0
        try:
            for i, argv in enumerate(argvs):
                code, out, err, dw, dc = call(argv)
                wall += dw
                cpu += dc
                if kind == "plain":
                    latencies.append(dw * 1000)
                if len(first) <= i:
                    first.append((code, out, err))
                elif first[i] != (code, out, err):
                    diverged[i] += 1
        finally:
            if tracer:
                tracer.uninstall()
        durations.setdefault(kind, []).append(perf_counter() - began)
        passes.append({"kind": kind, "wall_s": wall, "cpu_s": cpu})
        if tracer:
            traces.append({"counts": tracer.counts(), "times": tracer.times()})
            missing = tracer.missing
    result.update(
        passes=passes, latencies_ms=latencies, traces=traces,
        missing_spans=missing, first=first, diverged=diverged,
        calls=len(passes) * len(argvs),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


if __name__ == "__main__":
    job = json.load(sys.stdin)
    json.dump(run(job), sys.stdout)
