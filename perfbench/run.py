"""gaext benchmark: time `gaext` CLI calls end to end, or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in a fresh interpreter
(worker.py) importing gaext from src/, with LND_TRUNC_SCALE and
PYTHONDONTWRITEBYTECODE removed and PYTHONHASHSEED fixed.  With --trace 0
the result holds the end-to-end metrics of BENCHMARK.json; with --trace 1
it holds the per-layer metrics, from passes with spans.py's wrappers
installed.  Every call is checked:
verify reports against golden/, membership verdicts against the
generator, and member expressions re-expanded with sympy.  The last line
of stdout is the result; the line before it records the environment, the
raw samples and their quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, Query, queries

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 6        # fresh set-up-only processes per run, after one warm-up
WORKER_TIMEOUT_S = 150  # a run must end within 180 s


def environment() -> dict:
    """Interpreter, code identity, cores and load at the start of the run."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gaext").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or None
        except FileNotFoundError:  # no git installed
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LND_TRUNC_SCALE", None)  # silently rescales every default truncation
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users import from bytecode caches
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(job: dict) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
        capture_output=True, text=True, cwd=ROOT, env=worker_env(),
        timeout=WORKER_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with {done.returncode}")
    return json.loads(done.stdout)


# -- correctness ------------------------------------------------------------


def golden(name: str) -> str:
    return (HERE / "golden" / f"{name}.txt").read_text()


def matches_golden(code, out: str, err: str, expected: str) -> bool:
    return code == 0 and out == expected and not err


def _sympy_equal(expression: str, n: int, polynomial: str) -> bool:
    """Expand a generator expression with sympy and compare to polynomial."""
    import sympy
    t, v, u = sympy.symbols("t v u")
    gens = [v, t * v] + [u * t ** r for r in range(n + 2)]
    gens.append(u * t ** (n + 2) - v ** n * t ** (n + 1))
    names = {f"G{i}": g for i, g in enumerate(gens)}
    names.update(t=t, v=v, u=u)
    lhs = sympy.parse_expr(expression.replace("^", "**"), local_dict=names)
    rhs = sympy.parse_expr(polynomial.replace("^", "**"), local_dict=names)
    return sympy.expand(lhs - rhs) == 0


def verdict_ok(query: Query, code, out: str, err: str) -> bool:
    """Exit code and printed result agree with how the query was built."""
    if query.kind == "golden":
        return matches_golden(code, out, err, golden(query.name))
    results = [line.split("\t", 1) for line in out.splitlines()
               if line.startswith(("member\t", "not-member\t"))]
    if err or len(results) != 1:
        return False
    tag, text = results[0]
    if query.kind == "member":
        return (code == 0 and tag == "member"
                and _sympy_equal(text, query.n, query.polynomial))
    return (code == 1 and tag == "not-member"
            and _sympy_equal(text, query.n, query.added_term))


def self_check(plan: list, first: list):
    """The checkers must reject a mutated expected or printed string."""
    examples = {}
    for query, outcome in zip(plan, first):
        examples.setdefault(query.kind, (query, *outcome))
    for kind, (query, code, out, err) in examples.items():
        if kind == "golden":
            expected = golden(query.name)
            mid = len(expected) // 2
            mutated = expected[:mid] + ("x" if expected[mid] != "x" else "y") + expected[mid + 1:]
            if matches_golden(code, mutated, err, expected):
                raise SystemExit(f"golden comparator accepted a mutated {query.name} report")
            continue
        mutated = out.replace("member\t", "member\tG0 + ", 1)
        if verdict_ok(query, code, mutated, err):
            raise SystemExit("membership checker accepted a mutated expression")
        flipped = Query(query.argv, "nonmember" if kind == "member" else "member",
                        n=query.n, polynomial=query.polynomial,
                        added_term=query.added_term or query.polynomial)
        if verdict_ok(flipped, code, out, err):
            raise SystemExit("membership checker accepted a flipped verdict")


def count_failures(plan: list, result: dict) -> int:
    per_query = result["calls"] // len(plan)
    failed = 0
    for query, first, diverged in zip(plan, result["first"], result["diverged"]):
        failed += per_query if not verdict_ok(query, *first) else diverged
    return failed


# -- metrics ----------------------------------------------------------------


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(result: dict, setups: list) -> tuple:
    plain = [p for p in result["passes"] if p["kind"] == "plain"]
    walls = [p["wall_s"] for p in plain]
    cpus = [p["cpu_s"] for p in plain]
    latencies = result["latencies_ms"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": result["peak_rss_mb"],
        "queries_per_s": len(latencies) / sum(walls),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": statistics.quantiles(latencies, n=100, method="inclusive")[98],
    }
    samples = {"setup_s": setups, "wall_s": walls, "cpu_s": cpus}
    detail = {name: {"n": len(values), "quartiles": quartiles(values), "samples": values}
              for name, values in samples.items()}
    detail["latency_ms"] = {"n": len(latencies), "quartiles": quartiles(latencies),
                            "p99": metrics["latency_p99_ms"], "max": max(latencies)}
    return metrics, detail


def per_layer(result: dict) -> tuple:
    """Per-layer metrics, and whether counts repeated across traced passes."""
    traces = result["traces"]
    counts = traces[0]["counts"]
    repeat = all(t["counts"] == counts for t in traces[1:])
    metrics = dict(counts)
    for name in traces[0]["times"]:
        metrics[name] = statistics.median(t["times"][name] for t in traces)
    plain = [p["wall_s"] for p in result["passes"] if p["kind"] == "plain"]
    traced = [p["wall_s"] for p in result["passes"] if p["kind"] == "traced"]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    detail = {"plain_wall_s": plain, "traced_wall_s": traced,
              "traced_passes": len(traces), "counts_repeat": repeat,
              "missing_spans": result["missing_spans"]}
    return metrics, detail, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gaext" / "cli.py").is_file():
        print(f"no gaext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment()
    plan = queries(args.workload, args.seed)
    job = {"root": str(ROOT), "argvs": [list(q.argv) for q in plan],
           "seconds": args.seconds, "trace": args.trace}
    setups = []
    if not args.trace:
        # the first process writes bytecode caches; users run with them
        for probe in range(SETUP_PROBES + 1):
            setup_s = spawn({"root": str(ROOT), "argvs": []})["setup_s"]
            if probe:
                setups.append(setup_s)
    result = spawn(job)
    setups.append(result["setup_s"])

    self_check(plan, result["first"])
    failed = count_failures(plan, result)
    correct = failed == 0
    if args.trace:
        metrics, detail, repeat = per_layer(result)
        correct = correct and repeat
    else:
        metrics, detail = end_to_end(result, setups)
    attempted = result["calls"]
    detail.update(workload=args.workload, seed=args.seed, env=env,
                  fail_ratio=failed / attempted,
                  passes=len(result["passes"]), queries_per_pass=len(plan))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
