"""The benchmark's span tracer still finds every function it times."""

import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_finds_every_span():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # a renamed function would leave its per-layer metrics at 0
        assert tracer.missing == []
    finally:
        tracer.uninstall()
