"""Every name that the benchmark's tracer wraps must still exist.

perfbench/spans.py patches pauliflow functions and counters by name. A name
the program no longer has is left out of the traced result, and the
benchmark's output then lacks per-layer metrics that BENCHMARK.json declares.
This test installs the tracer and fails on any absent name instead.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
