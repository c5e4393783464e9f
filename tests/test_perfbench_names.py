"""Every name that the benchmark's tracer wraps must still exist and still
record its spans and counters.

perfbench/spans.py patches pauliflow functions and counters by name. A name
the program no longer has is left out of the traced result, and the
benchmark's output then lacks per-layer metrics that BENCHMARK.json declares.
So does a hook that cannot read a changed return value, or a call that no
longer goes through the wrapped name. These tests install the tracer and
fail on any absent name, and on a small training, save, load and sample that
records no span or disables a hook.
"""
import importlib.util
from pathlib import Path

from pauliflow import gflownet
from pauliflow.hamio import loads_hamiltonian

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


def test_traced_run_records_every_layer(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n")
        config = gflownet.TrainConfig(iterations=2, trajectories_per_iteration=3, hidden_sizes=(8,))
        gflownet.train(h, config).save(tmp_path / "c.npz")
        gflownet.TrainedSampler.load(tmp_path / "c.npz").sample(4)
    finally:
        tracer.uninstall()
    assert tracer.broken_hooks == set()
    recorded = {s[0] for s in tracer.spans}
    assert {"gflownet.rollout", "gflownet.loss", "gflownet.sample", "nn.checkpoint_load"} <= recorded
    assert tracer.counts["gflownet.rollout_steps"] > 0 and tracer.counts["nn.checkpoint_bytes"] > 0
    extra = {"gflownet.distinct_groupings": 1, "gflownet.distinct_per_trajectory": 1}
    assert set(tracer.layer_metrics(1, extra)) == set(spans.LAYER_METRICS)
