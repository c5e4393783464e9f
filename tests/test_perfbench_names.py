"""Every name that the benchmark's tracer wraps must still exist and still
record its spans and counters.

perfbench/spans.py patches pauliflow functions and counters by name. A name
the program no longer has is left out of the traced result, and the
benchmark's output then lacks per-layer metrics that BENCHMARK.json declares.
So does a hook that cannot read a changed return value, or a call that no
longer goes through the wrapped name. These tests install the tracer and
fail on any absent name, on a small training, save, load and sample, or a
compare with a greedy and the exact coloring, that records no span or
disables a hook, and on a sample of several rollout blocks
that records other than one rollout span of every row's steps. The
workload's output checks read a train() sampler's attributes by name too, and
fail on any that is missing or changes its type.
"""
import importlib.util
from pathlib import Path

import numpy as np

from pauliflow import cli, gflownet
from pauliflow.hamio import bundled_path, loads_hamiltonian

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
    assert {"gflownet.rollout", "gflownet.loss", "gflownet.sample", "nn.checkpoint_load",
            "graphs.greedy"} <= recorded
    assert tracer.counts["gflownet.rollout_steps"] > 0 and tracer.counts["nn.checkpoint_bytes"] > 0
    extra = {"gflownet.distinct_groupings": 1, "gflownet.distinct_per_trajectory": 1}
    assert set(tracer.layer_metrics(1, extra)) == set(spans.LAYER_METRICS)


def test_traced_compare_records_the_colorings(tmp_path):
    """An in-process compare colors through the names the tracer wraps, so
    its greedy and exact methods each record their span."""
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        argv = ["compare", "--input", str(bundled_path("h2_sto3g_1A_jw.ham")), "--mode", "fc",
                "--methods", "greedy-lf,exact", "--deterministic", "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.broken_hooks == set()
    assert {"cli", "graphs.greedy", "graphs.exact"} <= {s[0] for s in tracer.spans}


def test_traced_sample_of_several_blocks_is_one_rollout(monkeypatch):
    """A sample() call that rolls out more rows than one block still records
    one rollout span, whose step count covers every row."""
    spans = load_spans()
    monkeypatch.setattr(gflownet, "ROLLOUT_BLOCK_ROWS", 4)
    h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n")
    config = gflownet.TrainConfig(iterations=1, trajectories_per_iteration=3, hidden_sizes=(8,))
    sampler = gflownet.train(h, config)
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        assert len(sampler.sample(11)) == 11
    finally:
        tracer.uninstall()
    assert tracer.broken_hooks == set()
    assert [s[0] for s in tracer.spans].count("gflownet.rollout") == 1
    assert tracer.counts["gflownet.rollout_steps"] == 11 * h.n_terms


def test_train_sampler_has_what_the_train_check_reads():
    """perfbench/workload.py's train operation hands its checks mdp.color_cap,
    and the assignment, m_est and color_count of best and of every value
    of discovered."""
    h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n")
    config = gflownet.TrainConfig(iterations=2, trajectories_per_iteration=3, hidden_sizes=(8,))
    sampler = gflownet.train(h, config)
    assert isinstance(sampler.mdp.color_cap, int)
    assert sampler.discovered and isinstance(sampler.discovered, dict)
    for found in [sampler.best, *sampler.discovered.values()]:
        assignment = found.assignment.copy()
        assert assignment.shape == (h.n_terms,) and assignment.dtype == np.int64
        assert isinstance(found.m_est, float) and isinstance(found.color_count, int)
        assert found.color_count == assignment.max() <= sampler.mdp.color_cap
