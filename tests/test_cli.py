import collections
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pauliflow
from pauliflow.cli import main
from pauliflow.gflownet import TrainConfig, TrainedSampler, train
from pauliflow.graphs import Coloring, build_complement_graph, validate_coloring
from pauliflow.hamio import bundled_path, load_hamiltonian
from pauliflow.nn import DenseNet, save_checkpoint

from oracles import one_norm

H2 = bundled_path("h2_sto3g_1A_jw.ham")
SYNTH = bundled_path("synthetic_10term.ham")
H4 = bundled_path("h4_chain_sto3g_1A_jw.ham")

FAST_GFN = ["--iterations", "3", "--traj-per-iter", "4"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), err


class TestGroup:
    def test_full_method_m_est(self, capsys):
        report, _ = run_report(
            capsys, "group", "--input", H2, "--mode", "fc", "--method", "full",
            "--epsilon", "1.6e-3", "--deterministic",
        )
        h = load_hamiltonian(H2)
        rec = report["methods"][0]
        assert rec["color_count"] == 14
        assert rec["m_est"] == pytest.approx(one_norm(h) ** 2 / 1.6e-3**2, rel=1e-12)
        assert report["n_p"] == 14
        assert report["system"] == "h2_sto3g_1A_jw"

    def test_greedy_lf_two_groups_on_h2_fc(self, capsys):
        report, _ = run_report(
            capsys, "group", "--input", H2, "--mode", "fc", "--method", "greedy-lf",
        )
        assert report["methods"][0]["color_count"] == 2

    def test_exact_on_synthetic(self, capsys):
        report, _ = run_report(
            capsys, "group", "--input", SYNTH, "--mode", "fc", "--method", "exact",
        )
        rec = report["methods"][0]
        h = load_hamiltonian(SYNTH)
        g = build_complement_graph(h, "fc")
        from pauliflow.graphs import exact_min_colors

        assert rec["color_count"] == exact_min_colors(g).max_color

    def test_gflownet_method_with_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "sampler.npz"
        log = tmp_path / "train.csv"
        report, _ = run_report(
            capsys, "group", "--input", H2, "--mode", "fc", "--method", "gflownet",
            "--seed", "3", *FAST_GFN, "--checkpoint", str(ckpt), "--train-log", str(log),
        )
        rec = report["methods"][0]
        assert rec["m_est"] > 0 and rec["color_count"] >= 2
        assert ckpt.exists()
        assert log.read_text().startswith("iteration,mean_loss")

    @pytest.mark.parametrize("mode", ["fc", "qwc"])
    def test_gflownet_default_flags_on_h4(self, capsys, mode):
        """The default color cap is tight on H4; rows that run out of colors
        take forced ones instead of dead-ending."""
        report, _ = run_report(
            capsys, "group", "--input", H4, "--mode", mode, "--method", "gflownet",
            "--iterations", "2",
        )
        rec = report["methods"][0]
        g = build_complement_graph(load_hamiltonian(H4), mode)
        assert validate_coloring(g, Coloring(np.array(rec["coloring"])))
        assert rec["color_count"] > rec["color_cap"]

    def test_embedded_colorings_validate(self, capsys):
        for method in ("full", "greedy-lf", "greedy-dsat", "greedy-rs"):
            report, _ = run_report(
                capsys, "group", "--input", SYNTH, "--mode", "qwc", "--method", method,
            )
            rec = report["methods"][0]
            h = load_hamiltonian(SYNTH)
            g = build_complement_graph(h, "qwc")
            assert validate_coloring(g, Coloring(np.array(rec["coloring"])))

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "group", "--input", H2, "--mode", "fc", "--method", "full",
            "--out", str(out),
        )
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["methods"][0]["method"] == "full"

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(
            capsys, "group", "--input", "/nonexistent.ham", "--mode", "fc", "--method", "full",
        )
        assert code == 2
        assert "error" in err

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ham"
        bad.write_text("qubits: 2\n0.5 Q9\n")
        code, _, err = run(capsys, "group", "--input", str(bad), "--mode", "fc", "--method", "full")
        assert code == 2
        assert "line 2" in err

    def test_unknown_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["group", "--input", H2, "--mode", "fc", "--method", "full", "--bogus"])
        assert exc.value.code == 2


def npy_bytes(array):
    """The bytes of np.save(array)."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


BAD_INPUTS = {
    "epsilon-0": (["group", "--input", H2, "--mode", "fc", "--method", "full", "--epsilon", "0"], "epsilon"),
    # an epsilon whose m_est is 0, NaN or infinite is rejected whatever the method
    "epsilon-inf": (["group", "--input", H2, "--mode", "fc", "--method", "greedy-lf", "--epsilon", "inf"], "epsilon"),
    "epsilon-nan": (["group", "--input", H2, "--mode", "fc", "--method", "full", "--epsilon", "nan"], "epsilon"),
    "epsilon-1e-300": (["group", "--input", H2, "--mode", "fc", "--method", "greedy-lf", "--epsilon", "1e-300"], "epsilon"),
    "epsilon-1e200": (["group", "--input", H2, "--mode", "fc", "--method", "full", "--epsilon", "1e200"], "epsilon"),
    "gflownet-epsilon-inf": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--epsilon", "inf"], "epsilon"),
    "compare-epsilon-inf": (["compare", "--input", H2, "--mode", "fc", "--methods", "full,greedy-lf", "--epsilon", "inf"], "epsilon"),
    "compare-epsilon-nan": (["compare", "--input", H2, "--mode", "fc", "--methods", "full,greedy-lf", "--epsilon", "nan"], "epsilon"),
    "compare-epsilon-1e-300": (["compare", "--input", H2, "--mode", "fc", "--methods", "full,greedy-lf", "--epsilon", "1e-300"], "epsilon"),
    "lambda0-inf": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--lambda0", "inf"], "lambda0"),
    "lambda0-negative": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--lambda0", "-1"], "lambda0"),
    "iterations-0": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--iterations", "0"], "--iterations must be >= 1, got 0"),
    "traj-per-iter-0": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--traj-per-iter", "0"], "--traj-per-iter must be >= 1, got 0"),
    # the sampler flags are checked before any method runs, so --seed holds for greedy-lf as well
    "seed-negative-greedy-lf": (["group", "--input", H2, "--mode", "fc", "--method", "greedy-lf", "--seed", "-1"], "--seed must be >= 0, got -1"),
    "seed-negative-greedy-rs": (["group", "--input", H2, "--mode", "fc", "--method", "greedy-rs", "--seed", "-1"], "--seed must be >= 0, got -1"),
    "seed-negative-gflownet": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--seed", "-1"], "--seed must be >= 0, got -1"),
    "compare-seed-negative": (["compare", "--input", H2, "--mode", "fc", "--methods", "greedy-rs,gflownet", "--seed", "-1"], "--seed must be >= 0, got -1"),
    "mask-extra-negative": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--mask-extra", "-1"], "--mask-extra must be >= 0, got -1"),
    # samplers larger than any address space: a 50.9 PiB input layer, one whose
    # byte count numpy cannot represent, and 1019 TiB of uniforms per batch
    "mask-extra-too-large": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--mask-extra", "1000000000000"], "--mask-extra 1000000000000,"),
    "mask-extra-beyond-intp": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--mask-extra", "1000000000000000"], "--mask-extra 1000000000000000,"),
    "traj-per-iter-too-large": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--traj-per-iter", "10000000000000"], "--traj-per-iter 10000000000000:"),
    "traj-per-iter-beyond-intp": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--traj-per-iter", "100000000000000000"], "--traj-per-iter 100000000000000000:"),
    "exact-on-h4": (["group", "--input", H4, "--mode", "fc", "--method", "exact"], "exact-search limit"),
    "compare-exact-on-h4": (["compare", "--input", H4, "--mode", "fc", "--methods", "full,exact"], "exact-search limit"),
    "histogram-ham-as-checkpoint": (["histogram", "--checkpoint", H2, "--samples", "5"], "not a checkpoint"),
    "histogram-samples-before-load": (["histogram", "--checkpoint", H2, "--samples", "0"], "--samples"),
    # the loader's own "not a pauliflow checkpoint" is the message's one such phrase
    "histogram-foreign-npz": (["histogram", "--checkpoint", "FOREIGN_NPZ", "--samples", "5"], "x.npz is not a pauliflow checkpoint: version"),
    "histogram-no-metadata": (["histogram", "--checkpoint", "BARE_CHECKPOINT", "--samples", "5"], "c.npz is not a pauliflow checkpoint: no 'hamiltonian' in its metadata"),
    "histogram-mismatched-cap": (["histogram", "--checkpoint", "MISMATCHED_CAP", "--samples", "5"], "color_cap"),
    "histogram-unchained-layers": (["histogram", "--checkpoint", "UNCHAINED_W1", "--samples", "5"], "do not form a network"),
    "histogram-1d-weight": (["histogram", "--checkpoint", "VECTOR_W0", "--samples", "5"], "do not form a network"),
    # metadata of the wrong type, and a best grouping whose terms do not all commute
    "histogram-iterations-list": (["histogram", "--checkpoint", "ITERATIONS_LIST", "--samples", "5"], "is not a checkpoint: its iterations [1]"),
    "histogram-seed-null": (["histogram", "--checkpoint", "SEED_NULL", "--samples", "5"], "is not a checkpoint: its seed None"),
    "histogram-hidden-sizes-int": (["histogram", "--checkpoint", "HIDDEN_SIZES_INT", "--samples", "5"], "is not a checkpoint: its hidden_sizes 5"),
    "histogram-hidden-sizes-other": (["histogram", "--checkpoint", "HIDDEN_SIZES_OTHER", "--samples", "5"], "is not a checkpoint: its hidden_sizes [5] are not its network's [4]"),
    "histogram-hamiltonian-int": (["histogram", "--checkpoint", "HAMILTONIAN_INT", "--samples", "5"], "is not a checkpoint: its hamiltonian 5"),
    "histogram-metadata-number": (["histogram", "--checkpoint", "METADATA_NUMBER", "--samples", "5"], "is not a checkpoint: its metadata 5"),
    "histogram-one-group-best": (["histogram", "--checkpoint", "ONE_GROUP_BEST", "--samples", "5"], "is not a checkpoint: its best_assignment"),
    # metadata that no training run could have used
    "histogram-learning-rate-negative": (["histogram", "--checkpoint", "NEGATIVE_LEARNING_RATE", "--samples", "5"], "is not a checkpoint: learning_rate must be positive and finite, got -0.001"),
    "histogram-accumulation-period-0": (["histogram", "--checkpoint", "ZERO_ACCUMULATION_PERIOD", "--samples", "5"], "is not a checkpoint: accumulation_period must be >= 1, got 0"),
    "histogram-hidden-size-0": (["histogram", "--checkpoint", "ZERO_WIDTH_LAYER", "--samples", "5"], "is not a checkpoint: hidden_sizes must be ints >= 1, got (0,)"),
    # files that are no npz archive, and archives whose version or layer sizes have the wrong shape
    "histogram-cut-checkpoint": (["histogram", "--checkpoint", "CUT_CHECKPOINT", "--samples", "3"], "cut.npz is not a pauliflow checkpoint: "),
    "histogram-empty-file": (["histogram", "--checkpoint", "EMPTY.npz", "--samples", "3"], "EMPTY.npz is not a pauliflow checkpoint: "),
    "histogram-npy-file": (["histogram", "--checkpoint", "ARRAY.npy", "--samples", "3"], "ARRAY.npy is not a pauliflow checkpoint: one array, not an npz archive"),
    "histogram-version-vector": (["histogram", "--checkpoint", "VERSION_VECTOR", "--samples", "3"], "is not a pauliflow checkpoint: version of shape (2,)"),
    "histogram-layer-sizes-scalar": (["histogram", "--checkpoint", "LAYER_SIZES_SCALAR", "--samples", "3"], "is not a pauliflow checkpoint: version of shape (), layer_sizes of shape ()"),
    # a term whose m_est overflows at the saved epsilon, with no best grouping that would show it
    "histogram-m-est-overflow": (["histogram", "--checkpoint", "HUGE_TERM", "--samples", "3"], "is not a checkpoint: m_est overflows"),
    "histogram-seed-before-load": (["histogram", "--checkpoint", H2, "--samples", "5", "--seed", "-1"], "--seed must be >= 0, got -1"),
    # a count whose arrays numpy refuses at once (about 1000 TiB of uniforms)
    "histogram-samples-too-many": (["histogram", "--checkpoint", "H2_CHECKPOINT", "--samples", "10000000000000"], "--samples"),
    # uniforms whose byte count numpy cannot even represent
    "histogram-samples-beyond-intp": (["histogram", "--checkpoint", "H2_CHECKPOINT", "--samples", "10000000000000000000"], "--samples"),
    # bin indices that no int64 holds
    "histogram-bin-width-1e-320": (["histogram", "--checkpoint", "H2_CHECKPOINT", "--samples", "3", "--bin-width", "1e-320"], "--bin-width 1e-320"),
    # the bin width is checked before the checkpoint (here not one) is read
    "histogram-bin-width-negative": (["histogram", "--checkpoint", H2, "--samples", "5", "--bin-width", "-5"], "--bin-width"),
    "histogram-bin-width-0": (["histogram", "--checkpoint", H2, "--samples", "5", "--bin-width", "0"], "--bin-width"),
    "histogram-bin-width-nan": (["histogram", "--checkpoint", H2, "--samples", "5", "--bin-width", "nan"], "--bin-width"),
    "histogram-bin-width-inf": (["histogram", "--checkpoint", H2, "--samples", "5", "--bin-width", "inf"], "--bin-width"),
    # export-graph checks --epsilon before it reads any input (here none exists)
    "export-graph-epsilon-0": (["export-graph", "--input", "/nonexistent.ham", "--mode", "fc", "--coloring", "/nonexistent.json", "--out", "NODIR/g.dot", "--epsilon", "0"], "epsilon"),
    "export-graph-epsilon-negative": (["export-graph", "--input", "/nonexistent.ham", "--mode", "fc", "--coloring", "/nonexistent.json", "--out", "NODIR/g.dot", "--epsilon", "-1"], "epsilon"),
    "export-graph-epsilon-nan": (["export-graph", "--input", "/nonexistent.ham", "--mode", "fc", "--coloring", "/nonexistent.json", "--out", "NODIR/g.dot", "--epsilon", "nan"], "epsilon"),
    "export-graph-epsilon-inf": (["export-graph", "--input", "/nonexistent.ham", "--mode", "fc", "--coloring", "/nonexistent.json", "--out", "NODIR/g.dot", "--epsilon", "inf"], "epsilon"),
    "export-graph-epsilon-1e-300": (["export-graph", "--input", "/nonexistent.ham", "--mode", "fc", "--coloring", "/nonexistent.json", "--out", "NODIR/g.dot", "--epsilon", "1e-300"], "epsilon"),
    # an output file's directory is checked before any input is read or method run
    "out-no-dir": (["group", "--input", H2, "--mode", "fc", "--method", "full", "--out", "NODIR/r.json"], "cannot write"),
    "checkpoint-no-dir": (["group", "--input", "/nonexistent.ham", "--mode", "fc", "--method", "gflownet", "--checkpoint", "NODIR/c.npz"], "cannot write"),
    "train-log-no-dir": (["group", "--input", "/nonexistent.ham", "--mode", "fc", "--method", "gflownet", "--train-log", "NODIR/t.csv"], "cannot write"),
    "histogram-out-no-dir": (["histogram", "--checkpoint", "/nonexistent.npz", "--samples", "5", "--out", "NODIR/h.csv"], "cannot write"),
    "export-graph-out-no-dir": (["export-graph", "--input", "/nonexistent.ham", "--mode", "fc", "--coloring", "/nonexistent.json", "--out", "NODIR/g.dot"], "cannot write"),
    # a destination that exists but cannot be written fails at write time
    "out-is-directory": (["group", "--input", H2, "--mode", "fc", "--method", "full", "--out", "TMPDIR"], "Is a directory"),
    # an m_est that overflows is caught before any method runs, training included
    "m-est-overflow-full": (["group", "--input", H4, "--mode", "fc", "--method", "full", "--epsilon", "1e-154"], "m_est overflows"),
    "m-est-overflow-greedy-lf": (["group", "--input", H4, "--mode", "fc", "--method", "greedy-lf", "--epsilon", "1e-154"], "m_est overflows"),
    "m-est-overflow-gflownet": (["group", "--input", H4, "--mode", "fc", "--method", "gflownet", "--iterations", "1", "--epsilon", "1e-154"], "m_est overflows"),
    "m-est-overflow-export-graph": (["export-graph", "--input", H4, "--mode", "fc", "--coloring", "/nonexistent.json", "--out", "TMPDIR/g.dot", "--epsilon", "1e-154"], "m_est overflows"),
    "m-est-overflow-coefficients": (["group", "--input", "HUGE.ham", "--mode", "fc", "--method", "full"], "m_est overflows"),
    # a reward that overflows at the run's lambda0 too, before training starts
    "reward-overflow-gflownet": (["group", "--input", H2, "--mode", "fc", "--method", "gflownet", "--iterations", "2", "--epsilon", "1e150", "--lambda0", "1e300"], "reward overflows"),
    # files the parser rejects, with the line at fault
    "nan-term": (["group", "--input", "NAN_TERM.ham", "--mode", "fc", "--method", "full"], "line 2: non-finite"),
    "inf-term": (["group", "--input", "INF_TERM.ham", "--mode", "fc", "--method", "full"], "line 3: non-finite"),
    "1e999-term": (["group", "--input", "OVERFLOW_TERM.ham", "--mode", "fc", "--method", "full"], "line 2: non-finite"),
    "nan-identity": (["group", "--input", "NAN_IDENTITY.ham", "--mode", "fc", "--method", "full"], "line 2: non-finite"),
    # a qubit count whose words numpy cannot allocate, or whose shape it cannot even express
    "qubits-1e14": (["group", "--input", "HUGE_QUBITS.ham", "--mode", "fc", "--method", "greedy-lf"], "line 2: cannot hold a word of 100000000000000 qubits"),
    "qubits-1e23": (["group", "--input", "HUGER_QUBITS.ham", "--mode", "fc", "--method", "greedy-lf"], "line 2: cannot hold a word of 100000000000000000000000 qubits"),
    "histogram-qubits-1e14": (["histogram", "--checkpoint", "HUGE_QUBITS_TEXT", "--samples", "5"], "is not a checkpoint: line 2: cannot hold a word of 100000000000000 qubits"),
    "non-utf8-input": (["group", "--input", "NON_UTF8.ham", "--mode", "fc", "--method", "full"], "line 3: not UTF-8"),
    "non-utf8-coloring": (["export-graph", "--input", H2, "--mode", "fc", "--coloring", "NON_UTF8.json", "--out", "TMPDIR/g.dot"], "not UTF-8"),
    # JSON true/false are not colors, though Python reads them as 1 and 0
    "bool-coloring": (["export-graph", "--input", H2, "--mode", "fc", "--coloring", "BOOL.json", "--out", "TMPDIR/g.dot"], "expected a list of colors"),
}

# input files of the cases above, written into the test's directory under these names
BAD_FILES = {
    "HUGE.ham": b"qubits: 1\n1e300 Z0\n1e300 X0\n",
    "NAN_TERM.ham": b"qubits: 2\nnan Z0\n0.3 X1\n",
    "INF_TERM.ham": b"qubits: 2\n0.3 X1\ninf Z0\n",
    "OVERFLOW_TERM.ham": b"qubits: 2\n1e999 Z0\n",
    "NAN_IDENTITY.ham": b"qubits: 2\nnan I\n0.3 X1\n",
    "HUGE_QUBITS.ham": b"qubits: 100000000000000\n0.5 Z0\n0.3 X1\n",
    "HUGER_QUBITS.ham": b"qubits: 100000000000000000000000\n0.5 Z0\n",
    "NON_UTF8.ham": b"qubits: 2\n0.5 Z0\n0.3 X\xff1\n",
    "NON_UTF8.json": b"[1, \xff]",
    "BOOL.json": b"[true, true, true, true, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]",
    "EMPTY.npz": b"",
    "ARRAY.npy": npy_bytes(np.zeros(3)),
}



def raise_color_cap(arrays):
    """A color_cap 3 more than the network's."""
    metadata = json.loads(str(arrays["metadata"]))
    metadata["color_cap"] += 3
    arrays["metadata"] = np.array(json.dumps(metadata))


def set_metadata(**entries):
    """The change that sets these metadata entries."""
    def change(arrays):
        metadata = json.loads(str(arrays["metadata"]))
        metadata.update(entries)
        arrays["metadata"] = np.array(json.dumps(metadata))
    return change


def huge_term(arrays):
    """Its last term's coefficient 1e300, and no best grouping."""
    metadata = json.loads(str(arrays["metadata"]))
    lines = metadata["hamiltonian"].splitlines()
    lines[-1] = "1e300 " + lines[-1].split(" ", 1)[1]
    metadata.update(hamiltonian="\n".join(lines) + "\n", best_assignment=None)
    arrays["metadata"] = np.array(json.dumps(metadata))


def zero_width_layer(arrays):
    """A hidden layer of no units, as its metadata says too."""
    arrays.update(w0=arrays["w0"][:, :0], b0=arrays["b0"][:0], w1=arrays["w1"][:0])
    set_metadata(hidden_sizes=[0])(arrays)


# the small H2 FC checkpoint below, with one change to its arrays each
BROKEN_CHECKPOINTS = {
    "MISMATCHED_CAP": raise_color_cap,
    # a second layer that takes one input more than the first gives
    "UNCHAINED_W1": lambda a: a.update(w1=np.zeros((a["w0"].shape[1] + 1, a["w1"].shape[1]))),
    "VECTOR_W0": lambda a: a.update(w0=a["w0"][:, 0]),
    "METADATA_NUMBER": lambda a: a.update(metadata=np.array("5")),
    "ITERATIONS_LIST": set_metadata(iterations=[1]),
    "SEED_NULL": set_metadata(seed=None),
    "HIDDEN_SIZES_INT": set_metadata(hidden_sizes=5),
    "HIDDEN_SIZES_OTHER": set_metadata(hidden_sizes=[5]),
    "HAMILTONIAN_INT": set_metadata(hamiltonian=5),
    # all 14 H2 terms in one group, whose m_est lies below the FC optimum
    "ONE_GROUP_BEST": set_metadata(best_assignment=[1] * 14),
    "NEGATIVE_LEARNING_RATE": set_metadata(learning_rate=-1e-3),
    "ZERO_ACCUMULATION_PERIOD": set_metadata(accumulation_period=0),
    "ZERO_WIDTH_LAYER": zero_width_layer,
    "HUGE_QUBITS_TEXT": set_metadata(hamiltonian="qubits: 100000000000000\n0.5 Z0\n"),
    "VERSION_VECTOR": lambda a: a.update(version=np.array([1, 1])),
    "LAYER_SIZES_SCALAR": lambda a: a.update(layer_sizes=np.array(5)),
    "HUGE_TERM": huge_term,
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_2_with_error_line(capsys, tmp_path, case):
    argv, message = BAD_INPUTS[case]
    # NODIR/<file> lies in a directory that does not exist; TMPDIR is a directory
    # and TMPDIR/<file> a new file in it
    argv = [str(tmp_path / "nodir" / arg[6:]) if arg.startswith("NODIR/") else arg for arg in argv]
    argv = [str(tmp_path) if arg == "TMPDIR" else arg for arg in argv]
    argv = [str(tmp_path / arg[7:]) if arg.startswith("TMPDIR/") else arg for arg in argv]
    for name in set(argv) & BAD_FILES.keys():
        (tmp_path / name).write_bytes(BAD_FILES[name])
        argv = [str(tmp_path / name) if arg == name else arg for arg in argv]
    if "FOREIGN_NPZ" in argv:  # an .npz archive that pauliflow did not write
        foreign = tmp_path / "x.npz"
        np.savez(foreign, a=np.zeros(3))
        argv = [str(foreign) if arg == "FOREIGN_NPZ" else arg for arg in argv]
    if "BARE_CHECKPOINT" in argv:  # a network checkpoint without the sampler's metadata
        bare = tmp_path / "c.npz"
        net = DenseNet.initialize([3, 4, 2], seed=0)
        save_checkpoint(bare, net)
        argv = [str(bare) if arg == "BARE_CHECKPOINT" else arg for arg in argv]
    good = tmp_path / "good.npz"
    broken = set(argv) & BROKEN_CHECKPOINTS.keys()
    if {"H2_CHECKPOINT", "CUT_CHECKPOINT"} & set(argv) or broken:  # a small H2 FC checkpoint
        config = TrainConfig(iterations=1, trajectories_per_iteration=2, hidden_sizes=(4,))
        train(load_hamiltonian(H2), config).save(good)
        argv = [str(good) if arg == "H2_CHECKPOINT" else arg for arg in argv]
    if "CUT_CHECKPOINT" in argv:  # its first half
        cut = tmp_path / "cut.npz"
        cut.write_bytes(good.read_bytes()[: good.stat().st_size // 2])
        argv = [str(cut) if arg == "CUT_CHECKPOINT" else arg for arg in argv]
    for name in broken:
        with np.load(good) as data:
            arrays = dict(data)
        BROKEN_CHECKPOINTS[name](arrays)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        argv = [str(bad) if arg == name else arg for arg in argv]
    if argv[0] == "histogram" and "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "h.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("checkpoint:") <= 1


def run_module(*argv):
    """`python -m pauliflow ARGV` in a child process that finds this package."""
    src = str(Path(pauliflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pauliflow", *argv],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


def test_python_m_pauliflow_runs_the_cli():
    done = run_module("--help")
    assert done.returncode == 0, done.stderr
    assert "export-graph" in done.stdout
    done = run_module("group", "--input", H2, "--mode", "fc", "--method", "greedy-lf", "--epsilon", "inf")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and "epsilon" in done.stderr


def test_python_m_pauliflow_histogram_of_an_empty_file_prints_one_error_line(tmp_path):
    empty = tmp_path / "empty.npz"
    empty.write_bytes(b"")
    done = run_module("histogram", "--checkpoint", str(empty), "--samples", "3", "--out", str(tmp_path / "h.csv"))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(f"error: {empty} is not a pauliflow checkpoint: ") and done.stderr.count("\n") == 1


def test_importing_the_cli_loads_no_thread_pool():
    """concurrent.futures is imported only by a call that starts a thread,
    so it adds nothing to the set-up time of every command."""
    src = str(Path(pauliflow.__file__).resolve().parents[1])
    code = "import sys, pauliflow.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_reward_is_checked_at_the_runs_lambda0(capsys, tmp_path):
    """At an epsilon whose m_est is tiny, the default lambda0 overflows the
    reward and exits 2, and a small --lambda0 reports the m_est; export-graph
    has no reward to check."""
    argv = ["group", "--input", H2, "--mode", "fc", "--method", "full", "--epsilon", "1e154"]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "reward overflows" in err
    report, _ = run_report(capsys, *argv, "--lambda0", "1e-10")
    assert 0 < report["methods"][0]["m_est"] < 1e-300
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps(list(range(1, 15))))
    dot = ["--coloring", str(coloring), "--out", str(tmp_path / "g.dot"), "--epsilon", "1e154"]
    assert run(capsys, "export-graph", "--input", H2, "--mode", "fc", *dot)[0] == 0


class TestCompare:
    def test_two_greedy_methods(self, capsys):
        report, err = run_report(
            capsys, "compare", "--input", H2, "--mode", "fc",
            "--methods", "greedy-lf,greedy-dsat",
        )
        names = [r["method"] for r in report["methods"]]
        assert names == ["greedy-lf", "greedy-dsat"]
        assert "reduction_factor" not in report
        assert "greedy-lf" in err  # table rendered on stderr

    def test_qwc_all_greedy_agree_on_h2(self, capsys):
        report, _ = run_report(
            capsys, "compare", "--input", H2, "--mode", "qwc",
            "--methods", "greedy-lf,greedy-dsat,greedy-rs",
        )
        counts = {r["method"]: r["color_count"] for r in report["methods"]}
        ests = {r["m_est"] for r in report["methods"]}
        assert set(counts.values()) == {5}
        assert len(ests) == 1  # forced partition: identical m_est

    def test_reduction_factor_quotient(self, capsys):
        report, _ = run_report(
            capsys, "compare", "--input", H2, "--mode", "qwc",
            "--methods", "greedy-lf,gflownet", "--seed", "1", *FAST_GFN,
        )
        by = {r["method"]: r for r in report["methods"]}
        expected = by["gflownet"]["m_est"] / by["greedy-lf"]["m_est"]
        assert report["reduction_factor"] == pytest.approx(expected, rel=1e-9)
        # H2 qwc has a single reachable grouping: exact tie
        assert report["reduction_factor"] == pytest.approx(1.0, rel=1e-12)

    def test_unknown_method_exit_2(self, capsys):
        code, _, err = run(
            capsys, "compare", "--input", H2, "--mode", "fc", "--methods", "greedy-lf,bogus",
        )
        assert code == 2
        assert "bogus" in err

    def test_deterministic_byte_identical(self, capsys, tmp_path):
        argv = [
            "compare", "--input", H2, "--mode", "fc",
            "--methods", "full,greedy-lf,greedy-dsat,greedy-rs",
            "--seed", "7", "--deterministic",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestHistogram:
    def make_checkpoint(self, capsys, tmp_path, seed="5"):
        ckpt = tmp_path / "s.npz"
        run_report(
            capsys, "group", "--input", H2, "--mode", "fc", "--method", "gflownet",
            "--seed", seed, *FAST_GFN, "--checkpoint", str(ckpt),
        )
        return ckpt

    def test_counts_conserved(self, capsys, tmp_path):
        ckpt = self.make_checkpoint(capsys, tmp_path)
        out = tmp_path / "hist.csv"
        code, _, err = run(
            capsys, "histogram", "--checkpoint", str(ckpt), "--samples", "500",
            "--out", str(out), "--seed", "2",
        )
        assert code == 0, err
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "max_color,m_est,count"
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 500

    def test_rows_match_counted_samples(self, capsys, tmp_path):
        """Each (max_color, bin) row counts the samples of that color and bin,
        rows sorted by color, then bin, against a loop over the samples."""
        ckpt = self.make_checkpoint(capsys, tmp_path)
        out = tmp_path / "hist.csv"
        code, _, err = run(
            capsys, "histogram", "--checkpoint", str(ckpt), "--samples", "300",
            "--out", str(out), "--seed", "4", "--bin-width", "2000",
        )
        assert code == 0, err
        samples = TrainedSampler.load(ckpt).sample(300, rng=4)
        lo = min(m for _, m, _ in samples)
        counted = collections.Counter((c.max_color, math.floor((m - lo) / 2000)) for c, m, _ in samples)
        want = [f"{c},{lo + b * 2000.0!r},{n}" for (c, b), n in sorted(counted.items())]
        assert len(want) > 1
        assert out.read_text().splitlines() == ["max_color,m_est,count", *want]

    def test_single_sample_single_bin(self, capsys, tmp_path):
        ckpt = self.make_checkpoint(capsys, tmp_path)
        out = tmp_path / "hist.csv"
        code, _, _ = run(
            capsys, "histogram", "--checkpoint", str(ckpt), "--samples", "1", "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_missing_checkpoint_exit_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "histogram", "--checkpoint", str(tmp_path / "none.npz"),
            "--samples", "10", "--out", str(tmp_path / "h.csv"),
        )
        assert code == 2


class TestExportGraph:
    def test_single_term_graph(self, capsys, tmp_path):
        ham = tmp_path / "one.ham"
        ham.write_text("qubits: 2\n0.5 X0 X1\n")
        coloring = tmp_path / "c.json"
        coloring.write_text("[1]")
        out = tmp_path / "g.dot"
        code, _, err = run(
            capsys, "export-graph", "--input", str(ham), "--mode", "fc",
            "--coloring", str(coloring), "--out", str(out),
        )
        assert code == 0, err
        text = out.read_text()
        assert text.startswith("graph ")
        assert "XX" in text and "m_est" in text

    def test_improper_coloring_exit_4(self, capsys, tmp_path):
        coloring = tmp_path / "c.json"
        coloring.write_text(json.dumps({"assignment": [1] * 14}))
        code, _, _ = run(
            capsys, "export-graph", "--input", H2, "--mode", "fc",
            "--coloring", str(coloring), "--out", str(tmp_path / "g.dot"),
        )
        assert code == 4

    def test_wrong_length_coloring_exit_4(self, capsys, tmp_path):
        coloring = tmp_path / "c.json"
        coloring.write_text("[1, 2, 3]")
        code, out, err = run(
            capsys, "export-graph", "--input", H2, "--mode", "fc",
            "--coloring", str(coloring), "--out", str(tmp_path / "g.dot"),
        )
        assert code == 4 and out == ""
        assert err == "invalid coloring: coloring covers 3 vertices, graph has 14\n"

    @pytest.mark.parametrize("first", [10**29, 2**63])
    def test_color_beyond_int64_exit_4(self, capsys, tmp_path, first):
        coloring = tmp_path / "c.json"
        coloring.write_text(json.dumps([first] + [2] * 13))
        code, out, err = run(
            capsys, "export-graph", "--input", H2, "--mode", "fc",
            "--coloring", str(coloring), "--out", str(tmp_path / "g.dot"),
        )
        assert code == 4 and out == ""
        assert err.startswith("invalid coloring: ") and err.count("\n") == 1

    def test_large_colors_group_by_value(self, capsys, tmp_path):
        """Groups come from the colors used, not from every color up to the largest."""
        coloring = tmp_path / "c.json"
        coloring.write_text(json.dumps([2**62] * 4 + [7] * 10))
        out = tmp_path / "g.dot"
        code, _, err = run(
            capsys, "export-graph", "--input", H2, "--mode", "fc",
            "--coloring", str(coloring), "--out", str(out),
        )
        assert code == 0, err
        assert f"group={2**62}" in out.read_text()

    def test_color_permutations_share_annotation(self, capsys, tmp_path):
        h = load_hamiltonian(H2)
        base = [1] * 4 + [2] * 10  # XY quartet vs diagonal: proper in fc mode
        flipped = [2] * 4 + [1] * 10
        texts = []
        for i, assignment in enumerate((base, flipped)):
            coloring = tmp_path / f"c{i}.json"
            coloring.write_text(json.dumps(assignment))
            out = tmp_path / f"g{i}.dot"
            code, _, err = run(
                capsys, "export-graph", "--input", H2, "--mode", "fc",
                "--coloring", str(coloring), "--out", str(out),
            )
            assert code == 0, err
            texts.append(out.read_text())
        label = [line for line in texts[0].splitlines() if "label=" in line and "m_est" in line]
        assert label and label == [
            line for line in texts[1].splitlines() if "label=" in line and "m_est" in line
        ]
