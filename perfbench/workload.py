"""One workload in one process: set up, run timed operations, check outputs.

Started by run.py, which passes the monotonic time at which it spawned this
process (`--t0`) so that set-up time counts from process start. The last
line of standard output is a JSON object with the run's raw figures.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "src" / "pauliflow" / "fixtures"
OUT = HERE / "out"

H2 = "h2_sto3g_1A_jw.ham"
H4 = "h4_chain_sto3g_1A_jw.ham"
SYNTHETIC = "synthetic_10term.ham"

EPSILON = 1.6e-3
LAMBDA0 = 1e6
HIDDEN = (512, 512)
TRAJECTORIES = 16
# pauliflow caps colours at the random-sequential greedy count plus
# mask_extra_colors. The default (no extra) dead-ends on H4 under the fixed
# vertex order. The H4 workloads widen the cap by at least 20 and to 37 in
# all, so that every seed trains a network of the same size (greedy gives 8
# to 17 colours on H4 FC, depending on the seed). run.py works the extra
# colours out before any set-up clock starts and passes them in.
H4_MIN_EXTRA = 20
H4_CAP = 37
# `pauliflow histogram` draws its whole --samples count as one rollout batch,
# and each row keeps about 38 KB of rollout state. A process that has loaded
# the checkpoint holds about 156 MiB. At 2048 rows, the rows' state is a third
# of the peak, so a rollout that kept 50% more per row would lift peak_rss_mb
# past its 0.15 bound. The README's documented 10000 samples would take about 70 s
# per operation on one core, more than a run can fit.
SAMPLE_BATCH = 2048
BASELINE_METHODS = "full,greedy-lf,greedy-dsat,greedy-rs"
H4_TRAINED = ("h4-fc-train", "h4-fc-sample")
COMPARES = [(H4, "fc", BASELINE_METHODS), (H4, "qwc", BASELINE_METHODS),
            (SYNTHETIC, "fc", BASELINE_METHODS + ",exact")]


def h4_extra_colors(pf, seed: int) -> int:
    """The mask_extra_colors that puts the H4 FC colour cap at H4_CAP for `seed`."""
    h = pf.hamio.load_hamiltonian(str(FIXTURES / H4))
    graph = pf.graphs.build_complement_graph(h, "fc")
    greedy = pf.graphs.greedy_color(graph, "random_sequential", seed=seed).max_color
    return max(H4_MIN_EXTRA, H4_CAP - greedy)


def train_config(pf, seed: int, iterations: int, extra_colors: int):
    """The paper's recipe on FC, with the colour cap widened by `extra_colors`."""
    return pf.gflownet.TrainConfig(
        iterations=iterations, trajectories_per_iteration=TRAJECTORIES, seed=seed,
        mask_extra_colors=extra_colors,
        measurement=pf.measurement.MeasurementConfig(epsilon=EPSILON, lambda0=LAMBDA0),
        mode="fc", hidden_sizes=HIDDEN)


class Workload:
    """Set-up, one operation, and the checks of its output."""

    work_units_per_op = 1

    def cleanup(self) -> None:
        pass


class TrainWorkload(Workload):
    """Each operation is one train() call of a fixed number of iterations."""

    def __init__(self, ham: str, iterations: int, extra_colors: int, seed: int,
                 brute_force: bool):
        self.ham_name, self.iterations, self.extra_colors = ham, iterations, extra_colors
        self.seed = seed
        self.brute_force = brute_force
        self.work_units_per_op = iterations

    def setup(self, pf) -> None:
        self.pf = pf
        self.h = pf.hamio.load_hamiltonian(str(FIXTURES / self.ham_name))
        self.config = train_config(pf, self.seed, self.iterations, self.extra_colors)

    def op(self) -> dict:
        sampler = self.pf.gflownet.train(self.h, self.config)
        best = sampler.best
        return {
            "cap": sampler.mdp.color_cap,
            "best": (best.assignment.copy(), best.m_est, best.color_count),
            "found": [(f.assignment, f.m_est, f.color_count) for f in sampler.discovered.values()],
        }

    @functools.cached_property
    def reference(self):
        ham = checks.parse_ham(FIXTURES / self.ham_name)
        return ham, checks.conflict_fc(ham)

    @functools.cache
    def brute_force_minimum(self, cap: int) -> float:
        ham, adj = self.reference
        return checks.min_m_est_bruteforce(ham.coeffs, adj, cap)

    def check(self, out: dict, first: dict) -> list[str]:
        ham, adj = self.reference
        errors = []
        for assignment, m, colors in [out["best"], *out["found"]]:
            errors += checks.grouping_errors(ham, adj, assignment, m, colors, out["cap"])
        lowest = min(m for _, m, _ in out["found"])
        errors += checks.close_errors("best m_est vs lowest found", out["best"][1], lowest)
        if self.brute_force:
            errors += checks.close_errors("best m_est vs brute-force minimum", out["best"][1],
                                          self.brute_force_minimum(out["cap"]))
        if (out["best"][0].tolist(), out["best"][1]) != (first["best"][0].tolist(), first["best"][1]):
            errors.append("same seed gave a different best grouping than the first operation")
        return errors

    def best_m_est(self, out: dict) -> float:
        return out["best"][1]

    def distinct(self, out: dict) -> tuple[int, int]:
        return len(out["found"]), self.iterations * TRAJECTORIES


class BaselinesWorkload(Workload):
    """Each operation is three in-process `pauliflow compare` runs."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, pf) -> None:
        self.pf = pf
        for name, _, _ in COMPARES:
            if not (FIXTURES / name).is_file():
                raise FileNotFoundError(FIXTURES / name)

    def op(self) -> list:
        reports = []
        for name, mode, methods in COMPARES:
            out, err = io.StringIO(), io.StringIO()
            argv = ["compare", "--input", str(FIXTURES / name), "--mode", mode,
                    "--methods", methods, "--seed", str(self.seed), "--epsilon", repr(EPSILON)]
            with redirect_stdout(out), redirect_stderr(err):
                code = self.pf.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"compare {name} {mode} exited {code}: {err.getvalue()}")
            reports.append((name, mode, json.loads(out.getvalue())))
        return reports

    @functools.cached_property
    def reference(self) -> dict:
        hams = {name: checks.parse_ham(FIXTURES / name) for name, _, _ in COMPARES}
        synthetic = hams[SYNTHETIC]
        return {"hams": hams, "chromatic": checks.chromatic_number(checks.conflict_fc(synthetic))}

    def check(self, out: list, first: list) -> list[str]:
        ref = self.reference
        errors = []
        for (name, mode, methods), (_, _, report) in zip(COMPARES, out):
            chromatic = ref["chromatic"] if name == SYNTHETIC else None
            errors += [f"{name}: {e}" for e in checks.compare_report_errors(
                report, ref["hams"][name], mode, methods.split(","), chromatic)]

        def outcome(reports):
            return [[(r["method"], r["m_est"], r["coloring"]) for r in rep["methods"]]
                    for _, _, rep in reports]
        if outcome(out) != outcome(first):
            errors.append("same seed gave different groupings than the first operation")
        return errors

    def best_m_est(self, out: list) -> float:
        """Lowest H4 FC m_est among the methods whose result does not depend on the seed."""
        _, _, report = out[0]
        return min(r["m_est"] for r in report["methods"] if r["method"] != "greedy-rs")

    def distinct(self, out: list) -> tuple[int, int]:
        return 0, 1


class SampleWorkload(Workload):
    """Each operation loads an H4 FC checkpoint and draws one large batch."""

    def __init__(self, seed: int, extra_colors: int):
        self.seed, self.extra_colors = seed, extra_colors
        self.path = OUT / f"checkpoint-{os.getpid()}.npz"

    def setup(self, pf) -> None:
        # Another process trains and writes the checkpoint, so that this
        # process's peak memory is the sampling's and not the training's.
        self.pf = pf
        OUT.mkdir(exist_ok=True)
        subprocess.run([sys.executable, __file__, "--workload", "h4-fc-sample",
                        "--seed", str(self.seed), "--seconds", "0", "--t0", "0",
                        "--extra-colors", str(self.extra_colors),
                        "--write-checkpoint", str(self.path)], check=True, timeout=150)

    def op(self) -> dict:
        import numpy as np
        sampler = self.pf.gflownet.TrainedSampler.load(self.path)
        samples = sampler.sample(SAMPLE_BATCH, rng=self.seed)
        return {
            "cap": sampler.mdp.color_cap,
            "assignments": np.stack([c.assignment for c, _, _ in samples]),
            "m_est": [m for _, m, _ in samples],
        }

    @functools.cached_property
    def reference(self):
        ham = checks.parse_ham(FIXTURES / H4)
        return ham, checks.conflict_fc(ham)

    def check(self, out: dict, first: dict) -> list[str]:
        ham, adj = self.reference
        errors = []
        for row, m in zip(out["assignments"], out["m_est"]):
            errors += checks.grouping_errors(ham, adj, row, m, cap=out["cap"])
        if len(out["m_est"]) != SAMPLE_BATCH:
            errors.append(f"asked for {SAMPLE_BATCH} samples, got {len(out['m_est'])}")
        if out["assignments"].tolist() != first["assignments"].tolist():
            errors.append("same seed gave different samples than the first operation")
        return errors

    def best_m_est(self, out: dict) -> float:
        return min(out["m_est"])

    def distinct(self, out: dict) -> tuple[int, int]:
        return len({row.tobytes() for row in out["assignments"]}), SAMPLE_BATCH

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)


def write_checkpoint(pf, seed: int, extra_colors: int, path: str) -> None:
    """The checkpoint h4-fc-sample loads: H4 FC trained for one iteration."""
    h = pf.hamio.load_hamiltonian(str(FIXTURES / H4))
    pf.gflownet.train(h, train_config(pf, seed, 1, extra_colors)).save(path)


def make_workload(name: str, seed: int, extra_colors: int | None):
    if name in H4_TRAINED and extra_colors is None:
        raise ValueError(f"{name} needs --extra-colors")
    if name == "h2-fc-train":
        return TrainWorkload(H2, iterations=50, extra_colors=0, seed=seed, brute_force=True)
    if name == "h4-fc-train":
        return TrainWorkload(H4, iterations=10, extra_colors=extra_colors, seed=seed,
                             brute_force=False)
    if name == "h4-baselines":
        return BaselinesWorkload(seed)
    if name == "h4-fc-sample":
        return SampleWorkload(seed, extra_colors)
    raise ValueError(f"unknown workload {name!r}")


def import_program():
    """Import pauliflow from this checkout's src/, never from elsewhere."""
    import pauliflow
    import pauliflow.cli
    import pauliflow.gflownet
    import pauliflow.graphs
    import pauliflow.hamio
    import pauliflow.measurement
    import pauliflow.nn

    where = Path(pauliflow.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"pauliflow imported from {where}, not from {ROOT / 'src'}")
    return pauliflow


def user_figures(workload, times: list[float]) -> dict:
    """The throughput or latency a user of this workload reads, from operation times."""
    if not times:
        return {}
    if isinstance(workload, TrainWorkload):
        rate = statistics.median(workload.iterations / t for t in times)
        return {"train_iter_per_s": {"value": rate, "unit": "iterations/s"}}
    if isinstance(workload, SampleWorkload):
        rate = statistics.median(SAMPLE_BATCH / t for t in times)
        return {"samples_per_s": {"value": rate, "unit": "samples/s"}}
    return {"baselines_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"}}


def print_table(title: str, metrics: dict) -> None:
    print(title, file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="monotonic time of process spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--extra-colors", type=int, help="mask_extra_colors for the H4 sampler")
    parser.add_argument("--write-checkpoint", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.extra_colors)
    pf = import_program()
    if args.write_checkpoint:
        write_checkpoint(pf, args.seed, args.extra_colors, args.write_checkpoint)
        return 0
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        workload.setup(pf)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        # A traced run traces every other operation. The untraced ones between
        # them, measured moments apart, give the tracing overhead.
        if tracer is not None:
            tracer.uninstall()
        outputs, times, traced, peaks = [], [], [], []
        started = time.perf_counter()
        while not times or time.perf_counter() - started < args.seconds:
            traced.append(tracer is not None and len(times) % 2 == 0)
            if traced[-1]:
                tracer.op = len(times)
                tracer.install()
            begin = time.perf_counter()
            try:
                out = workload.op()
            except Exception:
                traceback.print_exc()
                out = None
            times.append(time.perf_counter() - begin)
            outputs.append(out)
            peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            if traced[-1]:
                tracer.uninstall()
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.cleanup()

    print("operation ms: " + " ".join(f"{t * 1e3:.1f}" for t in times), file=sys.stderr)
    print("peak MiB after each operation: " + " ".join(f"{p:.1f}" for p in peaks),
          file=sys.stderr)
    first = next((o for o in outputs if o is not None), None)
    if first is None:
        print("error: every operation raised", file=sys.stderr)
        return 1
    failed, wrong = 0, 0
    for i, out in enumerate(outputs):
        if out is None:
            failed += 1
            continue
        errors = workload.check(out, first)
        if errors:
            failed, wrong = failed + 1, wrong + 1
            print(f"operation {i} failed its checks:", *errors[:10], sep="\n  ", file=sys.stderr)

    ok = [o is not None for o in outputs]
    plain = [t for t, good, tr in zip(times, ok, traced) if good and not tr]
    op_ms = statistics.median(plain) * 1e3 if plain else float("nan")
    derived = {"op_count": {"value": len(times), "unit": "count"}}
    derived.update(user_figures(workload, plain))

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": op_ms, "unit": "ms"},
            "best_m_est": {"value": workload.best_m_est(first), "unit": "shots"},
            "peak_rss_mb": {"value": peaks[0], "unit": "MiB"},
        }
        print_table(f"{args.workload} seed {args.seed}", {**metrics, **derived})
    else:
        with_trace = [t for t, good, tr in zip(times, ok, traced) if good and tr]
        units = max(1, len(with_trace) * workload.work_units_per_op)
        counts = [workload.distinct(o) for o in outputs if o is not None]
        extra = {
            "gflownet.distinct_groupings": statistics.mean(d for d, _ in counts),
            "gflownet.distinct_per_trajectory": statistics.mean(d / n for d, n in counts),
        }
        metrics = tracer.layer_metrics(units, extra)
        def figures(times):
            figs = {"op_p50_ms": statistics.median(times) * 1e3} if times else {}
            return figs | {k: v["value"] for k, v in user_figures(workload, times).items()}
        overhead = {"traced": figures(with_trace), "untraced": figures(plain)}
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "units": units,
            "absent": tracer.absent, "overhead": overhead, "per_layer": metrics,
            "spans": tracer.dump(),
        }), encoding="utf-8")
        print_table(f"{args.workload} seed {args.seed} traced ({trace_path.name})", metrics)
        for side, figs in overhead.items():
            print(f"  {side + ' operations:':22s}" + "  ".join(
                f"{k} {v:.6g}" for k, v in figs.items()), file=sys.stderr)
        if tracer.absent:
            print("absent from the program: " + ", ".join(tracer.absent), file=sys.stderr)

    print(json.dumps({"correct": wrong == 0, "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
