"""Command-line front end: group, compare, histogram, export-graph.

Reports are JSON documents (schema_version 1). With --deterministic the
timestamp is omitted and wall times are zeroed so identical invocations
produce byte-identical bytes. Exit codes: 0 success, 2 bad input, flags or
output path (a missing output directory, or an input whose m_est overflows
at --epsilon or whose reward overflows at --lambda0, is caught before any
work; a sampler or sample count too large to hold in memory, or a
--bin-width too fine for a bin index, when it is met), 3 numeric training
failure, 4 invalid coloring for export-graph.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .gflownet import TrainConfig, TrainedSampler, train, training_log_csv
from .graphs import (
    Coloring,
    GraphSizeError,
    InvalidColoringError,
    build_complement_graph,
    coloring_to_dot,
    exact_min_colors,
    greedy_color,
    validate_coloring,
)
# perfbench's tracer wraps this name (graphs.grouping_ms), so it stays bound
from .graphs import coloring_to_grouping  # noqa: F401
from .hamio import HamiltonianParseError, load_hamiltonian
from .measurement import MeasurementConfig, check_metrics_finite, estimate_measurements
from .nn import NumericError

REPORT_SCHEMA_VERSION = 1

GREEDY_METHODS = {
    "greedy-lf": "largest_first",
    "greedy-dsat": "dsatur",
    "greedy-rs": "random_sequential",
}
ALL_METHODS = (*GREEDY_METHODS, "exact", "gflownet", "full")


class CliInputError(Exception):
    """Bad file, flag value, or coloring payload; maps to exit 2."""


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="Hamiltonian file")
    p.add_argument("--mode", required=True, choices=("fc", "qwc"))
    p.add_argument("--epsilon", type=float, default=1.6e-3, help="target accuracy (Hartree)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--deterministic", action="store_true",
                   help="omit timestamp and zero wall times for reproducible bytes")
    # sampler knobs
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--lambda0", type=float, default=1e6)
    p.add_argument("--traj-per-iter", type=int, default=16)
    p.add_argument("--mask-extra", type=int, default=0)
    p.add_argument("--checkpoint", help="save the trained sampler here (gflownet only)")
    p.add_argument("--train-log", help="write the per-iteration CSV log here (gflownet only)")
    p.add_argument("--vertex-limit", type=int, default=20, help="exact-method size cutoff")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauliflow",
        description="Group Pauli-word Hamiltonians into simultaneously measurable fragments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="run one grouping method")
    _add_common_flags(p_group)
    p_group.add_argument("--method", required=True, choices=ALL_METHODS)

    p_cmp = sub.add_parser("compare", help="run several methods and tabulate")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--methods", required=True,
                       help="comma-separated subset of: " + ",".join(ALL_METHODS))

    p_hist = sub.add_parser("histogram", help="sample a trained checkpoint into a 2D histogram CSV")
    p_hist.add_argument("--checkpoint", required=True)
    p_hist.add_argument("--samples", type=int, required=True)
    p_hist.add_argument("--out", required=True)
    p_hist.add_argument("--bin-width", type=float,
                        help="m_est bin width (default: observed range / 100)")
    p_hist.add_argument("--seed", type=int, default=0)

    p_dot = sub.add_parser("export-graph", help="render a colored conflict graph as DOT")
    p_dot.add_argument("--input", required=True)
    p_dot.add_argument("--mode", required=True, choices=("fc", "qwc"))
    p_dot.add_argument("--coloring", required=True,
                       help="JSON file: either [colors...] or {\"assignment\": [colors...]}")
    p_dot.add_argument("--out", required=True)
    p_dot.add_argument("--epsilon", type=float, default=1.6e-3)
    return parser


def _check_flags(*checks: tuple[str, int, int]) -> None:
    """CliInputError naming the first (flag, value, least) whose value is below least."""
    for flag, value, least in checks:
        if value < least:
            raise CliInputError(f"{flag} must be >= {least}, got {value}")


def _check_output_dirs(*paths: str | None) -> None:
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise CliInputError(f"cannot write {path}: no directory {Path(path).parent}")


def _load_input(path: str, epsilon: float, lambda0: float = math.ulp(0.0)):
    """The Hamiltonian in path, if it has terms and a finite m_est and reward
    at epsilon and lambda0 for every grouping (check_metrics_finite). The
    default lambda0, for a command with no reward, is the smallest, which
    rejects only an m_est of 0."""
    try:
        h = load_hamiltonian(path)
    except FileNotFoundError as err:
        raise CliInputError(f"cannot read {path}: {err}") from err
    except HamiltonianParseError as err:
        raise CliInputError(f"{path}: {err}") from err
    if h.n_terms == 0:
        raise CliInputError(f"{path}: no groupable terms")
    try:
        check_metrics_finite(h, MeasurementConfig(epsilon=epsilon, lambda0=lambda0))
    except ValueError as err:
        raise CliInputError(f"{path}: {err}") from err
    return h


def _run_method(h, graph, method: str, args, config: TrainConfig) -> dict:
    started = time.perf_counter()
    extra = {}
    if method == "full":
        coloring = Coloring(np.arange(1, h.n_terms + 1))
    elif method in GREEDY_METHODS:
        coloring = greedy_color(graph, GREEDY_METHODS[method], seed=args.seed)
    elif method == "exact":
        try:
            coloring = exact_min_colors(graph, vertex_limit=args.vertex_limit)
        except GraphSizeError as err:
            raise CliInputError(f"exact: {err}; see --vertex-limit") from err
    elif method == "gflownet":
        try:  # the input layer grows with --mask-extra, each batch with --traj-per-iter
            sampler = train(h, config)
        except MemoryError as err:
            raise CliInputError(
                f"--mask-extra {args.mask_extra}, --traj-per-iter {args.traj_per_iter}: "
                f"the sampler does not fit in memory: {err}"
            ) from err
        best = sampler.best
        coloring = Coloring(best.assignment)
        extra = {
            "color_cap": sampler.mdp.color_cap,
            "distinct_groupings_seen": len(sampler.discovered),
            "best_first_iteration": best.first_iteration,
            "final_mean_loss": sampler.log[-1].mean_loss,
        }
        if args.checkpoint:
            sampler.save(args.checkpoint)
        if args.train_log:
            Path(args.train_log).write_text(training_log_csv(sampler.log), encoding="utf-8")
    else:
        raise CliInputError(f"unknown method {method!r}")

    if not validate_coloring(graph, coloring):
        raise InvalidColoringError("coloring is not proper for this graph")
    m_est = estimate_measurements(h, coloring, epsilon=args.epsilon)
    elapsed = 0.0 if args.deterministic else time.perf_counter() - started
    record = {
        "method": method,
        "color_count": coloring.max_color,
        "m_est": m_est,
        "m_est_millions": m_est / 1e6,
        "wall_time_seconds": elapsed,
        "coloring": [int(c) for c in coloring.assignment],
    }
    record.update(extra)
    return record


def _build_report(args, methods: list[str]) -> dict:
    _check_output_dirs(args.out, args.checkpoint, args.train_log)
    _check_flags(("--iterations", args.iterations, 1), ("--traj-per-iter", args.traj_per_iter, 1),
                 ("--seed", args.seed, 0), ("--mask-extra", args.mask_extra, 0))
    try:  # validates --epsilon and --lambda0 whatever the methods
        config = TrainConfig(
            iterations=args.iterations,
            trajectories_per_iteration=args.traj_per_iter,
            seed=args.seed,
            mask_extra_colors=args.mask_extra,
            measurement=MeasurementConfig(epsilon=args.epsilon, lambda0=args.lambda0),
            mode=args.mode,
        )
    except ValueError as err:
        raise CliInputError(str(err)) from err
    h = _load_input(args.input, args.epsilon, args.lambda0)
    graph = build_complement_graph(h, args.mode)
    records = [_run_method(h, graph, m, args, config) for m in methods]
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "system": Path(args.input).stem,
        "n_p": h.n_terms,
        "n_qubits": h.n_qubits,
        "mode": args.mode,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "config": {
            "iterations": args.iterations,
            "lambda0": args.lambda0,
            "traj_per_iter": args.traj_per_iter,
            "mask_extra": args.mask_extra,
            "deterministic": bool(args.deterministic),
        },
        "methods": records,
    }
    if not args.deterministic:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    by_name = {r["method"]: r for r in records}
    greedy_runs = [by_name[m]["m_est"] for m in GREEDY_METHODS if m in by_name]
    if "gflownet" in by_name and greedy_runs:
        report["reduction_factor"] = by_name["gflownet"]["m_est"] / min(greedy_runs)
    return report


def _emit_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render_table(report: dict) -> str:
    rows = [("method", "M_est[1e6] (colors)", "reduction")]
    reduction = report.get("reduction_factor")
    for rec in report["methods"]:
        cell = f"{rec['m_est_millions']:.4g} ({rec['color_count']})"
        red = f"{reduction:.3f}" if (rec["method"] == "gflownet" and reduction is not None) else "-"
        rows.append((rec["method"], cell, red))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def cmd_group(args) -> int:
    report = _build_report(args, [args.method])
    _emit_report(report, args.out)
    return 0


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise CliInputError("--methods is empty")
    for m in methods:
        if m not in ALL_METHODS:
            raise CliInputError(f"unknown method {m!r}; choose from {','.join(ALL_METHODS)}")
    report = _build_report(args, methods)
    _emit_report(report, args.out)
    table = _render_table(report)
    # keep stdout pure JSON when it carries the report
    (sys.stdout if args.out else sys.stderr).write(table)
    return 0


def cmd_histogram(args) -> int:
    _check_flags(("--samples", args.samples, 1), ("--seed", args.seed, 0))
    if args.bin_width is not None and not 0 < args.bin_width < float("inf"):
        raise CliInputError(f"--bin-width must be a positive, finite number, got {args.bin_width}")
    _check_output_dirs(args.out)
    try:
        sampler = TrainedSampler.load(args.checkpoint)
    except FileNotFoundError as err:
        raise CliInputError(f"cannot read checkpoint {args.checkpoint}: {err}") from err
    except ValueError as err:  # not an .npz archive, or not one the sampler wrote
        reason = str(err)  # the loaders say "not a pauliflow checkpoint" where they can
        if not reason.startswith("not a pauliflow checkpoint"):
            reason = f"not a checkpoint: {reason}"
        raise CliInputError(f"{args.checkpoint} is {reason}") from err
    try:
        samples = sampler.sample(args.samples, rng=args.seed)
    except MemoryError as err:
        raise CliInputError(f"--samples {args.samples}: too many samples to hold in memory: {err}") from err
    m_values = np.array([m for _, m, _ in samples])
    colors = np.array([c.max_color for c, _, _ in samples])
    lo, hi = float(m_values.min()), float(m_values.max())
    width = args.bin_width if args.bin_width is not None else (hi - lo) / 100.0
    if width <= 0:
        width = max(abs(hi), 1.0)  # all samples identical: one bin
    if not (hi - lo) / width < 2.0**63:
        raise CliInputError(f"--bin-width {args.bin_width} cuts the m_est range {hi - lo!r} into too many bins")
    bins = np.floor((m_values - lo) / width).astype(np.int64)
    pairs, counts = np.unique(np.stack([colors, bins]), axis=1, return_counts=True)
    lines = ["max_color,m_est,count"]
    for c, b, count in zip(*pairs.tolist(), counts.tolist()):  # a numpy float's repr reads np.float64(...)
        lines.append(f"{c},{lo + b * width!r},{count}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def cmd_export_graph(args) -> int:
    try:
        MeasurementConfig(epsilon=args.epsilon)
    except ValueError as err:
        raise CliInputError(str(err)) from err
    _check_output_dirs(args.out)
    h = _load_input(args.input, args.epsilon)
    graph = build_complement_graph(h, args.mode)
    try:
        payload = json.loads(Path(args.coloring).read_text(encoding="utf-8"))
    except FileNotFoundError as err:
        raise CliInputError(f"cannot read coloring {args.coloring}: {err}") from err
    except UnicodeDecodeError as err:
        raise CliInputError(f"{args.coloring}: not UTF-8 text: {err}") from err
    except json.JSONDecodeError as err:
        raise CliInputError(f"{args.coloring}: not valid JSON: {err}") from err
    if isinstance(payload, dict):
        payload = payload.get("assignment", payload.get("coloring"))
    if not isinstance(payload, list) or not all(type(v) is int for v in payload):  # bool is an int
        raise CliInputError(f"{args.coloring}: expected a list of colors")

    try:
        coloring = Coloring(np.asarray(payload, dtype=np.int64))
        if not validate_coloring(graph, coloring):
            print("coloring is not a proper coloring of this graph", file=sys.stderr)
            return 4
    except (ValueError, OverflowError) as err:  # the coloring errors are ValueErrors
        print(f"invalid coloring: {err}", file=sys.stderr)
        return 4
    m_est = estimate_measurements(h, coloring, epsilon=args.epsilon)
    dot = coloring_to_dot(h, graph, coloring, label=f"m_est = {m_est:.6g}")
    Path(args.out).write_text(dot, encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "group": cmd_group,
        "compare": cmd_compare,
        "histogram": cmd_histogram,
        "export-graph": cmd_export_graph,
    }
    try:
        return handlers[args.command](args)
    except (CliInputError, OSError) as err:  # OSError: a named file cannot be read or written
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
