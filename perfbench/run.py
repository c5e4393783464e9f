"""pauliflow benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload h4-baselines --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a child process
(perfbench/workload.py) that imports pauliflow from the checkout's src/.
Set-up time is measured from process spawn to the first timed operation in
SETUP_RUNS separate processes, before and after the timed run, and the
median is reported. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, and spans go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("h2-fc-train", "h4-fc-train", "h4-baselines", "h4-fc-sample")
SETUP_RUNS = 5  # one of them is the measured run itself
TIME_LIMIT_S = 170.0
# One BLAS thread: results then repeat bit for bit on any core count, and a
# second busy process on a 2-core machine cannot stall OpenBLAS's spinning
# worker threads (a 2-thread H2 run was measured 14x slower under that load).
BLAS_THREADS = 1


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def extra_colors(seed: int) -> int:
    """mask_extra_colors for the H4 sampler workloads, worked out here in the
    parent so that no child's set-up time includes it."""
    sys.path.insert(0, str(ROOT / "src"))
    import workload

    return workload.h4_extra_colors(workload.import_program(), seed)


def run_child(args, extra: list[str], deadline: float) -> dict:
    """Run workload.py to completion and return the JSON of its last stdout line."""
    t0 = time.monotonic()
    # --t0 has a fixed width: the length of the arguments shifts the child's
    # initial memory layout, and with it whether H4 training's peak holds one
    # more 28 MiB weight-sized array (340 or 368 MiB on one seed).
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", f"{t0:.9f}", *extra]
    # Its own process group, so that a timeout also stops any helper it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "pauliflow" / "__init__.py").is_file():
        print(f"error: no pauliflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    cap_args = []
    if args.workload in ("h4-fc-train", "h4-fc-sample"):
        cap_args = ["--extra-colors", str(extra_colors(args.seed))]
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} blas_threads={BLAS_THREADS} cores={os.cpu_count()}",
          file=sys.stderr)
    # Set-up-only processes run before and after the measured one, so that the
    # median spans the whole run rather than one moment of the machine's load.
    extra_setups = 0 if args.trace else SETUP_RUNS - 1
    try:
        setups = [run_child(args, [*cap_args, "--setup-only"], deadline)["setup_s"]
                  for _ in range(extra_setups // 2)]
        result = run_child(args, cap_args, deadline)
        setups += [run_child(args, [*cap_args, "--setup-only"], deadline)["setup_s"]
                   for _ in range(extra_setups - extra_setups // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s over {len(setups)} processes: "
              + " ".join(f"{s:.4f}" for s in setups), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
