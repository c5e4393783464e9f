"""Span tracing from outside pauliflow.

The tracer replaces names that pauliflow looks up at call time (module
globals such as `pauliflow.gflownet.flow_matching_loss`, class attributes
such as `TrainedSampler._record`) with wrappers that record a span: name,
start, end, parent span and operation id. Spans stay in memory until the
run ends. A name the program no longer has is recorded as absent, and the
layer metrics that depend only on absent names are left out of the result
instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

SETUP_OP = -1


def _build_span(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "")
    return f"graphs.build_{mode}"


_build_span.provides = ("graphs.build_fc", "graphs.build_qwc")


def _count_rollout(tracer, args, kwargs, result):
    batch = kwargs.get("batch", args[2] if len(args) > 2 else 0)
    mdp = kwargs.get("mdp", args[1] if len(args) > 1 else None)
    restarts = int(result[1])
    tracer.add("gflownet.restarts", restarts)
    tracer.add("gflownet.rollout_steps", (int(batch) + restarts) * int(mdp.n_vertices))


def _count_loss(tracer, args, kwargs, result):
    tracer.add("gflownet.loss_grad_bytes", sum(int(g.nbytes) for g in result[1]))


def _count_checkpoint(tracer, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    tracer.add("nn.checkpoint_bytes", os.path.getsize(path))
    tracer.add("nn.checkpoint_files", 1)


# (module, class or None, attribute, span name or name function, hook on the result)
SPAN_TARGETS = [
    ("pauliflow.hamio", None, "load_hamiltonian", "hamio.load", None),
    ("pauliflow.cli", None, "load_hamiltonian", "hamio.load", None),
    ("pauliflow.cli", None, "main", "cli", None),
    ("pauliflow.cli", None, "build_complement_graph", _build_span, None),
    ("pauliflow.gflownet", None, "build_complement_graph", _build_span, None),
    ("pauliflow.cli", None, "greedy_color", "graphs.greedy", None),
    ("pauliflow.gflownet", None, "greedy_color", "graphs.greedy", None),
    ("pauliflow.cli", None, "exact_min_colors", "graphs.exact", None),
    ("pauliflow.cli", None, "coloring_to_grouping", "graphs.grouping", None),
    ("pauliflow.cli", None, "estimate_measurements", "measurement.estimate", None),
    ("pauliflow.gflownet", None, "train", "gflownet.train", None),
    ("pauliflow.gflownet", None, "_sample_batch", "gflownet.rollout", _count_rollout),
    ("pauliflow.gflownet", None, "flow_matching_loss", "gflownet.loss", _count_loss),
    ("pauliflow.gflownet", "TrainedSampler", "_record", "gflownet.record", None),
    ("pauliflow.gflownet", "TrainedSampler", "sample", "gflownet.sample", None),
    ("pauliflow.gflownet", None, "adam_accumulate_and_step", "nn.adam", None),
    ("pauliflow.gflownet", None, "check_finite", "nn.check_finite", None),
    ("pauliflow.nn", "DenseNet", "initialize", "nn.init", None),
    ("pauliflow.nn", "AdamState", "for_net", "nn.init", None),
    ("pauliflow.gflownet", None, "load_checkpoint", "nn.checkpoint_load", _count_checkpoint),
]

# Called once per term pair when a conflict graph is built: counted, not spanned.
COUNT_TARGETS = [
    ("pauliflow.graphs", None, "commutes_fc", "pauli.commute_calls"),
    ("pauliflow.graphs", None, "commutes_qwc", "pauli.commute_calls"),
]

# Per-layer metric -> (unit, span whose self time it sums, or None for a counter).
# Values are per work unit: a training iteration on the training workloads,
# an operation on the others. hamio.load_ms and nn.checkpoint_bytes are per call.
LAYER_METRICS = {
    "hamio.load_ms": ("ms", "hamio.load"),
    "pauli.commute_calls": ("count", None),
    "graphs.build_fc_ms": ("ms", "graphs.build_fc"),
    "graphs.build_qwc_ms": ("ms", "graphs.build_qwc"),
    "graphs.greedy_ms": ("ms", "graphs.greedy"),
    "graphs.exact_ms": ("ms", "graphs.exact"),
    "graphs.grouping_ms": ("ms", "graphs.grouping"),
    "measurement.estimate_ms": ("ms", "measurement.estimate"),
    "cli.self_ms": ("ms", "cli"),
    "gflownet.rollout_ms": ("ms", "gflownet.rollout"),
    "gflownet.rollout_steps": ("count", None),
    "gflownet.restarts": ("count", None),
    "gflownet.loss_ms": ("ms", "gflownet.loss"),
    "gflownet.loss_grad_bytes": ("bytes", None),
    "gflownet.train_self_ms": ("ms", "gflownet.train"),
    "gflownet.record_ms": ("ms", "gflownet.record"),
    "nn.adam_ms": ("ms", "nn.adam"),
    "nn.check_finite_ms": ("ms", "nn.check_finite"),
    "nn.init_ms": ("ms", "nn.init"),
    "gflownet.distinct_groupings": ("count", None),
    "gflownet.distinct_per_trajectory": ("ratio", None),
    "gflownet.sample_self_ms": ("ms", "gflownet.sample"),
    "nn.checkpoint_load_ms": ("ms", "nn.checkpoint_load"),
    "nn.checkpoint_bytes": ("bytes", None),
}

# Counters fed by a hook or a counting wrapper, keyed by the span or counter that feeds them.
_COUNTER_SOURCES = {
    "pauli.commute_calls": "pauli.commute_calls",
    "gflownet.rollout_steps": "gflownet.rollout",
    "gflownet.restarts": "gflownet.rollout",
    "gflownet.loss_grad_bytes": "gflownet.loss",
    "nn.checkpoint_bytes": "nn.checkpoint_load",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = SETUP_OP
        self.absent: list[str] = []
        self.broken_hooks: set[str] = set()
        self._stack: list[int] = []
        self._present: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, amount: float) -> None:
        if self.op != SETUP_OP:
            self.counts[name] += amount

    # --- patching --------------------------------------------------------
    def _resolve(self, module_name: str, class_name: str | None, attr: str):
        try:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
        except (ImportError, AttributeError):
            return None, None
        raw = owner.__dict__.get(attr) if class_name else getattr(owner, attr, None)
        return owner, raw

    def _span_wrapper(self, fn, label, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label if isinstance(label, str) else label(args, kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None and name not in tracer.broken_hooks:
                try:
                    hook(tracer, args, kwargs, result)
                except Exception as err:  # a changed signature must not stop the run
                    print(f"trace: hook on {name} disabled: {err!r}", file=sys.stderr)
                    tracer.broken_hooks.add(name)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op != SETUP_OP:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, target, make):
        module_name, class_name, attr = target[:3]
        where = ".".join(p for p in (module_name, class_name, attr) if p)
        owner, raw = self._resolve(module_name, class_name, attr)
        if raw is None:
            self.absent.append(where)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))
        self._present.update(getattr(target[3], "provides", (target[3],)))

    def install(self) -> None:
        self.absent.clear()
        for target in SPAN_TARGETS:
            self._patch(target, lambda fn, t=target: self._span_wrapper(fn, t[3], t[4]))
        for target in COUNT_TARGETS:
            self._patch(target, lambda fn, t=target: self._count_wrapper(fn, t[3]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # --- results ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_metrics(self, units: int, extra: dict[str, float]) -> dict[str, dict]:
        """Per-layer values per work unit; layers whose names are absent are left out."""
        own = self.self_times()
        op_ms: dict[str, float] = defaultdict(float)
        load_ms, load_calls = 0.0, 0
        for s, t in zip(self.spans, own):
            if s[0] == "hamio.load":
                load_ms, load_calls = load_ms + t * 1e3, load_calls + 1
            elif s[4] != SETUP_OP:
                op_ms[s[0]] += t * 1e3
        out = {}
        for name, (unit, span) in LAYER_METRICS.items():
            if name in extra:
                value = extra[name]
            elif name == "hamio.load_ms":
                if not "hamio.load" in self._present:
                    continue
                value = load_ms / max(load_calls, 1)
            elif name == "nn.checkpoint_bytes":
                if not "nn.checkpoint_load" in self._present or "nn.checkpoint_load" in self.broken_hooks:
                    continue
                value = self.counts["nn.checkpoint_bytes"] / max(self.counts["nn.checkpoint_files"], 1)
            elif span is not None:
                if not span in self._present:
                    continue
                value = op_ms[span] / units
            else:
                source = _COUNTER_SOURCES[name]
                if not source in self._present or source in self.broken_hooks:
                    continue
                value = self.counts[name] / units
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
