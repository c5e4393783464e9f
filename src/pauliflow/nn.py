"""Dense network with exact reverse-mode gradients, Adam with accumulation,
and versioned checkpoints of the network alone.

Float64 throughout. Hidden layers use tanh; the output layer is linear and is
interpreted downstream as log-flows, so flows stay positive by construction.
forward/backward accept a single input vector or a batch (rows), and are pure
given the parameters; the optimizer mutates parameters, moments and its
gradient accumulator in place and must be serialized externally (one writer
at a time).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .pauli import DimensionError

CHECKPOINT_VERSION = 1


class NumericError(RuntimeError):
    """Non-finite values encountered during training."""


class DenseNet:
    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need one bias vector per weight matrix")
        for w, b in zip(weights, biases):
            if w.shape[1] != b.shape[0]:
                raise DimensionError(f"bias shape {b.shape} does not match weight {w.shape}")
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]

    @classmethod
    def initialize(cls, layer_sizes: list[int], seed: int = 0) -> "DenseNet":
        """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], seeded."""
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.Generator(np.random.PCG64(seed))
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(weights, biases)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[np.ndarray]:
        """Live references, interleaved [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def _check_input(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise DimensionError(
                f"input width {x.shape[-1] if x.ndim else 0} != expected {self.layer_sizes[0]}"
            )
        return x, single

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Outputs for a vector (d,) or batch (B, d); same leading shape back."""
        x, single = self._check_input(x)
        out, _ = self.forward_from_pre(x @ self.weights[0] + self.biases[0])
        return out[0] if single else out

    def forward_from_pre(self, pre: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Outputs for rows of layer-1 preactivations (B, h1), plus the tanh
        activations of every hidden layer (empty for a one-layer net)."""
        if self.n_layers == 1:
            return pre, []
        h = np.tanh(pre)
        hidden = [h]
        for k in range(1, self.n_layers - 1):
            h = np.tanh(h @ self.weights[k] + self.biases[k])
            hidden.append(h)
        return h @ self.weights[-1] + self.biases[-1], hidden

    def backward(self, x: np.ndarray, output_grad: np.ndarray) -> list[np.ndarray]:
        """Gradient of <forward(x), output_grad> w.r.t. parameters.

        Batched inputs sum gradients over rows. Returns arrays shaped like
        parameters().
        """
        x, single = self._check_input(x)
        gout = np.asarray(output_grad, dtype=np.float64)
        if single:
            gout = gout[None, :]
        if gout.shape != (x.shape[0], self.layer_sizes[-1]):
            raise DimensionError(
                f"output_grad shape {gout.shape} does not match ({x.shape[0]}, {self.layer_sizes[-1]})"
            )
        _, hidden = self.forward_from_pre(x @ self.weights[0] + self.biases[0])
        grads, delta = self.backward_to_pre(hidden, gout)
        grads[0], grads[1] = x.T @ delta, delta.sum(axis=0)
        return grads

    def backward_to_pre(
        self, hidden: list[np.ndarray], gout: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Backprop of output gradients (B, out) through the layers above the
        input layer, given forward_from_pre's hidden activations. Returns
        (grads shaped like parameters() with [0:2] left empty, gradient at the
        layer-1 preactivations)."""
        grads: list[np.ndarray] = [np.empty(0)] * (2 * self.n_layers)
        delta = gout
        for k in range(self.n_layers - 1, 0, -1):
            grads[2 * k] = hidden[k - 1].T @ delta
            grads[2 * k + 1] = delta.sum(axis=0)
            delta = (delta @ self.weights[k].T) * (1.0 - hidden[k - 1] ** 2)
        return grads, delta

    def copy(self) -> "DenseNet":
        return DenseNet([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass
class AdamState:
    """Adam moments plus a gradient accumulator that averages over a period."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    accumulation_period: int = 10
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    accum: list[np.ndarray] = field(default_factory=list)
    accum_count: int = 0

    @classmethod
    def for_net(cls, net: DenseNet, lr: float = 3e-4, accumulation_period: int = 10) -> "AdamState":
        params = net.parameters()
        return cls(
            lr=lr,
            accumulation_period=accumulation_period,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            accum=[np.zeros_like(p) for p in params],
        )


def adam_accumulate_and_step(
    state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]
) -> bool:
    """Accumulate one gradient; on every accumulation_period-th call, apply one
    bias-corrected Adam update with the averaged gradient and reset. The
    update runs in place, with one scratch array per parameter. Returns
    True when parameters changed."""
    if len(grads) != len(params):
        raise DimensionError(f"{len(grads)} gradient arrays for {len(params)} parameters")
    for acc, g, p in zip(state.accum, grads, params):
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        acc += g
    state.accum_count += 1
    if state.accum_count < state.accumulation_period:
        return False

    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for p, m, v, acc in zip(params, state.m, state.v, state.accum):
        # in place: acc becomes the averaged gradient, then the step, then
        # zero again; scratch holds the other temporaries in turn
        scratch = np.empty_like(p)
        g = np.divide(acc, state.accumulation_period, out=acc)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=scratch)
        v *= state.beta2
        np.square(g, out=scratch)
        v += np.multiply(scratch, 1.0 - state.beta2, out=scratch)
        denom = np.sqrt(np.divide(v, bc2, out=scratch), out=scratch)
        denom += state.eps
        step = np.divide(m, bc1, out=acc)
        step *= state.lr
        step /= denom
        p -= step
        acc[...] = 0.0
    state.accum_count = 0
    return True


def check_finite(net: DenseNet, context: str = "") -> None:
    for p in net.parameters():
        if not np.all(np.isfinite(p)):
            raise NumericError(f"non-finite network parameter{': ' + context if context else ''}")


def save_checkpoint(path, net: DenseNet, metadata: dict | None = None) -> None:
    """Versioned npz dump of the layer sizes, the parameters and the metadata."""
    arrays = {
        "version": np.array(CHECKPOINT_VERSION),
        "layer_sizes": np.array(net.layer_sizes),
        "metadata": np.array(json.dumps(metadata or {})),
    }
    for k in range(net.n_layers):
        arrays[f"w{k}"] = net.weights[k]
        arrays[f"b{k}"] = net.biases[k]
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[DenseNet, dict]:
    """Inverse of save_checkpoint; ValueError if an array it reads is missing.
    Other arrays in the archive, such as an older writer's Adam state, are
    not read."""
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["version"])
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            layer_sizes = [int(s) for s in data["layer_sizes"]]
            n_layers = len(layer_sizes) - 1
            net = DenseNet(
                [data[f"w{k}"] for k in range(n_layers)],
                [data[f"b{k}"] for k in range(n_layers)],
            )
            metadata = json.loads(str(data["metadata"]))
    except KeyError as err:  # np.load's archive names the array it lacks
        raise ValueError(f"not a pauliflow checkpoint: {err.args[0]}") from err
    return net, metadata
