"""Dense network with exact reverse-mode gradients, Adam with accumulation,
and versioned checkpoints of the network alone.

Float64 throughout. Hidden layers use tanh; the output layer is linear and is
interpreted downstream as log-flows, so flows stay positive by construction.
The network takes no input vectors: its inputs are one-hot state encodings,
so the sampler in gflownet forms the layer-1 preactivations by adding rows
of W0, and forward_from_pre/backward_to_pre run the layers above. Both
leave the parameters as they are, and backward_to_pre reuses the hidden
activations it is given as scratch. The first layer's gradient is always
row-sparse: only the rows it touches, with their indices. The optimizer mutates
parameters, moments and its gradient accumulator in place, a block of rows
at a time, and must be serialized externally (one writer at a time).
"""
from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .pauli import DimensionError

CHECKPOINT_VERSION = 1
ADAM_BLOCK_BYTES = 1 << 20  # the Adam step's scratch: one block of rows
ADAM_BETA1 = 0.9  # moment decay rates and the denominator's guard
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NumericError(RuntimeError):
    """Non-finite values encountered during training."""


class DenseNet:
    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need one bias vector per weight matrix")
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        shapes = [w.shape for w in self.weights], [b.shape for b in self.biases]
        layers = all(len(w) == 2 and b == w[1:] for w, b in zip(*shapes))
        if not layers or any(w[1] != above[0] for w, above in zip(shapes[0], shapes[0][1:])):
            raise DimensionError(f"weights {shapes[0]} and biases {shapes[1]} do not form a network")

    @classmethod
    def initialize(cls, layer_sizes: list[int], seed: int = 0) -> "DenseNet":
        """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], seeded."""
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.Generator(np.random.PCG64(seed))
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            check_addressable((fan_in, fan_out))
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

    def forward_from_pre(self, pre: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Outputs for rows of layer-1 preactivations (B, h1), plus the tanh
        activations of every hidden layer (empty for a one-layer net)."""
        if self.n_layers == 1:
            return pre, []
        h = np.tanh(pre)
        hidden = [h]
        for k in range(1, self.n_layers - 1):
            h = h @ self.weights[k]
            h += self.biases[k]  # in place: the same bits as h @ W + b
            hidden.append(np.tanh(h, out=h))
        out = h @ self.weights[-1]
        out += self.biases[-1]
        return out, hidden

    def backward_to_pre(
        self, hidden: list[np.ndarray], gout: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Backprop of output gradients (B, out) through the layers above the
        input layer, given forward_from_pre's hidden activations. Returns
        (grads shaped like parameters() with [0:2] left empty, gradient at the
        layer-1 preactivations).

        Consumes `hidden`: once a layer's activations have given its weight
        gradient, they hold its tanh slope 1 - h^2, and then serve as the
        output of the next product of their shape, which may be the returned
        gradient. With hidden layers of one width the pass so allocates one
        (B, h) array, the first product."""
        grads: list[np.ndarray] = [np.empty(0)] * (2 * self.n_layers)
        delta, spent = gout, None
        for k in range(self.n_layers - 1, 0, -1):
            h = hidden[k - 1]
            grads[2 * k] = h.T @ delta
            grads[2 * k + 1] = delta.sum(axis=0)
            out = spent if spent is not None and spent.shape == h.shape else None
            delta = np.matmul(delta, self.weights[k].T, out=out)
            slope = np.square(h, out=h)  # 1 - h^2, in place of the activations
            delta *= np.subtract(1.0, slope, out=slope)
            spent = h
        return grads, delta


@dataclass
class AdamState:
    """Adam moments plus a gradient accumulator that averages over a period."""

    lr: float = 3e-4
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
    state: AdamState, params: list[np.ndarray], grads: list[np.ndarray], rows0: np.ndarray
) -> bool:
    """Accumulate one gradient; on every accumulation_period-th call, apply one
    bias-corrected Adam update with the averaged gradient and reset. grads[0]
    holds only the rows rows0 (distinct row indices) of the first
    parameter's gradient, whose other rows are zero. The update runs in
    place, block by block of rows, with one block-sized scratch array at a
    time. Returns True when parameters changed."""
    if len(grads) != len(params):
        raise DimensionError(f"{len(grads)} gradient arrays for {len(params)} parameters")
    for i, (acc, g, p) in enumerate(zip(state.accum, grads, params)):
        want = (len(rows0), *p.shape[1:]) if i == 0 else p.shape
        if g.shape != want:
            raise DimensionError(f"gradient shape {g.shape} does not match {want}")
        if i > 0:
            acc += g
        else:  # a block of rows at a time, so that no gradient-sized gather is made
            block = max(1, ADAM_BLOCK_BYTES // max(g[:1].nbytes, 1))
            for lo in range(0, len(rows0), block):
                acc[rows0[lo : lo + block]] += g[lo : lo + block]
    state.accum_count += 1
    if state.accum_count < state.accumulation_period:
        return False

    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for arrays in zip(params, state.m, state.v, state.accum):
        block = max(1, ADAM_BLOCK_BYTES * len(arrays[0]) // max(arrays[0].nbytes, 1))
        for lo in range(0, len(arrays[0]), block):
            p, m, v, acc = (a[lo : lo + block] for a in arrays)
            # in place: acc becomes the averaged gradient, then the step, then
            # zero again; scratch holds the other temporaries in turn
            scratch = np.empty_like(p)
            g = np.divide(acc, state.accumulation_period, out=acc)
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
            v *= ADAM_BETA2
            np.square(g, out=scratch)
            v += np.multiply(scratch, 1.0 - ADAM_BETA2, out=scratch)
            denom = np.sqrt(np.divide(v, bc2, out=scratch), out=scratch)
            denom += ADAM_EPS
            step = np.divide(m, bc1, out=acc)
            step *= state.lr
            step /= denom
            p -= step
            acc[...] = 0.0
    state.accum_count = 0
    return True


def check_addressable(shape: tuple[int, ...]) -> None:
    """MemoryError for a float64 array of this shape that no address space
    holds. numpy raises MemoryError for an array it cannot allocate, but
    ValueError for one whose size in bytes does not fit in an intp."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"an array of shape {shape} exceeds the address space")


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
    """Inverse of save_checkpoint. ValueError("not a pauliflow checkpoint:
    ...") for a file that is no npz archive (empty, cut short, or one .npy
    array), and for an archive that lacks an array the loader reads or whose
    version is no scalar or whose layer_sizes are no vector. Other arrays in
    the archive, such as an older writer's Adam state, are not read."""
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not a pauliflow checkpoint: one array, not an npz archive")
        with data:
            version, layer_sizes = data["version"], data["layer_sizes"]
            if version.ndim != 0 or layer_sizes.ndim != 1:
                raise ValueError(f"not a pauliflow checkpoint: version of shape {version.shape}, "
                                 f"layer_sizes of shape {layer_sizes.shape}")
            if int(version) != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {int(version)}")
            n_layers = len(layer_sizes) - 1
            net = DenseNet(
                [data[f"w{k}"] for k in range(n_layers)],
                [data[f"b{k}"] for k in range(n_layers)],
            )
            metadata = json.loads(str(data["metadata"]))
    except (KeyError, EOFError, zipfile.BadZipFile) as err:  # an array missing, or a file empty or cut short
        raise ValueError(f"not a pauliflow checkpoint: {err.args[0]}") from err
    return net, metadata
