"""Flow-network sampler over sequential graph colorings.

The MDP colors the conflict graph's vertices in a fixed order (descending
degree, ties by index), one vertex per step. Because the order is fixed,
every state has a unique parent and the state DAG is a tree, so the
flow-matching residual at a state compares the single incoming edge flow
against the total outgoing flow (or the terminal reward).

The lockstep batch rollout, _BatchRollout, is the only implementation of
this MDP: train(), TrainedSampler.sample() and so the histogram command all
run it, its step_masks is the one action mask, and its docstring gives what
a step costs. Every batch rolls into a new _BatchRollout, in near-equal
blocks of at most ROLLOUT_BLOCK_ROWS rows, each on its own copy of the
rollout that holds the block's state until the block ends, one block in
flight per core, so sampling holds the assignment rows and uniforms plus a
block per core, however many rows it asks for. The blocks depend on the
batch size alone, and each draws from its own slice of uniforms drawn up
front, so the rows do not depend on the core count. Every threaded call
runs in one context, _PinnedPool, which pins numpy's OpenBLAS to one thread
and gives an executor: the blocks of a batch roll on a pool of one thread
per core, and train() rolls the next iteration's batch on one helper thread
while the current iteration's loss runs, wherever that loss leaves the
parameters as they are. On one core, for a single block, or where no way to
pin OpenBLAS is found, the call runs on the caller's thread alone.
measurement.batch_metrics gives every finished row's m_est and reward.

Actions are colors 1..color_cap. The action mask enforces, in order:
  - properness: no already-colored neighbor holds the candidate color;
  - canonical fresh colors: a candidate may exceed the current maximum
    color by at most one (the first vertex always takes color 1);
  - the cap: candidates never exceed color_cap (taken from a seeded
    random-sequential greedy run plus a user-controlled slack);
  - one-step feasibility: a candidate is dropped if assigning it would
    leave some uncolored neighbor with every color blocked.

A mask is never empty, so no trajectory dead-ends. When these rules leave a
vertex no color, the mask allows one forced action instead: the first color
none of its colored neighbors holds. If that color is above the cap, the
forced action is the top slot (color_cap) and the vertex takes that color;
the network sees it as color color_cap. The rollout keeps one matrix of the
colors each vertex's neighbors hold, wide enough for every color a row can
take, so the first color it leaves free is the forced color, above the cap
or not, and no mark is ever undone. A forced color is proper and canonical,
and each state still has one parent, so the state space stays a tree. The
cap is therefore a soft limit: rows exceed it only where every lower color
is held by a neighbor. Each training iteration runs the network forward
once: the training rollout records every state's log-flows and hidden
activations, and the flow-matching loss reuses them and runs only the
backward pass.
"""
from __future__ import annotations

import copy
import ctypes
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .graphs import (
    CompatGraph,
    Coloring,
    _degree_key,
    build_complement_graph,
    greedy_color,
    validate_coloring,
)
from .hamio import dump_hamiltonian, loads_hamiltonian
from .measurement import MeasurementConfig, as_real, batch_metrics, check_metrics_finite
from .nn import (
    AdamState,
    DenseNet,
    NumericError,
    adam_accumulate_and_step,
    check_addressable,
    check_finite,
    load_checkpoint,
    save_checkpoint,
)
from .pauli import QubitHamiltonian

# The most rows rolled out at a time, inline or on a pool thread: one block's
# per-row state and (rows, h) forward temporaries stay in cache, and do not
# grow with the sample count. A batch's blocks depend on its size alone, not
# on the core count, so changing this can change the bits of a large batch.
ROLLOUT_BLOCK_ROWS = 128


class ColoringMDP:
    """Fixed-order coloring MDP over a conflict graph with a soft color cap:
    color_cap sets the network's action and encoding width, and a vertex
    goes above it only when every color up to it is held by a neighbor.
    color_bound is the most colors a row can take: a vertex takes at most
    the first color its earlier neighbors leave free, one past their count."""

    def __init__(self, graph: CompatGraph, color_cap: int):
        if color_cap < 1:
            raise ValueError(f"color_cap must be >= 1, got {color_cap}")
        self.graph = graph
        self.color_cap = color_cap
        n = graph.n_vertices
        self.vertex_order = np.argsort(-_degree_key(graph))  # the keys are distinct
        self.order_position = np.empty(n, dtype=np.int64)
        self.order_position[self.vertex_order] = np.arange(n)
        # neighbors of the vertex colored at step k, split by coloring time
        self.earlier_neighbors = []
        self.later_neighbors = []
        for k in range(n):
            nbrs = graph.neighbors(int(self.vertex_order[k]))
            pos = self.order_position[nbrs]
            self.earlier_neighbors.append(nbrs[pos < k])
            self.later_neighbors.append(nbrs[pos > k])
        self.color_bound = max([color_cap, *(1 + len(e) for e in self.earlier_neighbors)])

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def encoding_dim(self) -> int:
        n = self.n_vertices
        return n * (self.color_cap + 1) + n


# State encodings are one-hot with exactly n_vertices+1 active entries (one
# color slot per vertex plus the cursor), so the input layer never needs the
# dense encoding: forwards gather rows of W0, and along a trajectory each W0
# row is active over a contiguous step range, which turns the input-layer
# gradient into prefix/suffix sums. These are the network's only input-layer
# pass; tests pin them to a dense x @ W0 + b0 reference.


def _l1_start(net: DenseNet, mdp: ColoringMDP) -> np.ndarray:
    """Layer-1 preactivation of the initial state (all uncolored, cursor on
    the first vertex of the order)."""
    n, cap = mdp.n_vertices, mdp.color_cap
    w0 = net.weights[0]
    start = net.biases[0] + w0[np.arange(n) * (cap + 1)].sum(axis=0)
    return start + w0[n * (cap + 1) + int(mdp.vertex_order[0])]


def _l1_step(net: DenseNet, mdp: ColoringMDP, k, colors: np.ndarray) -> np.ndarray:
    """Change in layer-1 preactivation when vertex order[k] takes `colors`
    and the cursor moves to order[k+1]. k is a step index with colors (B,)
    giving rows (B, h1); the same expression also takes a vector of steps
    with colors (B, len(k)), giving rows (B, len(k), h1)."""
    n, cap = mdp.n_vertices, mdp.color_cap
    w0 = net.weights[0]
    v = mdp.vertex_order[k]
    slot, cursor = v * (cap + 1), n * (cap + 1)
    return w0[slot + colors] - w0[slot] - w0[cursor + v] + w0[cursor + mdp.vertex_order[k + 1]]


def flow_matching_loss(
    net: DenseNet,
    mdp: ColoringMDP,
    actions: np.ndarray,
    masks: np.ndarray,
    rewards: np.ndarray,
    log_flows: np.ndarray,
    hidden: list[np.ndarray],
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Mean flow-matching loss of a rollout batch, its parameter grads, and
    the rows of the input layer's weights W0 that grads[0] holds.

    actions (B, n) and masks (B, n, cap) are the action slots taken and the
    legal action slots at each step (a forced color above the cap takes the
    top slot); rewards (B,) are the terminal rewards. log_flows
    (B, n, cap) and hidden (one (B, n, h_k) array per hidden layer) are the
    network's outputs and tanh activations at states s_0 .. s_{n-1}, as the
    training rollout recorded them, so only the backward pass runs here; it
    uses hidden as scratch (DenseNet.backward_to_pre). A
    trajectory's loss sums the squared log-ratio of inflow to outflow over
    its states, with the terminal outflow replaced by the reward.
    grads[0] is row-sparse, as adam_accumulate_and_step takes it: W0's gradient
    on the uncolored-slot, cursor and taken colored rows, the only rows it touches.
    """
    batch, n = actions.shape
    cap = mdp.color_cap
    if not np.all(np.isfinite(log_flows)):
        raise NumericError("non-finite log-flows in loss evaluation")
    if np.any(rewards <= 0):
        raise NumericError(f"non-positive terminal reward {rewards.min()}")

    b_idx, k_idx = np.ogrid[:batch, :n]
    edge_log = log_flows[b_idx, k_idx, actions]  # log F(s_k -> s_{k+1})
    top = np.where(masks, log_flows, -np.inf).max(axis=2, keepdims=True)
    flows = np.exp(np.where(masks, log_flows - top, -np.inf))
    totals = flows.sum(axis=2)
    # residual k compares s_k's inflow with its outflow (the reward at s_n)
    residuals = np.zeros((batch, n + 1))
    residuals[:, 1:n] = edge_log[:, :-1] - (top[:, 1:, 0] + np.log(totals[:, 1:]))
    residuals[:, n] = edge_log[:, -1] - np.log(rewards)
    loss = float(np.sum(residuals**2)) / batch
    if not np.isfinite(loss):
        raise NumericError("non-finite flow-matching loss")

    gout = np.zeros_like(log_flows)
    # numerator of residual k lives on the parent row k-1, taken action
    gout[b_idx, k_idx, actions] += 2.0 * residuals[:, 1:]
    # denominator of residual k (non-terminal) spreads over row k's softmax
    gout -= 2.0 * residuals[:, :n, None] * (flows / totals[:, :, None])
    gout /= batch
    hidden = [h.reshape(batch * n, -1) for h in hidden]
    grads, delta = net.backward_to_pre(hidden, gout.reshape(batch * n, cap))
    delta = delta.reshape(batch, n, -1)

    # Vertex order[k]'s uncolored row is active in s_0..s_k, its cursor row
    # in s_k, and its colored row in s_{k+1}..s_{n-1}, so each W0 row's
    # coefficient is a prefix sum, a single step, or a per-trajectory suffix.
    # The three row sets are disjoint.
    order = mdp.vertex_order
    per_step = delta.sum(axis=0)
    suffix = np.flip(delta[:, 1:], axis=1)  # suffix sums, in place in delta
    np.cumsum(suffix, axis=1, out=suffix)
    # a trajectory colors each vertex once, so its colored rows are distinct
    colored, slots = np.unique(order[:-1] * (cap + 1) + actions[:, :-1] + 1, return_inverse=True)
    slots = slots.reshape(batch, n - 1)  # numpy 1.x flattens the inverse
    rows0 = np.concatenate([order * (cap + 1), n * (cap + 1) + order, colored])
    dw0 = np.zeros((rows0.size, delta.shape[2]))
    np.cumsum(per_step, axis=0, out=dw0[:n])
    dw0[n : 2 * n] = per_step
    for b in range(batch):
        dw0[2 * n + slots[b]] += delta[b, 1:]
    grads[0], grads[1] = dw0, per_step.sum(axis=0)
    return loss, grads, rows0


class _BatchRollout:
    """Lockstep sampler: every trajectory colors vertex order[k] at step k.

    The rows roll out block by block, each on its own shallow copy of the
    rollout (_roll_block): start(lo, hi) gives the copy rows lo..hi-1 and
    their per-row state, and step_masks, logits and apply then act on those
    rows. That state (rows, blocked, blocked_counts, max_colors, l1_pre) is
    the only state a step changes besides its rows of the batch arrays, so
    copies can roll disjoint blocks at once, and the rollout itself holds
    the batch arrays alone.

    Layer-1 preactivations are maintained incrementally per row, since one
    step changes a single vertex slot and the cursor in the encoding: a step
    adds to each row the change that its own taken slot makes, four W0 rows
    per row (_l1_step).

    blocked (n, rows, color_bound) marks every color that each vertex's
    colored neighbors hold, forced colors above the cap included,
    vertex-major so that one neighbor's rows are contiguous. Its first
    unmarked column is a vertex's first free color, so a forced top slot
    takes that color and marks it like any other. The mask reads the first
    cap columns, and blocked_counts (n, rows) counts the marks in them. The
    counts serve the one-step feasibility check: it reads a blocked row only
    where a later neighbor has one color up to the cap left. Besides the
    network's forward pass, a step costs a few (n_later, rows) gathers and
    one (rows, h1) add. assignments (B, n) holds the colors taken.

    With record=True, the action slots (B, n), the masks (B, n, cap) and each
    step's log-flows and hidden activations are kept for the loss, their only
    reader (B * n_vertices rows per layer, so sampling does not record).
    A rollout rolls one batch: every _sample_batch call makes a new one.
    """

    def __init__(self, net: DenseNet, mdp: ColoringMDP, batch: int, record: bool = False):
        n, cap = mdp.n_vertices, mdp.color_cap
        self.net = net
        self.mdp = mdp
        self.assignments = np.zeros((batch, n), dtype=np.int64)
        self.actions = self.masks = self.log_flows = None
        self.hidden = []
        if record:
            self.actions = np.empty((batch, n), dtype=np.int64)
            self.masks = np.empty((batch, n, cap), dtype=bool)
            self.log_flows = np.empty((batch, n, cap))
            self.hidden = [np.empty((batch, n, size)) for size in net.layer_sizes[1:-1]]

    def start(self, lo: int, hi: int) -> None:
        """Roll rows lo..hi-1 from the initial state, on new block state."""
        mdp, rows = self.mdp, hi - lo
        n = mdp.n_vertices
        self.rows = slice(lo, hi)
        self.blocked = np.zeros((n, rows, mdp.color_bound), dtype=bool)
        self.blocked_counts = np.zeros((n, rows), dtype=np.min_scalar_type(mdp.color_cap))
        self.max_colors = np.zeros(rows, dtype=np.int64)
        self.l1_pre = np.tile(_l1_start(self.net, mdp), (rows, 1))

    def step_masks(self, k: int) -> np.ndarray:
        mdp = self.mdp
        cap = mdp.color_cap
        v = int(mdp.vertex_order[k])
        limit = np.minimum(self.max_colors + 1, cap)  # (rows,)
        mask = np.arange(cap)[None, :] < limit[:, None]
        mask &= ~self.blocked[v, :, :cap]
        # drop the one color still free for a later neighbor
        later = mdp.later_neighbors[k]
        nbrs, rows = np.nonzero(self.blocked_counts[later] == cap - 1)
        mask[rows, np.argmin(self.blocked[later[nbrs], rows, :cap], axis=1)] = False
        # a row left without a color takes its first free one, or the top slot
        forced = np.flatnonzero(~mask.any(axis=1))
        mask[forced, np.minimum(np.argmin(self.blocked[v, forced], axis=1), cap - 1)] = True
        return mask

    def logits(self, k: int) -> np.ndarray:
        """Log-flows (rows, cap) of every row's state s_k, recorded if asked."""
        out, hidden = self.net.forward_from_pre(self.l1_pre)
        if self.log_flows is not None:
            self.log_flows[self.rows, k] = out
            for kept, h in zip(self.hidden, hidden):
                kept[self.rows, k] = h
        return out

    def apply(self, k: int, actions: np.ndarray, mask: np.ndarray) -> None:
        mdp = self.mdp
        cap = mdp.color_cap
        v = int(mdp.vertex_order[k])
        rows = np.arange(actions.shape[0])
        assignments = self.assignments[self.rows]
        if self.masks is not None:
            self.actions[self.rows, k] = actions
            self.masks[self.rows, k] = mask
        colors = actions + 1
        # a forced top slot whose color a neighbor holds takes the first free one
        over = np.flatnonzero(self.blocked[v, rows, actions])
        colors[over] = np.argmin(self.blocked[v, over], axis=1) + 1
        assignments[:, v] = colors
        np.maximum(self.max_colors, colors, out=self.max_colors)
        later = mdp.later_neighbors[k]
        marked = ~self.blocked[later[:, None], rows, colors - 1]
        self.blocked_counts[later] += marked & (colors <= cap)
        self.blocked[later[:, None], rows, colors - 1] = True
        if k + 1 < mdp.n_vertices:
            self.l1_pre += _l1_step(self.net, mdp, k, actions + 1)


def _available_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# (get, set) thread-count symbols of the OpenBLAS builds that numpy ships or links
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_control():
    """The (get, set) thread-count functions of the OpenBLAS that numpy has
    loaded, or None where none is found. The library is found among the
    files that the process has mapped (/proc/self/maps, so on Linux only)
    and opened with RTLD_NOLOAD, so no second copy is ever loaded. The list
    is read from a file, not walked with dl_iterate_phdr as threadpoolctl
    does: that walk runs its Python callback holding the loader's lock, and
    so deadlocks with a thread that holds the interpreter lock in dlopen, as
    an import or another pool's lookup does."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in maps}
    except OSError:  # no /proc
        return None
    for path in sorted(paths):
        if "openblas" in os.path.basename(path).lower():
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:  # a file deleted since it was mapped
                continue
            for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


class _PinnedPool:
    """Context that gives an executor of `workers` threads, with numpy's
    OpenBLAS pinned to one thread meanwhile, so that threads of ours do not
    each start one per core. Its exit waits for the executor's work and then
    restores the thread count, also on an error. Pools open at once, on the
    caller's threads or nested in one another, share one pin: the first to
    enter saves the count and the last to exit restores it. With no workers,
    or where no setter is found, it gives None and changes nothing, and the
    caller runs inline."""

    # OpenBLAS's thread count is the process's, so its holders are counted here
    lock = threading.Lock()
    holders = 0  # pools open now, on any thread
    saved = 0  # the thread count before the first of them

    def __init__(self, workers: int):
        self.workers = workers
        self.control = _openblas_thread_control() if workers > 0 else None

    def __enter__(self):
        if self.control is None:
            return None
        from concurrent.futures import ThreadPoolExecutor  # only a threaded call pays for the import

        self.pool = ThreadPoolExecutor(self.workers)  # starts its threads on the first submit
        get, set_ = self.control
        with _PinnedPool.lock:
            if _PinnedPool.holders == 0:
                _PinnedPool.saved = get()
                set_(1)
            _PinnedPool.holders += 1
        return self.pool

    def __exit__(self, *exc) -> None:
        if self.control is not None:
            try:
                self.pool.shutdown()
            finally:
                with _PinnedPool.lock:
                    _PinnedPool.holders -= 1
                    if _PinnedPool.holders == 0:
                        self.control[1](_PinnedPool.saved)


def _roll_block(rollout: _BatchRollout, u: np.ndarray, lo: int, hi: int) -> None:
    """Roll rows lo..hi-1 of `rollout` to the end on a shallow copy of it,
    dropped on return, drawing step k's actions with the uniforms u[k, lo:hi]."""
    n, cap = rollout.mdp.n_vertices, rollout.mdp.color_cap
    rollout = copy.copy(rollout)
    rollout.start(lo, hi)
    for k in range(n):
        mask = rollout.step_masks(k)
        logits = rollout.logits(k)
        probs = np.where(mask, np.exp(logits - logits.max(axis=1, keepdims=True)), 0.0)
        cdf = np.cumsum(probs, axis=1)
        draws = u[k, lo:hi] * probs.sum(axis=1)
        actions = (cdf < draws[:, None]).sum(axis=1)
        first, last = mask.argmax(axis=1), cap - 1 - mask[:, ::-1].argmax(axis=1)
        rollout.apply(k, np.clip(actions, first, last), mask)


def _sample_batch(
    net: DenseNet, mdp: ColoringMDP, batch: int, rng: np.random.Generator, record: bool = False
) -> tuple[_BatchRollout, int]:
    """Roll a lockstep batch, drawing each step's action from the softmax of
    the log-flows over the legal slots. Returns the rollout and 0, the number
    of restarts: no mask is empty, so no trajectory is re-rolled (perfbench
    reads the count). With record set the rollout keeps what the loss reads
    (see _BatchRollout).

    One call draws every uniform, u (n, batch), step-major, so u[k] holds
    what rng.random(batch) at step k would give; a batch whose uniforms do
    not fit raises MemoryError before any draw or allocation. The rows then
    roll out in near-equal blocks of at most ROLLOUT_BLOCK_ROWS. The blocks
    depend on the batch size alone, so the core count does not change the
    bits. The block size can: OpenBLAS may round a row of a product
    differently among other rows, so the same rows rolled in other blocks
    can give log-flows that differ in the last bit. A draw is clipped to
    the row's legal slots: u == 0 would pick slot 0, and u times the
    (pairwise) sum of the flows can pass their (sequential) cumulative sum.

    One loop maps _roll_block over the blocks, each of which rolls on its
    own copy of the rollout and writes only its rows of the shared arrays.
    A batch of several blocks on several cores maps them on a _PinnedPool of
    one thread per core (at most one per block); numpy releases the
    interpreter lock in the matrix products and tanh that dominate a step.
    A single block (every training batch of the paper's recipe), a single
    core, or an OpenBLAS whose thread count cannot be set maps them on the
    caller's thread.
    """
    check_addressable((mdp.n_vertices, batch))
    u = rng.random((mdp.n_vertices, batch))
    rollout = _BatchRollout(net, mdp, batch, record)
    blocks = -(-batch // ROLLOUT_BLOCK_ROWS)
    edges = [batch * i // blocks for i in range(blocks + 1)]
    spans = list(zip(edges[:-1], edges[1:]))
    workers = min(blocks, _available_cores())
    with _PinnedPool(workers if workers > 1 else 0) as pool:
        # reading every result raises the first block's error, if any
        for _ in (map if pool is None else pool.map)(lambda span: _roll_block(rollout, u, *span), spans):
            pass
    return rollout, 0


@dataclass
class TrainConfig:
    iterations: int = 1000
    trajectories_per_iteration: int = 16
    seed: int = 0
    mask_extra_colors: int = 0
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    mode: str = "fc"
    learning_rate: float = 3e-4
    hidden_sizes: tuple[int, ...] = (512, 512)
    accumulation_period: int = 10

    def __post_init__(self):
        # as a checkpoint's JSON gives them, so that a loaded config equals the saved one
        if isinstance(self.hidden_sizes, list):
            self.hidden_sizes = tuple(self.hidden_sizes)
        bounds = (("iterations", 1), ("trajectories_per_iteration", 1), ("seed", 0), ("mask_extra_colors", 0),
                  ("accumulation_period", 1))
        for name, least in bounds:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):  # a bool is no count
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            setattr(self, name, int(value))  # save() writes JSON, which has no numpy ints
        self.learning_rate = as_real("learning_rate", self.learning_rate)
        if not 0 < self.learning_rate < float("inf"):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        sizes = self.hidden_sizes
        if not isinstance(sizes, tuple) or not all(  # a bool is no size
            isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s >= 1 for s in sizes
        ):
            raise ValueError(f"hidden_sizes must be ints >= 1, got {sizes!r}")
        self.hidden_sizes = tuple(map(int, sizes))
        if self.mode not in ("fc", "qwc"):
            raise ValueError(f"mode must be 'fc' or 'qwc', got {self.mode!r}")


@dataclass
class IterationLog:
    iteration: int
    mean_loss: float
    best_reward: float
    best_m_est: float
    best_colors: int


@dataclass
class DiscoveredGrouping:
    assignment: np.ndarray
    color_count: int
    m_est: float
    reward: float
    first_iteration: int


# the type of each metadata entry that TrainedSampler.save writes, in its
# order, and load reads: the TrainConfig fields, the measurement settings,
# the Hamiltonian's text and the color cap
_METADATA_TYPES = {
    "hamiltonian": str, "mode": str, "color_cap": int, "epsilon": float, "lambda0": float,
    "seed": int, "iterations": int, "trajectories_per_iteration": int, "mask_extra_colors": int,
    "learning_rate": float, "hidden_sizes": list, "accumulation_period": int,
}


class TrainedSampler:
    """Trained flow network bound to its Hamiltonian, graph, and color cap."""

    def __init__(
        self,
        hamiltonian: QubitHamiltonian,
        mdp: ColoringMDP,
        net: DenseNet,
        config: TrainConfig,
    ):
        self.hamiltonian = hamiltonian
        self.mdp = mdp
        self.net = net
        self.config = config
        self.log: list[IterationLog] = []
        self.discovered: dict[bytes, DiscoveredGrouping] = {}
        self._best: DiscoveredGrouping | None = None
        self._best_reward = -np.inf

    @property
    def best(self) -> DiscoveredGrouping:
        """Lowest measurement estimate found, ties broken by fewer groups."""
        if self._best is None:
            raise ValueError("no terminal states recorded yet")
        return self._best

    @property
    def best_reward(self) -> float:
        return self._best_reward

    def _record(self, assignments: np.ndarray, iteration: int) -> np.ndarray:
        """Add the rows (B, n) not yet discovered, first found at `iteration`,
        update best and best_reward, and return the rows' rewards."""
        m_est, rewards, colors = batch_metrics(self.hamiltonian, assignments, self.config.measurement)
        rows = zip(assignments, m_est.tolist(), rewards.tolist(), colors.tolist())
        for row, m, rew, c in rows:
            key = row.tobytes()
            if key not in self.discovered:
                found = DiscoveredGrouping(row.copy(), c, m, rew, iteration)
                self.discovered[key] = found
                self._best_reward = max(self._best_reward, rew)
                if self._best is None or (m, c) < (self._best.m_est, self._best.color_count):
                    self._best = found
        return rewards

    def sample(self, n: int, rng: np.random.Generator | int = 0):
        """n independent terminal samples as (Coloring, m_est, reward) triples."""
        if n < 1:
            raise ValueError("need at least one sample")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.Generator(np.random.PCG64(rng))
        rollout, _ = _sample_batch(self.net, self.mdp, n, rng)
        m_est, rewards, _ = batch_metrics(
            self.hamiltonian, rollout.assignments, self.config.measurement
        )
        return [
            (Coloring(row.copy()), m, rew)
            for row, m, rew in zip(rollout.assignments, m_est.tolist(), rewards.tolist())
        ]

    def save(self, path) -> None:
        """Checkpoint the network and the metadata load() needs; any sampler,
        one returned by load() included, can be saved."""
        values = {
            **vars(self.config), **vars(self.config.measurement),
            "hamiltonian": dump_hamiltonian(self.hamiltonian), "color_cap": self.mdp.color_cap,
        }
        metadata = {key: values[key] for key in _METADATA_TYPES}
        metadata["best_assignment"] = self.best.assignment.tolist() if self.discovered else None
        save_checkpoint(path, self.net, metadata)

    @classmethod
    def load(cls, path) -> "TrainedSampler":
        """The sampler a checkpoint holds: its network, config and best grouping,
        without the training log or the other discovered groupings."""
        net, metadata = load_checkpoint(path)
        if not isinstance(metadata, dict):
            raise ValueError(f"its metadata {metadata!r} is not a JSON object")
        for key, kind in _METADATA_TYPES.items():
            if key not in metadata:  # written by save_checkpoint without the sampler's metadata
                raise ValueError(f"not a pauliflow checkpoint: no {key!r} in its metadata")
            value = metadata[key]  # JSON: a float may be written as an int, and a bool is an int
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
                raise ValueError(f"its {key} {value!r} is not of type {kind.__name__}")
        hidden_sizes = net.layer_sizes[1:-1]
        if metadata["hidden_sizes"] != hidden_sizes:
            raise ValueError(f"its hidden_sizes {metadata['hidden_sizes']} are not its network's {hidden_sizes}")
        h = loads_hamiltonian(metadata["hamiltonian"])
        color_cap = metadata["color_cap"]
        config = TrainConfig(
            **{key: metadata[key] for key in _METADATA_TYPES if key in TrainConfig.__dataclass_fields__},
            measurement=MeasurementConfig(epsilon=metadata["epsilon"], lambda0=metadata["lambda0"]),
        )
        check_metrics_finite(h, config.measurement)  # before any row is sampled
        mdp = ColoringMDP(build_complement_graph(h, config.mode), color_cap)
        if net.layer_sizes[0] != mdp.encoding_dim or net.layer_sizes[-1] != color_cap:
            raise ValueError(
                f"its network maps {net.layer_sizes[0]} inputs to {net.layer_sizes[-1]} colors, "
                f"but color_cap {color_cap} on {mdp.n_vertices} terms needs {mdp.encoding_dim} inputs"
            )
        sampler = cls(h, mdp, net, config)
        best = metadata.get("best_assignment")
        if best is not None:  # a proper coloring in colors 1..n, as every sampled row is
            n = mdp.n_vertices
            in_range = isinstance(best, list) and all(type(c) is int and 0 < c <= n for c in best)
            if not (in_range and len(best) == n and validate_coloring(mdp.graph, Coloring(np.array(best)))):
                raise ValueError(f"its best_assignment is not a proper coloring of its {n} terms by colors 1..{n}")
            sampler._record(np.array(best, dtype=np.int64)[None], -1)
        return sampler


def train(h: QubitHamiltonian, config: TrainConfig | None = None) -> TrainedSampler:
    """Flow-matching training loop; returns the sampler with per-iteration log.

    The (soft) color cap is the random-sequential greedy color count (same
    seed) plus config.mask_extra_colors. Each iteration samples a batch, recording
    the network's activations, takes the batch-mean flow-matching loss and
    its gradient from them, and feeds that gradient to Adam, which updates
    parameters every accumulation_period iterations.

    On several cores, an iteration that only accumulates its gradient and is
    not the last hands the next iteration's rollout to one helper thread
    (_PinnedPool), right after recording its own rows, and then runs its
    loss and Adam's accumulation: the rollout reads the parameters that the
    loss reads, and rollouts alone draw from the rng, in iteration order, so
    the results are those of the iterations run one after another. Each
    iteration's batch rolls into a new recording rollout, which train()
    drops once its loss has run, so no more than one rollout is alive
    inline and two where it overlaps. On one core, or where OpenBLAS's
    thread count cannot be set, every iteration runs on the caller's
    thread. No thread outlives the call, also when it raises.
    """
    if config is None:
        config = TrainConfig()
    graph = build_complement_graph(h, config.mode)
    cap = greedy_color(graph, "random_sequential", seed=config.seed).max_color
    cap += config.mask_extra_colors
    mdp = ColoringMDP(graph, cap)
    net = DenseNet.initialize(
        [mdp.encoding_dim, *config.hidden_sizes, mdp.color_cap], seed=config.seed
    )
    adam = AdamState.for_net(
        net, lr=config.learning_rate, accumulation_period=config.accumulation_period
    )
    sampler = TrainedSampler(h, mdp, net, config)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    batch = config.trajectories_per_iteration
    overlap = _available_cores() > 1 and config.accumulation_period > 1 and config.iterations > 1
    with _PinnedPool(1 if overlap else 0) as helper:  # its exit waits for a rollout in flight
        ahead = None
        for iteration in range(config.iterations):
            try:
                if ahead is None:
                    rollout, _ = _sample_batch(net, mdp, batch, rng, record=True)
                else:
                    rollout, _ = ahead.result()
                rewards = sampler._record(rollout.assignments, iteration)
                best, best_reward = sampler.best, sampler.best_reward
                accumulates_only = adam.accum_count + 1 < adam.accumulation_period
                ahead = None
                if helper is not None and accumulates_only and iteration + 1 < config.iterations:
                    ahead = helper.submit(_sample_batch, net, mdp, batch, rng, record=True)
                mean_loss, grads, rows0 = flow_matching_loss(
                    net, mdp, rollout.actions, rollout.masks, rewards, rollout.log_flows, rollout.hidden
                )
                del rollout  # free it before the next rollout, which may be rolling already
                if adam_accumulate_and_step(adam, net.parameters(), grads, rows0):
                    check_finite(net, f"iteration {iteration}")
            except NumericError as err:
                raise NumericError(f"iteration {iteration}: {err}") from err
            del grads  # free it before the next loss
            sampler.log.append(IterationLog(iteration=iteration, mean_loss=mean_loss, best_reward=best_reward,
                                            best_m_est=best.m_est, best_colors=best.color_count))
    return sampler


def training_log_csv(log: list[IterationLog]) -> str:
    lines = ["iteration,mean_loss,best_reward,best_m_est,best_colors"]
    for row in log:
        lines.append(
            f"{row.iteration},{row.mean_loss!r},{row.best_reward!r},{row.best_m_est!r},{row.best_colors}"
        )
    return "\n".join(lines) + "\n"
