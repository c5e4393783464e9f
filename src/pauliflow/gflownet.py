"""Flow-network sampler over sequential graph colorings.

The MDP colors the conflict graph's vertices in a fixed order (descending
degree, ties by index), one vertex per step. Because the order is fixed,
every state has a unique parent and the state DAG is a tree, so the
flow-matching residual at a state compares the single incoming edge flow
against the total outgoing flow (or the terminal reward).

Actions are colors 1..color_cap. The action mask enforces, in order:
  - properness: no already-colored neighbor holds the candidate color;
  - canonical fresh colors: a candidate may exceed the current maximum
    color by at most one (the first vertex always takes color 1);
  - the cap: candidates never exceed color_cap (taken from a seeded
    random-sequential greedy run plus a user-controlled slack);
  - one-step feasibility: a candidate is dropped if assigning it would
    leave some uncolored neighbor with every color blocked.

The cap can make a partial coloring a dead end despite the feasibility
check (several mutually blocking uncolored vertices); the sampler then
restarts that trajectory and counts the restart. The bundled H4 system does
trigger this: FC at seed 0 with the default cap gives up at iteration 0
after 1616 restarts; widening the cap (mask_extra_colors, `--mask-extra`)
is the workaround. Each training iteration runs the network forward once:
the training rollout records every state's log-flows and hidden activations,
and the flow-matching loss reuses them and runs only the backward pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import CompatGraph, Coloring, build_complement_graph, greedy_color
from .hamio import dump_hamiltonian, loads_hamiltonian
from .measurement import MeasurementConfig
from .nn import (
    AdamState,
    DenseNet,
    NumericError,
    adam_accumulate_and_step,
    check_finite,
    load_checkpoint,
    save_checkpoint,
)
from .pauli import QubitHamiltonian


class NoActionError(ValueError):
    """legal_actions / policy queried on a terminal state."""


class ColoringMDP:
    """Fixed-order coloring MDP over a conflict graph with a color cap."""

    def __init__(self, graph: CompatGraph, color_cap: int):
        if color_cap < 1:
            raise ValueError(f"color_cap must be >= 1, got {color_cap}")
        self.graph = graph
        self.color_cap = color_cap
        degrees = graph.degrees()
        n = graph.n_vertices
        self.vertex_order = np.array(
            sorted(range(n), key=lambda v: (-int(degrees[v]), v)), dtype=np.int64
        )
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

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_actions(self) -> int:
        return self.color_cap

    @property
    def encoding_dim(self) -> int:
        n = self.n_vertices
        return n * (self.color_cap + 1) + n

    def initial_state(self) -> "ColoringState":
        return ColoringState(self, np.zeros(self.n_vertices, dtype=np.int64), 0)


@dataclass(frozen=True)
class ColoringState:
    """Partial coloring with the first `cursor` vertices of the order assigned."""

    mdp: ColoringMDP
    assignment: np.ndarray
    cursor: int

    def __post_init__(self):
        self.assignment.setflags(write=False)

    def is_terminal(self) -> bool:
        return self.cursor == self.mdp.n_vertices

    @property
    def current_vertex(self) -> int:
        if self.is_terminal():
            raise NoActionError("terminal state has no vertex to color")
        return int(self.mdp.vertex_order[self.cursor])

    @property
    def max_color(self) -> int:
        return int(self.assignment.max(initial=0))

    def child(self, action: int) -> "ColoringState":
        """State after coloring the current vertex with color action+1."""
        if not legal_actions(self)[action]:
            raise ValueError(f"action {action} (color {action + 1}) is masked")
        assignment = self.assignment.copy()
        assignment[self.current_vertex] = action + 1
        return ColoringState(self.mdp, assignment, self.cursor + 1)

    def coloring(self) -> Coloring:
        return Coloring(self.assignment.copy())


def encode_state(state: ColoringState) -> np.ndarray:
    """Fixed-length featurization: per-vertex one-hot over {uncolored, colors}
    followed by a one-hot of the vertex being colored (all zero at terminal)."""
    mdp = state.mdp
    n, cap = mdp.n_vertices, mdp.color_cap
    enc = np.zeros(mdp.encoding_dim)
    enc[np.arange(n) * (cap + 1) + state.assignment] = 1.0
    if not state.is_terminal():
        enc[n * (cap + 1) + state.current_vertex] = 1.0
    return enc


def legal_actions(state: ColoringState) -> np.ndarray:
    """Boolean mask over colors 1..color_cap for the vertex at the cursor."""
    if state.is_terminal():
        raise NoActionError("terminal state has no legal actions")
    mdp = state.mdp
    cap = mdp.color_cap
    assignment = state.assignment
    mask = np.zeros(cap, dtype=bool)
    limit = min(state.max_color + 1, cap)
    mask[:limit] = True
    for u in mdp.earlier_neighbors[state.cursor]:
        mask[assignment[u] - 1] = False
    # drop candidates that would block off an uncolored neighbor entirely
    for u in mdp.later_neighbors[state.cursor]:
        blocked = np.zeros(cap, dtype=bool)
        for w in mdp.graph.neighbors(int(u)):
            if assignment[w] != 0:
                blocked[assignment[w] - 1] = True
        if blocked.sum() == cap - 1:
            missing = int(np.flatnonzero(~blocked)[0])
            mask[missing] = False
    return mask


def forward_policy(net: DenseNet, state: ColoringState) -> np.ndarray:
    """Categorical over colors: softmax of the log-flows on unmasked actions."""
    mask = legal_actions(state)
    logits = net.forward(encode_state(state))
    probs = np.zeros_like(logits)
    allowed = logits[mask]
    shifted = np.exp(allowed - allowed.max())
    probs[mask] = shifted / shifted.sum()
    return probs


@dataclass
class Trajectory:
    """One rollout: actions taken per step plus terminal metrics."""

    mdp: ColoringMDP
    actions: np.ndarray  # (n_vertices,) 0-based color indices
    masks: np.ndarray  # (n_vertices, color_cap) legal-action masks seen
    coloring: Coloring
    reward: float
    m_est: float

    @property
    def n_steps(self) -> int:
        return self.actions.shape[0]

    def states(self) -> list[ColoringState]:
        out = [self.mdp.initial_state()]
        for a in self.actions:
            out.append(out[-1].child(int(a)))
        return out


# State encodings are one-hot with exactly n_vertices+1 active entries (one
# color slot per vertex plus the cursor), so the input layer never needs the
# dense encoding: forwards gather rows of W0, and along a trajectory each W0
# row is active over a contiguous step range, which turns the input-layer
# gradient into prefix/suffix sums. Equivalence with the dense DenseNet path
# is pinned by tests.


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
) -> tuple[float, list[np.ndarray]]:
    """Mean flow-matching loss of a rollout batch and its parameter grads.

    actions (B, n) and masks (B, n, cap) are the colors taken and the legal
    colors at each step; rewards (B,) are the terminal rewards. log_flows
    (B, n, cap) and hidden (one (B, n, h_k) array per hidden layer) are the
    network's outputs and tanh activations at states s_0 .. s_{n-1}, as the
    training rollout recorded them, so only the backward pass runs here. A
    trajectory's loss sums the squared log-ratio of inflow to outflow over
    its states, with the terminal outflow replaced by the reward.
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
    order = mdp.vertex_order
    per_step = delta.sum(axis=0)
    suffix = np.flip(np.cumsum(np.flip(delta[:, 1:], axis=1), axis=1), axis=1)
    dw0 = np.zeros_like(net.weights[0])
    dw0[order * (cap + 1)] = np.cumsum(per_step, axis=0)
    dw0[n * (cap + 1) + order] = per_step
    # a trajectory colors each vertex once, so its colored rows are distinct
    colored = order[:-1] * (cap + 1) + actions[:, :-1] + 1
    for b in range(batch):
        dw0[colored[b]] += suffix[b]
    grads[0], grads[1] = dw0, per_step.sum(axis=0)
    return loss, grads


class _BatchRollout:
    """Lockstep sampler: every trajectory colors vertex order[k] at step k.

    Layer-1 preactivations are maintained incrementally per row, since one
    step changes a single vertex slot and the cursor in the encoding. With
    record=True, each step's log-flows and hidden activations are kept for
    the loss (B * n_vertices rows per layer, so sampling does not record).
    """

    def __init__(self, net: DenseNet, mdp: ColoringMDP, batch: int, record: bool = False):
        n, cap = mdp.n_vertices, mdp.color_cap
        self.net = net
        self.mdp = mdp
        self.assignments = np.zeros((batch, n), dtype=np.int64)
        self.blocked = np.zeros((batch, n, cap), dtype=bool)
        self.max_colors = np.zeros(batch, dtype=np.int64)
        self.actions = np.zeros((batch, n), dtype=np.int64)
        self.masks = np.zeros((batch, n, cap), dtype=bool)
        self.dead = np.zeros(batch, dtype=bool)
        self.l1_pre = np.tile(_l1_start(net, mdp), (batch, 1))
        self.log_flows: np.ndarray | None = None
        self.hidden: list[np.ndarray] = []
        if record:
            self.log_flows = np.empty((batch, n, cap))
            self.hidden = [np.empty((batch, n, size)) for size in net.layer_sizes[1:-1]]

    def step_masks(self, k: int) -> np.ndarray:
        mdp = self.mdp
        cap = mdp.color_cap
        v = int(mdp.vertex_order[k])
        limit = np.minimum(self.max_colors + 1, cap)  # (B,)
        mask = np.arange(cap)[None, :] < limit[:, None]
        mask &= ~self.blocked[:, v, :]
        # drop the one color still free for a later neighbor
        blocked = self.blocked[:, mdp.later_neighbors[k], :]
        rows, nbrs = np.nonzero(blocked.sum(axis=2) == cap - 1)
        mask[rows, np.argmin(blocked[rows, nbrs], axis=1)] = False
        return mask

    def logits(self, k: int) -> np.ndarray:
        """Log-flows (B, cap) of every row's state s_k, recorded if asked."""
        out, hidden = self.net.forward_from_pre(self.l1_pre)
        if self.log_flows is not None:
            self.log_flows[:, k] = out
            for kept, h in zip(self.hidden, hidden):
                kept[:, k] = h
        return out

    def apply(self, k: int, actions: np.ndarray, mask: np.ndarray) -> None:
        mdp = self.mdp
        v = int(mdp.vertex_order[k])
        alive = ~self.dead
        picked = mask[np.arange(actions.shape[0]), actions]
        self.dead |= alive & ~picked
        alive = ~self.dead
        self.actions[:, k] = actions
        self.masks[:, k, :] = mask
        colors = actions + 1
        self.assignments[alive, v] = colors[alive]
        self.max_colors[alive] = np.maximum(self.max_colors[alive], colors[alive])
        rows = np.flatnonzero(alive)
        self.blocked[rows[:, None], mdp.later_neighbors[k], actions[rows, None]] = True
        if k + 1 < mdp.n_vertices:
            self.l1_pre[rows] += _l1_step(self.net, mdp, k, colors[rows])

    def take_rows(self, dst: np.ndarray, other: "_BatchRollout", src: np.ndarray) -> None:
        """Overwrite rows dst with rows src of another rollout of the same net."""
        mine = [self.assignments, self.actions, self.masks, self.max_colors, *self.hidden]
        theirs = [other.assignments, other.actions, other.masks, other.max_colors, *other.hidden]
        if self.log_flows is not None:
            mine.append(self.log_flows)
            theirs.append(other.log_flows)
        for to, frm in zip(mine, theirs):
            to[dst] = frm[src]
        self.dead[dst] = False


def _sample_batch(
    net: DenseNet, mdp: ColoringMDP, batch: int, rng: np.random.Generator, record: bool = False
) -> tuple[_BatchRollout, int]:
    """Roll a full lockstep batch; re-rolls dead trajectories. Returns the
    rollout and the number of dead-end restarts. With record=True the
    rollout keeps every state's log-flows and hidden activations."""
    restarts = 0
    rollout = _roll_once(net, mdp, batch, rng, record)
    while rollout.dead.any():
        n_dead = int(rollout.dead.sum())
        restarts += n_dead
        if restarts > 100 * batch:
            raise NumericError(
                f"too many dead-end restarts ({restarts}); color cap {mdp.color_cap} "
                "is too tight for this graph, raise mask_extra_colors"
            )
        fresh = _roll_once(net, mdp, n_dead, rng, record)
        keep = np.flatnonzero(~fresh.dead)
        rollout.take_rows(np.flatnonzero(rollout.dead)[: keep.size], fresh, keep)
    return rollout, restarts


def _roll_once(
    net: DenseNet, mdp: ColoringMDP, batch: int, rng: np.random.Generator, record: bool
) -> _BatchRollout:
    rollout = _BatchRollout(net, mdp, batch, record)
    for k in range(mdp.n_vertices):
        mask = rollout.step_masks(k)
        logits = rollout.logits(k)
        probs = np.where(mask, np.exp(logits - logits.max(axis=1, keepdims=True)), 0.0)
        totals = probs.sum(axis=1)
        stuck = totals <= 0
        if stuck.any():
            # keep the lockstep shape; stuck rows take a dummy action and are
            # flagged dead inside apply()
            probs[stuck, 0] = 1.0
            totals[stuck] = 1.0
        cdf = np.cumsum(probs, axis=1)
        draws = rng.random(batch) * totals
        actions = (cdf < draws[:, None]).sum(axis=1)
        rollout.apply(k, actions.astype(np.int64), mask)
    return rollout


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
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.trajectories_per_iteration < 1:
            raise ValueError("trajectories_per_iteration must be >= 1")
        if self.mask_extra_colors < 0:
            raise ValueError("mask_extra_colors must be >= 0")
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


class TrainedSampler:
    """Trained flow network bound to its Hamiltonian, graph, and color cap."""

    def __init__(
        self,
        hamiltonian: QubitHamiltonian,
        mdp: ColoringMDP,
        net: DenseNet,
        config: TrainConfig,
        adam: AdamState | None = None,
    ):
        self.hamiltonian = hamiltonian
        self.mdp = mdp
        self.net = net
        self.config = config
        self.adam = adam
        self.log: list[IterationLog] = []
        self.discovered: dict[bytes, DiscoveredGrouping] = {}
        self.dead_end_restarts = 0
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

    def _metrics(self, assignment_row: np.ndarray) -> tuple[float, float, int]:
        return _terminal_metrics(
            self.hamiltonian, self.mdp.color_cap, assignment_row, self.config.measurement
        )

    def _record(self, rollout: _BatchRollout, iteration: int) -> np.ndarray:
        rewards = np.empty(rollout.assignments.shape[0])
        for b in range(rollout.assignments.shape[0]):
            row = rollout.assignments[b]
            m_est, rew, colors = self._metrics(row)
            rewards[b] = rew
            key = row.tobytes()
            if key not in self.discovered:
                found = DiscoveredGrouping(
                    assignment=row.copy(),
                    color_count=colors,
                    m_est=m_est,
                    reward=rew,
                    first_iteration=iteration,
                )
                self.discovered[key] = found
                self._best_reward = max(self._best_reward, rew)
                if self._best is None or (m_est, colors) < (self._best.m_est, self._best.color_count):
                    self._best = found
        return rewards

    def sample(self, n: int, rng: np.random.Generator | int = 0):
        """n independent terminal samples as (Coloring, m_est, reward) triples."""
        if n < 1:
            raise ValueError("need at least one sample")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.Generator(np.random.PCG64(rng))
        rollout, restarts = _sample_batch(self.net, self.mdp, n, rng)
        self.dead_end_restarts += restarts
        out = []
        for b in range(n):
            m_est, rew, _ = self._metrics(rollout.assignments[b])
            out.append((Coloring(rollout.assignments[b].copy()), m_est, rew))
        return out

    def save(self, path) -> None:
        if self.adam is None:
            raise ValueError("sampler has no optimizer state to checkpoint")
        best = self.best if self.discovered else None
        metadata = {
            "hamiltonian": dump_hamiltonian(self.hamiltonian),
            "mode": self.config.mode,
            "color_cap": self.mdp.color_cap,
            "epsilon": self.config.measurement.epsilon,
            "lambda0": self.config.measurement.lambda0,
            "seed": self.config.seed,
            "iterations": self.config.iterations,
            "trajectories_per_iteration": self.config.trajectories_per_iteration,
            "mask_extra_colors": self.config.mask_extra_colors,
            "learning_rate": self.config.learning_rate,
            "hidden_sizes": list(self.config.hidden_sizes),
            "accumulation_period": self.config.accumulation_period,
            "best_assignment": None if best is None else best.assignment.tolist(),
        }
        save_checkpoint(path, self.net, self.adam, metadata)

    @classmethod
    def load(cls, path) -> "TrainedSampler":
        net, adam, metadata = load_checkpoint(path)
        try:
            h = loads_hamiltonian(metadata["hamiltonian"])
            color_cap = int(metadata["color_cap"])
            config = TrainConfig(
                iterations=int(metadata["iterations"]),
                trajectories_per_iteration=int(metadata["trajectories_per_iteration"]),
                seed=int(metadata["seed"]),
                mask_extra_colors=int(metadata["mask_extra_colors"]),
                measurement=MeasurementConfig(
                    epsilon=float(metadata["epsilon"]), lambda0=float(metadata["lambda0"])
                ),
                mode=metadata["mode"],
                learning_rate=float(metadata["learning_rate"]),
                hidden_sizes=tuple(metadata["hidden_sizes"]),
                accumulation_period=int(metadata["accumulation_period"]),
            )
        except KeyError as err:  # written by save_checkpoint without the sampler's metadata
            missing = err.args[0]
            raise ValueError(f"not a pauliflow checkpoint: no {missing!r} in its metadata") from err
        mdp = ColoringMDP(build_complement_graph(h, config.mode), color_cap)
        sampler = cls(h, mdp, net, config, adam)
        best = metadata.get("best_assignment")
        if best is not None:
            row = np.asarray(best, dtype=np.int64)
            m_est, rew, colors = sampler._metrics(row)
            found = DiscoveredGrouping(row, colors, m_est, rew, -1)
            sampler.discovered[row.tobytes()] = found
            sampler._best = found
            sampler._best_reward = rew
        return sampler


def _terminal_metrics(
    h: QubitHamiltonian, color_cap: int, assignment: np.ndarray, cfg: MeasurementConfig
) -> tuple[float, float, int]:
    """(m_est, reward, color_count) for a complete assignment row."""
    per_color = np.bincount(
        assignment, weights=h.coefficients() ** 2, minlength=color_cap + 1
    )[1:]
    m_est = float(np.sum(np.sqrt(per_color[per_color > 0])) ** 2 / cfg.epsilon**2)
    colors = int(assignment.max(initial=0))
    rew = float(h.n_terms - colors) + cfg.lambda0 / m_est
    return m_est, rew, colors


def sample_trajectory(
    net: DenseNet,
    mdp: ColoringMDP,
    rng: np.random.Generator,
    hamiltonian: QubitHamiltonian | None = None,
    measurement: MeasurementConfig = MeasurementConfig(),
) -> Trajectory:
    """Single rollout through the masked policy. When the Hamiltonian is
    given, the terminal reward and measurement estimate are filled in."""
    rollout, _ = _sample_batch(net, mdp, 1, rng)
    assignment = rollout.assignments[0]
    if hamiltonian is not None:
        m_est, rew, _ = _terminal_metrics(hamiltonian, mdp.color_cap, assignment, measurement)
    else:
        m_est, rew = float("nan"), 1.0
    return Trajectory(
        mdp=mdp,
        actions=rollout.actions[0].copy(),
        masks=rollout.masks[0].copy(),
        coloring=Coloring(assignment.copy()),
        reward=rew,
        m_est=m_est,
    )


def train(h: QubitHamiltonian, config: TrainConfig | None = None) -> TrainedSampler:
    """Flow-matching training loop; returns the sampler with per-iteration log.

    The color cap is the random-sequential greedy color count (same seed)
    plus config.mask_extra_colors. Each iteration samples a batch, recording
    the network's activations, takes the batch-mean flow-matching loss and
    its gradient from them, and feeds that gradient to Adam, which updates
    parameters every accumulation_period iterations.
    """
    if config is None:
        config = TrainConfig()
    if h.n_terms == 0:
        raise ValueError("Hamiltonian has no groupable terms")
    graph = build_complement_graph(h, config.mode)
    cap = greedy_color(graph, "random_sequential", seed=config.seed).max_color
    cap += config.mask_extra_colors
    mdp = ColoringMDP(graph, cap)
    net = DenseNet.initialize(
        [mdp.encoding_dim, *config.hidden_sizes, mdp.n_actions], seed=config.seed
    )
    adam = AdamState.for_net(
        net, lr=config.learning_rate, accumulation_period=config.accumulation_period
    )
    sampler = TrainedSampler(h, mdp, net, config, adam)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    batch = config.trajectories_per_iteration

    for iteration in range(config.iterations):
        try:
            rollout, restarts = _sample_batch(net, mdp, batch, rng, record=True)
            sampler.dead_end_restarts += restarts
            rewards = sampler._record(rollout, iteration)
            mean_loss, grads = flow_matching_loss(
                net, mdp, rollout.actions, rollout.masks, rewards, rollout.log_flows, rollout.hidden
            )
            if adam_accumulate_and_step(adam, net.parameters(), grads):
                check_finite(net, f"iteration {iteration}")
        except NumericError as err:
            raise NumericError(f"iteration {iteration}: {err}") from err
        best = sampler.best
        sampler.log.append(
            IterationLog(
                iteration=iteration,
                mean_loss=mean_loss,
                best_reward=sampler.best_reward,
                best_m_est=best.m_est,
                best_colors=best.color_count,
            )
        )
    return sampler


def training_log_csv(log: list[IterationLog]) -> str:
    lines = ["iteration,mean_loss,best_reward,best_m_est,best_colors"]
    for row in log:
        lines.append(
            f"{row.iteration},{row.mean_loss!r},{row.best_reward!r},{row.best_m_est!r},{row.best_colors}"
        )
    return "\n".join(lines) + "\n"


def enumerate_terminal_assignments(mdp: ColoringMDP) -> list[np.ndarray]:
    """All reachable terminal assignments under the masked MDP (DFS)."""
    out: list[np.ndarray] = []

    def walk(state: ColoringState):
        if state.is_terminal():
            out.append(state.assignment.copy())
            return
        for action in np.flatnonzero(legal_actions(state)):
            walk(state.child(int(action)))

    walk(mdp.initial_state())
    return out
