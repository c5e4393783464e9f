import json
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent import futures

import numpy as np
import pytest

from oracles import (
    color_of,
    dense_forward,
    encode_state,
    enumerate_terminals,
    estimate_measurements_oracle,
    flow_matching_loss_and_delta,
    flow_matching_loss_dense,
    forced_rollout,
    input_layer_grad_dense,
    legal_actions,
    legal_rows,
    rollout_activations,
    sample_batch_reference,
    terminal_assignments_dfs,
    terminal_metrics_row,
    trajectory_states,
)
from pauliflow import gflownet
from pauliflow.gflownet import (
    ColoringMDP,
    TrainConfig,
    TrainedSampler,
    _BatchRollout,
    _l1_start,
    _l1_step,
    _sample_batch,
    flow_matching_loss,
    train,
    training_log_csv,
)
from pauliflow.graphs import (
    Coloring,
    CompatGraph,
    build_complement_graph,
    coloring_to_grouping,
    greedy_color,
    validate_coloring,
)
from pauliflow.hamio import bundled_path, dump_hamiltonian, load_hamiltonian, loads_hamiltonian
from pauliflow.measurement import MeasurementConfig, batch_metrics, estimate_measurements
from pauliflow.nn import ADAM_BLOCK_BYTES, DenseNet, save_checkpoint
from pauliflow.pauli import PauliWord, QubitHamiltonian


def graph_from_edges(n, edges, mode="fc"):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return CompatGraph(mode=mode, adjacency=adj)


def random_graph(n, p, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    adj = np.triu(rng.random((n, n)) < p, k=1)
    return CompatGraph(mode="fc", adjacency=adj | adj.T)


def loss_of(net, mdp, actions, masks, rewards):
    """flow_matching_loss on activations rebuilt from the actions at the
    net's current parameters: (loss, grads, rows of W0 that grads[0] holds)."""
    return flow_matching_loss(
        net, mdp, actions, masks, rewards, *rollout_activations(net, mdp, actions)
    )


def densify(net, grads, rows0):
    """grads with the row-sparse input-layer block scattered into zeros."""
    dw0 = np.zeros_like(net.weights[0])
    dw0[rows0] = grads[0]
    return [dw0, *grads[1:]]


def sample_batch(net, mdp, rng, batch, hamiltonian=None, measurement=MeasurementConfig()):
    """(actions, masks, rewards) of a `batch`-row rollout; every reward is 1
    when no Hamiltonian is given."""
    rollout, _ = _sample_batch(net, mdp, batch, rng, record=True)
    rewards = np.ones(batch)
    if hamiltonian is not None:
        _, rewards, _ = batch_metrics(hamiltonian, rollout.assignments, measurement)
    return rollout.actions, rollout.masks, rewards


def mask_after(mdp, prefix):
    """The batch mask one trajectory meets after taking the colors `prefix`
    (0-based) at its first len(prefix) steps, which its masks must allow."""
    rollout = forced_rollout(mdp, np.array([prefix], dtype=np.int64))
    assert legal_rows(rollout, len(prefix)).all()
    return rollout.step_masks(len(prefix))[0]


def feasibility_drops(mdp, actions, masks):
    """(B, n, cap): the colors that properness, canonical fresh colors and the
    cap allow at each step of each trajectory but its mask does not, i.e. the
    colors the one-step feasibility check dropped."""
    batch, n = actions.shape
    colors = actions + 1
    before = np.zeros((batch, n), dtype=np.int64)  # max color before each step
    before[:, 1:] = np.maximum.accumulate(colors[:, :-1], axis=1)
    allowed = np.arange(mdp.color_cap) < np.minimum(before + 1, mdp.color_cap)[:, :, None]
    for k in range(n):
        earlier = mdp.order_position[mdp.earlier_neighbors[k]]
        allowed[np.arange(batch)[:, None], k, colors[:, earlier] - 1] = False
    return allowed & ~masks


def max_relative_error(got, want):
    return max(
        float(np.max(np.abs(g - w), initial=0.0) / max(np.max(np.abs(w), initial=0.0), 1e-300))
        for g, w in zip(got, want)
    )


def tiny_config(**overrides):
    base = dict(
        iterations=5,
        trajectories_per_iteration=4,
        seed=0,
        hidden_sizes=(16,),
        mode="fc",
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestMDPAndMasks:
    def test_vertex_order_descending_degree(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        mdp = ColoringMDP(g, 3)
        # degrees: 1:3, 2:2, 3:2, 0:1 -> ties by index
        assert list(mdp.vertex_order) == [1, 2, 3, 0]

    def test_first_vertex_only_fresh_color(self):
        mdp = ColoringMDP(random_graph(6, 0.5, 1), 4)
        mask = mask_after(mdp, [])
        assert mask[0] and not mask[1:].any()

    def test_edgeless_second_vertex_two_choices(self):
        mdp = ColoringMDP(graph_from_edges(3, []), 3)
        assert list(mask_after(mdp, [0])) == [True, True, False]

    def test_neighbors_block_colors(self):
        # path 0-1-2 with cap 3: vertex order 1,0,2
        mdp = ColoringMDP(graph_from_edges(3, [(0, 1), (1, 2)]), 3)
        mask = mask_after(mdp, [0])  # vertex 1 -> color 1; now vertex 0, adjacent to 1
        assert list(mask) == [False, True, False]

    def test_doom_avoidance_on_tight_cap(self):
        # complete bipartite {0,1}x{2,3} conflictless within sides, cap 2:
        # giving the second left vertex a second color would strand the right side
        g = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        mdp = ColoringMDP(g, 2)
        mask = mask_after(mdp, [0])  # second vertex, same side
        assert mask[0] and not mask[1]

    def test_masks_never_empty_on_bundled_h2(self):
        """Every state reached by taking one of the first two legal colors at
        each step has a legal color, level by level through one rollout each."""
        h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
        for mode in ("fc", "qwc"):
            g = build_complement_graph(h, mode)
            cap = greedy_color(g, "random_sequential", seed=0).max_color
            mdp = ColoringMDP(g, cap)
            prefixes = np.zeros((1, 0), dtype=np.int64)
            for k in range(mdp.n_vertices):
                rollout = forced_rollout(mdp, prefixes)
                assert legal_rows(rollout, k).all()
                masks = rollout.step_masks(k)
                assert masks.any(axis=1).all()
                prefixes = np.array(
                    [[*row, a] for row, mask in zip(prefixes, masks) for a in np.flatnonzero(mask)[:2]],
                    dtype=np.int64,
                )

    def test_reachable_states_always_proper(self):
        for seed in range(10):
            g = random_graph(5, 0.5, seed)
            cap = greedy_color(g, "random_sequential", seed=seed).max_color
            mdp = ColoringMDP(g, cap)
            terminals = enumerate_terminals(mdp)
            assert len(terminals) > 0
            for assignment in terminals:
                same = assignment[:, None] == assignment[None, :]
                assert not np.any(same & g.adjacency)

    def test_batch_enumeration_matches_scalar_dfs(self):
        """Forcing every action row through the batch mask keeps the terminal
        set that a DFS over the scalar legal_actions reaches, forced colors
        above the cap included, and the DFS meets no dead end."""
        over_cap = 0
        for seed in range(12):
            g = random_graph(8, 0.5, seed)
            mdp = ColoringMDP(g, greedy_color(g, "random_sequential", seed=seed).max_color)
            batch = {a.tobytes() for a in enumerate_terminals(mdp)}
            scalar, dead = terminal_assignments_dfs(mdp)
            assert batch == {a.tobytes() for a in scalar}
            assert len(scalar) == len(batch) > 0
            assert dead == 0
            over_cap += sum(int(a.max() > mdp.color_cap) for a in scalar)
        assert over_cap > 0


class TestEncoding:
    """The dense encoding the sparse input layer is pinned to (TestSparseInputFastPath)."""

    def test_initial_encoding(self):
        mdp = ColoringMDP(graph_from_edges(3, [(0, 1)]), 2)
        enc = encode_state(mdp, np.zeros(3, dtype=np.int64), 0)
        assert enc.shape == (mdp.encoding_dim,)
        # every vertex in the "uncolored" slot
        for v in range(3):
            assert enc[v * 3] == 1.0
        # cursor = highest-degree vertex (0)
        assert enc[9 + mdp.vertex_order[0]] == 1.0

    def test_terminal_encoding_has_no_uncolored_or_cursor(self):
        mdp = ColoringMDP(graph_from_edges(2, [(0, 1)]), 2)
        enc = encode_state(mdp, trajectory_states(mdp, [0, 1])[-1], 2)
        n, cap = 2, 2
        for v in range(n):
            assert enc[v * (cap + 1)] == 0.0
        assert not enc[n * (cap + 1) :].any()

    def test_injective_over_reachable_states_4_vertices(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        cap = greedy_color(g, "random_sequential", seed=0).max_color + 1
        mdp = ColoringMDP(g, cap)
        seen = {}

        def walk(assignment, cursor):
            key = encode_state(mdp, assignment, cursor).tobytes()
            ident = (assignment.tobytes(), cursor)
            if key in seen:
                assert seen[key] == ident, "two distinct states share an encoding"
            seen[key] = ident
            if cursor == mdp.n_vertices:
                return
            for action in np.flatnonzero(legal_actions(mdp, assignment, cursor)):
                child = assignment.copy()
                child[mdp.vertex_order[cursor]] = color_of(mdp, assignment, cursor, action)
                walk(child, cursor + 1)

        walk(np.zeros(4, dtype=np.int64), 0)
        assert len(seen) > 4


class TestForwardPolicy:
    """The rollout draws each step's color from the softmax of the log-flows
    over the legal colors."""

    def test_single_allowed_action_probability_one(self):
        mdp = ColoringMDP(graph_from_edges(2, [(0, 1)]), 2)
        net = DenseNet.initialize([mdp.encoding_dim, 8, 2], seed=0)
        rollout, _ = _sample_batch(net, mdp, 50, np.random.Generator(np.random.PCG64(0)), record=True)
        assert (rollout.actions == [0, 1]).all()

    def test_zero_net_uniform_over_allowed(self):
        mdp = ColoringMDP(graph_from_edges(3, []), 3)
        net = DenseNet(
            [np.zeros((mdp.encoding_dim, 3))], [np.zeros(3)]
        )
        rollout, _ = _sample_batch(net, mdp, 4000, np.random.Generator(np.random.PCG64(0)), record=True)
        second = rollout.actions[:, 1]  # colors 1 and 2 are legal
        assert not (second == 2).any()
        assert np.mean(second == 0) == pytest.approx(0.5, abs=0.03)

    def test_shift_invariance(self):
        mdp = ColoringMDP(graph_from_edges(3, []), 3)
        net = DenseNet.initialize([mdp.encoding_dim, 6, 3], seed=2)
        a, _ = _sample_batch(net, mdp, 200, np.random.Generator(np.random.PCG64(2)), record=True)
        net.biases[-1] += 7.3  # constant shift of all log-flows
        b, _ = _sample_batch(net, mdp, 200, np.random.Generator(np.random.PCG64(2)), record=True)
        assert np.array_equal(a.actions, b.actions)

    def test_sums_to_one(self):
        """Second-step color frequencies match the masked softmax of the dense
        network's log-flows, a distribution over the legal colors."""
        mdp = ColoringMDP(graph_from_edges(4, []), 3)
        net = DenseNet.initialize([mdp.encoding_dim, 8, 3], seed=5)
        rollout, _ = _sample_batch(net, mdp, 20000, np.random.Generator(np.random.PCG64(5)), record=True)
        state = trajectory_states(mdp, [0])[-1]  # the first vertex always takes color 1
        mask = legal_actions(mdp, state, 1)
        logits = dense_forward(net, encode_state(mdp, state, 1))
        probs = np.where(mask, np.exp(logits - logits[mask].max()), 0.0)
        probs /= probs.sum()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        freq = np.bincount(rollout.actions[:, 1], minlength=3) / 20000
        assert np.all(freq[~mask] == 0.0)
        assert np.allclose(freq, probs, atol=0.02)


class TestSampling:
    def test_one_vertex_deterministic(self):
        h = QubitHamiltonian(1, [(1.0, PauliWord.from_text("Z0", 1))])
        g = build_complement_graph(h, "fc")
        mdp = ColoringMDP(g, 1)
        net = DenseNet.initialize([mdp.encoding_dim, 4, 1], seed=0)
        rng = np.random.Generator(np.random.PCG64(0))
        rollout, _ = _sample_batch(net, mdp, 1, rng)
        _, rewards, _ = batch_metrics(h, rollout.assignments, MeasurementConfig())
        assert list(rollout.assignments[0]) == [1]
        assert rewards[0] > 0

    def test_sampled_colorings_always_valid(self):
        for seed in range(6):
            g = random_graph(7, 0.45, seed)
            cap = greedy_color(g, "random_sequential", seed=seed).max_color
            mdp = ColoringMDP(g, cap)
            net = DenseNet.initialize([mdp.encoding_dim, 8, cap], seed=seed)
            rng = np.random.Generator(np.random.PCG64(seed))
            rollout, _ = _sample_batch(net, mdp, 25, rng)
            for row in rollout.assignments:
                coloring = Coloring(row)
                assert validate_coloring(g, coloring)
                assert coloring.max_color <= cap

    def test_every_cap_gives_complete_proper_canonical_rows(self):
        """At every cap from 1 to the greedy color count, no row dead-ends:
        every sampled row is complete, proper and canonical, and a color
        above the cap appears only where earlier neighbors hold every lower
        color."""
        checked = over = 0
        for seed in range(50):
            rng = np.random.Generator(np.random.PCG64(seed))
            g = random_graph(int(rng.integers(4, 16)), float(rng.uniform(0.2, 0.8)), seed)
            for cap in range(1, greedy_color(g, "random_sequential", seed=seed).max_color + 1):
                mdp = ColoringMDP(g, cap)
                net = DenseNet.initialize([mdp.encoding_dim, 8, cap], seed=seed)
                rows = _sample_batch(net, mdp, 96, rng)[0].assignments
                assert (rows >= 1).all()
                assert not (g.adjacency & (rows[:, :, None] == rows[:, None, :])).any()
                ordered = rows[:, mdp.vertex_order]
                highest = np.maximum.accumulate(ordered, axis=1)
                assert (ordered[:, 0] == 1).all() and (ordered[:, 1:] <= highest[:, :-1] + 1).all()
                for b, k in zip(*np.nonzero(ordered > cap)):
                    held = set(rows[b, mdp.earlier_neighbors[k]].tolist())
                    assert held >= set(range(1, ordered[b, k]))
                    over += 1
                checked += rows.shape[0]
        assert checked > 15000 and over > 0

    @pytest.mark.parametrize("name, mode, width", [
        ("h2_sto3g_1A_jw.ham", "fc", 5), ("h2_sto3g_1A_jw.ham", "qwc", 5),
        ("h4_chain_sto3g_1A_jw.ham", "fc", 73), ("h4_chain_sto3g_1A_jw.ham", "qwc", 133),
        ("synthetic_10term.ham", "fc", 3), ("synthetic_10term.ham", "qwc", 5),
    ])
    def test_blocked_width_holds_every_color_on_bundled_systems(self, monkeypatch, name, mode, width):
        """At the default cap the blocked matrix has a column for every color
        a row can take, the cap or one past the most earlier neighbors of any
        vertex, and no sampled color goes past it. The matrix is read from
        the block's copy of the rollout, as start() leaves it."""
        g = build_complement_graph(load_hamiltonian(bundled_path(name)), mode)
        cap = greedy_color(g, "random_sequential", seed=0).max_color
        mdp = ColoringMDP(g, cap)
        assert mdp.color_bound == max(cap, 1 + max(len(e) for e in mdp.earlier_neighbors)) == width
        net = DenseNet.initialize([mdp.encoding_dim, 8, cap], seed=0)
        shapes, start = [], _BatchRollout.start

        def spy(self, lo, hi):
            start(self, lo, hi)
            shapes.append(self.blocked.shape)

        monkeypatch.setattr(_BatchRollout, "start", spy)
        rollout, _ = _sample_batch(net, mdp, 64, np.random.Generator(np.random.PCG64(0)))
        assert shapes == [(mdp.n_vertices, 64, width)]
        assert rollout.assignments.max() <= width

    def test_batch_masks_match_scalar_legal_actions(self):
        """The lockstep sampler must agree with the reference state machinery
        on every row and step, feasibility drops included."""
        drops = 0
        for seed in range(5):
            g = random_graph(10 + seed % 3, 0.5, seed)
            cap = greedy_color(g, "random_sequential", seed=seed).max_color
            mdp = ColoringMDP(g, cap)
            net = DenseNet.initialize([mdp.encoding_dim, 8, cap], seed=seed)
            rng = np.random.Generator(np.random.PCG64(seed + 99))
            rollout, _ = _sample_batch(net, mdp, 32, rng, record=True)
            for b in range(32):
                states = trajectory_states(mdp, rollout.actions[b])
                for k in range(mdp.n_vertices):
                    assert np.array_equal(rollout.masks[b, k], legal_actions(mdp, states[k], k))
                assert np.array_equal(states[-1], rollout.assignments[b])
            drops += int(feasibility_drops(mdp, rollout.actions, rollout.masks).sum())
        assert drops > 0


class TestSparseInputFastPath:
    """The rollout and the loss avoid dense one-hot encodings; pin them to them."""

    def trajectory_and_encodings(self, seed):
        g = random_graph(6, 0.5, seed)
        cap = greedy_color(g, "random_sequential", seed=seed).max_color + 1
        mdp = ColoringMDP(g, cap)
        net = DenseNet.initialize([mdp.encoding_dim, 10, 7, cap], seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        rollout, _ = _sample_batch(net, mdp, 1, rng, record=True)
        actions, masks = rollout.actions[0], rollout.masks[0]
        states = trajectory_states(mdp, actions)[:-1]
        enc = np.stack([encode_state(mdp, a, k) for k, a in enumerate(states)])
        return mdp, net, actions, masks, enc

    @pytest.mark.parametrize("seed", range(5))
    def test_l1_pre_matches_dense(self, seed):
        mdp, net, actions, _, enc = self.trajectory_and_encodings(seed)
        steps = _l1_step(net, mdp, np.arange(actions.size - 1), actions[None, :-1] + 1)
        fast = np.cumsum(np.vstack([_l1_start(net, mdp), steps[0]]), axis=0)
        dense = enc @ net.weights[0] + net.biases[0]
        assert np.allclose(fast, dense, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_l1_grads_match_dense(self, seed):
        mdp, net, actions, masks, _ = self.trajectory_and_encodings(seed)
        rewards = np.array([0.5 + seed])
        grads = densify(net, *loss_of(net, mdp, actions[None], masks[None], rewards)[1:])
        _, dense = flow_matching_loss_dense(net, mdp, actions[None], rewards)
        assert np.allclose(grads[0], dense[0], atol=1e-12)
        assert np.allclose(grads[1], dense[1], atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_rollout_logits_match_dense_forward(self, seed):
        mdp, net, actions, masks, enc = self.trajectory_and_encodings(seed)
        rollout = _BatchRollout(net, mdp, 1)
        rollout.start(0, 1)
        for k in range(actions.size):
            assert np.allclose(rollout.logits(k)[0], dense_forward(net, enc[k]), atol=1e-10)
            rollout.apply(k, actions[k : k + 1], masks[k][None])

    @pytest.mark.parametrize("n_vertices, p, seed", [(9, 0.5, 3), (10, 0.5, 1), (12, 0.4, 2)])
    def test_recorded_activations_match_dense_forward(self, n_vertices, p, seed):
        """A training rollout's recorded log-flows and activations are the
        dense network's on every visited state, rows forced past the cap
        included."""
        g = random_graph(n_vertices, p, seed)
        mdp = ColoringMDP(g, greedy_color(g, "random_sequential", seed=seed).max_color)
        net = DenseNet.initialize([mdp.encoding_dim, 10, 7, mdp.color_cap], seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        rollout, _ = _sample_batch(net, mdp, 6, rng, record=True)
        assert (rollout.assignments > mdp.color_cap).any()  # the cap is tight enough to force
        for b in range(6):
            states = trajectory_states(mdp, rollout.actions[b, :-1])
            enc = np.stack([encode_state(mdp, a, k) for k, a in enumerate(states)])
            assert np.allclose(rollout.log_flows[b], dense_forward(net, enc), rtol=0, atol=1e-10)
            _, dense_hidden = net.forward_from_pre(enc @ net.weights[0] + net.biases[0])
            for kept, dense in zip(rollout.hidden, dense_hidden, strict=True):
                assert np.allclose(kept[b], dense, rtol=0, atol=1e-10)
        rewards = rng.uniform(0.1, 5.0, size=6)
        loss, grads, rows0 = flow_matching_loss(
            net, mdp, rollout.actions, rollout.masks, rewards, rollout.log_flows, rollout.hidden
        )
        dense_loss, dense_grads = flow_matching_loss_dense(net, mdp, rollout.actions, rewards)
        assert loss == pytest.approx(dense_loss, rel=1e-10)
        assert max_relative_error(densify(net, grads, rows0), dense_grads) < 1e-10

    @pytest.mark.parametrize("n_vertices, p, seed", [(12, 0.5, 0), (24, 0.3, 3), (30, 0.3, 2), (30, 0.3, 3)])
    def test_matches_reference_rollout(self, n_vertices, p, seed):
        """Counted blocked colors, the vectorised forced colors and the
        layer-1 updates draw the same samples, bit for bit, as the
        straightforward masks and updates."""
        g = random_graph(n_vertices, p, seed)
        mdp = ColoringMDP(g, greedy_color(g, "random_sequential", seed=seed).max_color)
        net = DenseNet.initialize([mdp.encoding_dim, 10, 7, mdp.color_cap], seed=seed)

        def run(sample):
            return sample(net, mdp, 16, np.random.Generator(np.random.PCG64(seed)), record=True)

        fast, _ = run(_sample_batch)
        ref, _ = run(sample_batch_reference)
        for name in ("actions", "masks", "assignments", "log_flows"):
            assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
        for kept, want in zip(fast.hidden, ref.hidden, strict=True):
            assert np.array_equal(kept, want)
        assert (fast.assignments > mdp.color_cap).any()
        assert feasibility_drops(mdp, fast.actions, fast.masks).any()

    def test_sampling_does_not_record(self):
        g = random_graph(6, 0.5, 0)
        mdp = ColoringMDP(g, greedy_color(g, "random_sequential", seed=0).max_color + 1)
        net = DenseNet.initialize([mdp.encoding_dim, 8, mdp.color_cap], seed=0)
        rollout, _ = _sample_batch(net, mdp, 4, np.random.Generator(np.random.PCG64(0)))
        assert rollout.log_flows is None and rollout.hidden == []
        assert rollout.actions is None and rollout.masks is None


class StubUniforms:
    """A generator whose every uniform is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


@pytest.fixture
def frequent_thread_switches():
    """The interpreter switches threads every microsecond, so that a race
    between threads that share state would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestBlockedRollout:
    """A batch rolls out ROLLOUT_BLOCK_ROWS rows at a time, with the samples
    that one block of all rows gives. The networks are tiny so that a
    block's matrix products round every row as the whole batch's do."""

    BLOCK = 7

    @pytest.mark.parametrize("batch", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("record", [False, True])
    def test_blocks_give_the_rows_of_one_block(self, monkeypatch, batch, record):
        self.check_rows_of_one_block(monkeypatch, batch, record)

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_any_core_count_gives_the_rows_of_one_block(
        self, monkeypatch, frequent_thread_switches, record, cores
    ):
        """Blocks rolled inline (one core) or by a pool of threads, up to
        more threads than this machine may have cores, give the rows of one
        block."""
        monkeypatch.setattr(gflownet, "_available_cores", lambda: cores)
        self.check_rows_of_one_block(monkeypatch, 3 * self.BLOCK + 5, record)

    def check_rows_of_one_block(self, monkeypatch, batch, record):
        forced = False
        for n_vertices, p, seed in [(12, 0.5, 0), (24, 0.3, 3), (30, 0.3, 2)]:
            g = random_graph(n_vertices, p, seed)
            mdp = ColoringMDP(g, greedy_color(g, "random_sequential", seed=seed).max_color)
            net = DenseNet.initialize([mdp.encoding_dim, 6, 5, mdp.color_cap], seed=seed)

            def run(block):
                monkeypatch.setattr(gflownet, "ROLLOUT_BLOCK_ROWS", block)
                rng = np.random.Generator(np.random.PCG64(seed))
                return _sample_batch(net, mdp, batch, rng, record=record)[0]

            blocked, whole = run(self.BLOCK), run(batch)
            names = ("actions", "masks", "assignments", "log_flows") if record else ("assignments",)
            for name in names:
                assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name
            assert len(blocked.hidden) == (2 if record else 0)
            for kept, want in zip(blocked.hidden, whole.hidden, strict=True):
                assert np.array_equal(kept, want)
            forced |= bool((blocked.assignments > mdp.color_cap).any())
        assert forced or batch < 2 * self.BLOCK  # forced colors are rolled out too

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_blocks_are_the_same_on_any_core_count(self, monkeypatch, cores):
        """A batch rolls in near-equal blocks of at most ROLLOUT_BLOCK_ROWS
        rows, inline or pooled: the blocks depend on the batch size alone,
        not on the core count."""
        spans = []
        monkeypatch.setattr(gflownet, "_available_cores", lambda: cores)
        monkeypatch.setattr(gflownet, "_roll_block", lambda rollout, u, lo, hi: spans.append((lo, hi)))
        g = random_graph(12, 0.5, 0)
        mdp = ColoringMDP(g, greedy_color(g, "random_sequential", seed=0).max_color)
        net = DenseNet.initialize([mdp.encoding_dim, 6, mdp.color_cap], seed=0)
        block = gflownet.ROLLOUT_BLOCK_ROWS
        assert block == 128
        for batch, rows in [(1, [1]), (128, [128]), (129, [64, 65]), (256, [128] * 2), (600, [120] * 5),
                            (2048, [128] * 16)]:
            spans.clear()
            _sample_batch(net, mdp, batch, np.random.Generator(np.random.PCG64(0)))
            spans.sort()
            assert [hi - lo for lo, hi in spans] == rows
            assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]] and spans[-1][1] == batch
            assert max(rows) <= block and (len(rows) == 1 or min(rows) >= block // 2)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_returned_rollout_holds_no_block_state(self, monkeypatch, cores):
        """Every block, inline or pooled, rolls on its own copy of the rollout,
        so the rollout that _sample_batch returns holds the batch arrays alone:
        no block's rows, blocked matrix, counts, maxima or preactivations."""
        monkeypatch.setattr(gflownet, "ROLLOUT_BLOCK_ROWS", 8)  # 3 blocks of 8 rows
        monkeypatch.setattr(gflownet, "_available_cores", lambda: cores)
        g = random_graph(12, 0.5, 0)
        mdp = ColoringMDP(g, greedy_color(g, "random_sequential", seed=0).max_color)
        net = DenseNet.initialize([mdp.encoding_dim, 6, mdp.color_cap], seed=0)
        started = []
        start = _BatchRollout.start
        monkeypatch.setattr(_BatchRollout, "start", lambda self, lo, hi: started.append(self) or start(self, lo, hi))
        rollout, _ = _sample_batch(net, mdp, 24, np.random.Generator(np.random.PCG64(0)), record=True)
        assert len(started) == 3 and all(block is not rollout for block in started)
        for name in ("rows", "blocked", "blocked_counts", "max_colors", "l1_pre"):
            assert not hasattr(rollout, name), name
        assert (rollout.assignments >= 1).all()

    def test_a_two_block_batch_has_the_same_bits_on_any_core_count(self, monkeypatch):
        """150 recorded rows of H2 FC at cap 2 on the paper's 512x512 network
        roll as two blocks of 75 rows on any core count, with the same bits.
        One block of 150 rows gave log-flows up to 2.8e-17 apart from these
        (Intel Xeon, numpy 2.4's OpenBLAS), so the block size, unlike the
        core count, can change the bits."""
        h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
        mdp = ColoringMDP(build_complement_graph(h, "fc"), 2)
        net = DenseNet.initialize([mdp.encoding_dim, 512, 512, mdp.color_cap], seed=0)
        runs = []
        for cores in (1, 2, 4):
            monkeypatch.setattr(gflownet, "_available_cores", lambda: cores)
            runs.append(_sample_batch(net, mdp, 150, np.random.Generator(np.random.PCG64(0)), record=True)[0])
        first = runs[0]
        for rollout in runs[1:]:
            for name in ("assignments", "actions", "masks", "log_flows"):
                assert np.array_equal(getattr(rollout, name), getattr(first, name)), name
            assert len(rollout.hidden) == 2
            for a, b in zip(rollout.hidden, first.hidden, strict=True):
                assert np.array_equal(a, b)

    def test_one_block_or_one_core_starts_no_thread(self, monkeypatch):
        """On one core, or where no BLAS thread-count setter is found,
        training and several blocks' sampling start no thread. On several
        cores a training batch is still one block, with no pool: train()
        starts one helper thread, which is gone when it returns."""
        h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
        config = TrainConfig(iterations=4, hidden_sizes=(8,), accumulation_period=3)
        assert config.trajectories_per_iteration <= gflownet.ROLLOUT_BLOCK_ROWS
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        found = gflownet._openblas_thread_control
        for cores, control in [(1, found), (4, lambda: None)]:
            monkeypatch.setattr(gflownet, "_available_cores", lambda: cores)
            monkeypatch.setattr(gflownet, "_openblas_thread_control", control)
            sampler = train(h, config)
            assert len(sampler.sample(3 * gflownet.ROLLOUT_BLOCK_ROWS)) == 3 * gflownet.ROLLOUT_BLOCK_ROWS
            assert started == []

        monkeypatch.setattr(gflownet, "_openblas_thread_control", found)
        if found() is None:
            pytest.skip("no OpenBLAS thread-count setter in this numpy")
        spans, pools = [], []
        roll_block, executor = gflownet._roll_block, futures.ThreadPoolExecutor

        def counted_block(rollout, u, lo, hi):
            spans.append(hi - lo)
            roll_block(rollout, u, lo, hi)

        monkeypatch.setattr(gflownet, "_roll_block", counted_block)
        monkeypatch.setattr(futures, "ThreadPoolExecutor", lambda workers: pools.append(workers) or executor(workers))
        monkeypatch.setattr(gflownet, "_available_cores", lambda: 4)
        threads = threading.active_count()
        train(h, config)
        assert spans == [config.trajectories_per_iteration] * config.iterations
        assert pools == [1] and len(started) == 1
        assert threading.active_count() == threads

    def test_error_in_a_block_propagates_and_stops_the_pool(self, monkeypatch):
        """An exception in one block of a pooled rollout leaves _sample_batch
        and sample(), and the pool's threads are gone when it does."""
        monkeypatch.setattr(gflownet, "ROLLOUT_BLOCK_ROWS", 8)  # 5 blocks of 8 rows
        monkeypatch.setattr(gflownet, "_available_cores", lambda: 2)
        apply = _BatchRollout.apply

        def apply_or_fail(self, k, actions, mask):
            if self.rows.start == 16:  # the third block of 5
                raise RuntimeError("third block")
            apply(self, k, actions, mask)

        monkeypatch.setattr(_BatchRollout, "apply", apply_or_fail)
        h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
        graph = build_complement_graph(h, "fc")
        mdp = ColoringMDP(graph, greedy_color(graph, "random_sequential", seed=0).max_color)
        net = DenseNet.initialize([mdp.encoding_dim, 6, mdp.color_cap], seed=0)
        sampler = TrainedSampler(h, mdp, net, TrainConfig())
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="third block"):
            _sample_batch(net, mdp, 40, np.random.Generator(np.random.PCG64(0)))
        assert threading.active_count() == threads
        with pytest.raises(RuntimeError, match="third block"):
            sampler.sample(40)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
    def test_extreme_uniforms_draw_legal_slots(self, u):
        """u == 0 would pick slot 0 where it is masked out, and u just below 1
        times the pairwise sum of the flows passes their cumulative sum and
        would pick slot cap; both draws are clipped to the legal slots."""
        g = random_graph(30, 0.3, 2)
        mdp = ColoringMDP(g, 37)
        cap = mdp.color_cap
        net = DenseNet.initialize([mdp.encoding_dim, 8, cap], seed=2)
        rollout, _ = _sample_batch(net, mdp, 64, StubUniforms(u), record=True)
        masks, actions = rollout.masks, rollout.actions
        assert np.take_along_axis(masks, actions[:, :, None], axis=2).all()
        first, last = masks.argmax(axis=2), cap - 1 - masks[:, :, ::-1].argmax(axis=2)
        assert np.array_equal(actions, first if u == 0.0 else last)
        # the unclipped rule would have drawn an illegal slot
        flows = rollout.log_flows
        probs = np.where(masks, np.exp(flows - flows.max(axis=2, keepdims=True)), 0.0)
        unclipped = (np.cumsum(probs, axis=2) < u * probs.sum(axis=2)[:, :, None]).sum(axis=2)
        if u == 0.0:
            assert not np.take_along_axis(masks, unclipped[:, :, None], axis=2).all()
        else:
            assert (unclipped == cap).any()

    def test_sampling_state_does_not_grow_with_the_sample_count(self, monkeypatch):
        """Past one block, sampling 8 blocks' rows traces less extra memory
        than one float per extra row and layer-1 unit: the rows' outputs
        (assignments, uniforms, m_est and the returned list) are far smaller,
        and any full-batch (rows, h1) rollout state would exceed it alone.
        Two cores hold two pooled blocks of 64 rows in flight, whatever the
        machine; each core adds a block."""
        monkeypatch.setattr(gflownet, "ROLLOUT_BLOCK_ROWS", 64)
        monkeypatch.setattr(gflownet, "_available_cores", lambda: 2)
        rng = np.random.Generator(np.random.PCG64(0))
        texts = {"".join(rng.choice(list("IXYZ"), size=4)) for _ in range(12)}
        h = QubitHamiltonian(4, [(float(rng.normal()), PauliWord.from_text(t)) for t in sorted(texts)])
        graph = build_complement_graph(h, "fc")
        mdp = ColoringMDP(graph, greedy_color(graph, "random_sequential", seed=0).max_color)
        net = DenseNet.initialize([mdp.encoding_dim, 512, 512, mdp.color_cap], seed=0)
        sampler = TrainedSampler(h, mdp, net, TrainConfig())
        sampler.sample(64)  # warm up

        def traced_peak(n):
            tracemalloc.start()
            try:
                sampler.sample(n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        extra_rows = 8 * 64 - 64
        assert traced_peak(8 * 64) - traced_peak(64) < extra_rows * 512 * 8


class TestFlowMatchingLoss:
    def test_exact_flows_give_zero_loss(self):
        # 2 mutually-compatible terms, cap 2: terminals x_A (1,1), x_B (1,2)
        h = QubitHamiltonian(2, [(0.6, PauliWord.from_text("ZI")), (0.8, PauliWord.from_text("IZ"))])
        g = build_complement_graph(h, "fc")
        mdp = ColoringMDP(g, 2)
        cfg = MeasurementConfig(epsilon=1.0, lambda0=1.0)
        m_a = estimate_measurements(h, Coloring([1, 1]), epsilon=1.0)
        m_b = estimate_measurements(h, Coloring([1, 2]), epsilon=1.0)
        r_a = (2 - 1) + 1.0 / m_a
        r_b = (2 - 2) + 1.0 / m_b

        # linear net reproducing the exact log-flows on the two decision states
        s0, s1 = trajectory_states(mdp, [0])
        e0, e1 = encode_state(mdp, s0, 0), encode_state(mdp, s1, 1)
        targets = np.array([[np.log(r_a + r_b), 0.0], [np.log(r_a), np.log(r_b)]])
        w, *_ = np.linalg.lstsq(np.stack([e0, e1]), targets, rcond=None)
        net = DenseNet([w], [np.zeros(2)])
        assert np.allclose(dense_forward(net, np.stack([e0, e1])), targets, atol=1e-9)

        rng = np.random.Generator(np.random.PCG64(0))
        batch = sample_batch(net, mdp, rng, 4, hamiltonian=h, measurement=cfg)
        loss, _, _ = loss_of(net, mdp, *batch)
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_loss_nonnegative_and_grads_shaped(self):
        g = random_graph(5, 0.5, 3)
        cap = greedy_color(g, "random_sequential", seed=3).max_color
        mdp = ColoringMDP(g, cap)
        h = QubitHamiltonian(
            3,
            [(c, PauliWord.from_text(t)) for c, t in zip([0.5, 0.4, 0.3, 0.2, 0.1], ["ZII", "IZI", "IIZ", "ZZI", "IZZ"])],
        )
        net = DenseNet.initialize([mdp.encoding_dim, 12, cap], seed=3)
        rng = np.random.Generator(np.random.PCG64(3))
        loss, grads, rows0 = loss_of(net, mdp, *sample_batch(net, mdp, rng, 3, hamiltonian=h))
        assert loss >= 0.0
        assert np.unique(rows0).size == rows0.size
        assert grads[0].shape == (rows0.size, net.weights[0].shape[1])
        for g_arr, p in zip(grads[1:], net.parameters()[1:], strict=True):
            assert g_arr.shape == p.shape

    def test_loss_gradient_matches_finite_differences(self):
        g = random_graph(4, 0.5, 7)
        cap = greedy_color(g, "random_sequential", seed=7).max_color + 1
        mdp = ColoringMDP(g, cap)
        h = QubitHamiltonian(
            2,
            [(c, PauliWord.from_text(t)) for c, t in zip([0.7, 0.5, 0.3, 0.2], ["ZI", "IZ", "ZZ", "XX"])],
        )
        net = DenseNet.initialize([mdp.encoding_dim, 6, cap], seed=7)
        rng = np.random.Generator(np.random.PCG64(7))
        batch = sample_batch(net, mdp, rng, 3, hamiltonian=h)
        grads = densify(net, *loss_of(net, mdp, *batch)[1:])
        step = 1e-6
        for p, g_arr in zip(net.parameters(), grads):
            flat, gflat = p.reshape(-1), g_arr.reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 5)):
                original = flat[i]
                flat[i] = original + step
                plus, _, _ = loss_of(net, mdp, *batch)
                flat[i] = original - step
                minus, _, _ = loss_of(net, mdp, *batch)
                flat[i] = original
                numeric = (plus - minus) / (2 * step)
                assert numeric == pytest.approx(gflat[i], rel=2e-4, abs=1e-7)

    @staticmethod
    def loss_matching_dense_construction(net, mdp, actions, masks, rewards):
        """loss_of, after checking that its row block of the input layer's
        gradient, scattered into zeros, is bit for bit the dense gradient
        built from the same layer-1 gradient."""
        activations = rollout_activations(net, mdp, actions)
        result, delta = flow_matching_loss_and_delta(net, mdp, actions, masks, rewards, *activations)
        _, grads, rows0 = result
        assert np.unique(rows0).size == rows0.size < net.weights[0].shape[0]
        dense = input_layer_grad_dense(net, mdp, actions, delta)
        assert np.array_equal(densify(net, grads, rows0)[0], dense)
        return result

    @pytest.mark.parametrize(
        "n_vertices, hidden, batch",
        [(7, (10, 7), 5), (1, (4,), 3), (6, (), 4), (5, (9, 8, 6), 1), (8, (12,), 16)],
    )
    def test_matches_dense_oracle(self, n_vertices, hidden, batch):
        seed = n_vertices + batch
        g = random_graph(n_vertices, 0.5, seed)
        cap = greedy_color(g, "random_sequential", seed=seed).max_color + 1
        mdp = ColoringMDP(g, cap)
        net = DenseNet.initialize([mdp.encoding_dim, *hidden, cap], seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        actions, masks, _ = sample_batch(net, mdp, rng, batch)
        rewards = rng.uniform(0.1, 5.0, size=batch)
        loss, grads, rows0 = self.loss_matching_dense_construction(net, mdp, actions, masks, rewards)
        dense_loss, dense_grads = flow_matching_loss_dense(net, mdp, actions, rewards)
        assert loss == pytest.approx(dense_loss, rel=1e-10)
        assert max_relative_error(densify(net, grads, rows0), dense_grads) < 1e-10

    def test_matches_dense_oracle_on_h2(self):
        h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
        g = build_complement_graph(h, "fc")
        mdp = ColoringMDP(g, greedy_color(g, "random_sequential", seed=0).max_color + 1)
        net = DenseNet.initialize([mdp.encoding_dim, 16, 16, mdp.color_cap], seed=0)
        rng = np.random.Generator(np.random.PCG64(0))
        actions, masks, rewards = sample_batch(net, mdp, rng, 4, hamiltonian=h)
        loss, grads, rows0 = self.loss_matching_dense_construction(net, mdp, actions, masks, rewards)
        dense_loss, dense_grads = flow_matching_loss_dense(net, mdp, actions, rewards)
        assert loss == pytest.approx(dense_loss, rel=1e-10)
        assert max_relative_error(densify(net, grads, rows0), dense_grads) < 1e-10


def random_proper_assignment(g, rng):
    """Proper coloring with colors 1..k; each vertex, in random order, takes a
    random color among the used ones not held by a neighbor, or a fresh one."""
    assignment = np.zeros(g.n_vertices, dtype=np.int64)
    for v in rng.permutation(g.n_vertices):
        blocked = set(assignment[g.neighbors(int(v))].tolist())
        feasible = [c for c in range(1, int(assignment.max(initial=0)) + 2) if c not in blocked]
        assignment[v] = rng.choice(feasible)
    return assignment


def random_hamiltonian(rng, n_qubits=3):
    n_terms = int(rng.integers(1, 13))
    texts = []
    while len(texts) < n_terms:
        text = "".join(rng.choice(list("IXYZ"), size=n_qubits))
        if text != "I" * n_qubits and text not in texts:
            texts.append(text)
    return QubitHamiltonian(n_qubits, [(float(rng.normal()), PauliWord.from_text(t)) for t in texts])


class TestTerminalMetrics:
    """batch_metrics gives m_est and reward for a batch of assignment rows at
    once; m_est must match the direct transcription in oracles.py, and every
    row must get the bits of the one-row arithmetic."""

    def check(self, h, g, assignments, rng):
        cfg = MeasurementConfig(epsilon=float(rng.uniform(1e-3, 0.1)), lambda0=float(rng.uniform(1.0, 1e6)))
        m_est, rew, colors = batch_metrics(h, assignments, cfg)
        for b, assignment in enumerate(assignments):
            coloring = Coloring(assignment)
            groups = coloring_to_grouping(g, coloring)
            want = estimate_measurements_oracle(h.coefficients(), groups, cfg.epsilon)
            assert m_est[b] == pytest.approx(want, rel=1e-12, abs=0)
            assert rew[b] == pytest.approx((h.n_terms - coloring.max_color) + cfg.lambda0 / want, rel=1e-12, abs=0)
            assert colors[b] == coloring.max_color
            assert (m_est[b], rew[b], colors[b]) == terminal_metrics_row(h, assignment, cfg)

    def test_random_hamiltonians(self):
        rng = np.random.Generator(np.random.PCG64(404))
        for trial in range(200):
            h = random_hamiltonian(rng)
            g = build_complement_graph(h, ("fc", "qwc")[trial % 2])
            rows = [random_proper_assignment(g, rng) for _ in range(int(rng.integers(1, 6)))]
            self.check(h, g, np.stack(rows), rng)

    @pytest.mark.parametrize("name", ["h2_sto3g_1A_jw.ham", "h4_chain_sto3g_1A_jw.ham"])
    @pytest.mark.parametrize("mode", ["fc", "qwc"])
    def test_bundled_systems(self, name, mode):
        h = load_hamiltonian(bundled_path(name))
        g = build_complement_graph(h, mode)
        rng = np.random.Generator(np.random.PCG64(5))
        self.check(h, g, np.stack([random_proper_assignment(g, rng) for _ in range(20)]), rng)

    def test_every_color_count_keeps_row_bits(self):
        """Rows of every color count from 1 to 60 in one batch, the pairwise
        sum's block widths included, give the one-row m_est bit for bit; so
        do rows in the same batch whose colors run past any sampler's cap
        (61 up to one color per term), as forced colors do."""
        h = load_hamiltonian(bundled_path("h4_chain_sto3g_1A_jw.ham"))
        rng = np.random.Generator(np.random.PCG64(6))
        rows = []
        counts = np.concatenate([np.repeat(np.arange(1, 61), 40), np.arange(61, h.n_terms + 1)])
        for c in counts:
            row = np.concatenate([np.arange(1, c + 1), rng.integers(1, c + 1, size=h.n_terms - c)])
            rows.append(rng.permutation(row))
        assignments = np.stack(rows)
        cfg = MeasurementConfig()
        m_est, rew, colors = batch_metrics(h, assignments, cfg)
        assert colors.max() == h.n_terms
        for b, row in enumerate(assignments):
            assert (m_est[b], rew[b], colors[b]) == terminal_metrics_row(h, row, cfg)


class TestEstimateMatchesSampler:
    """A report's m_est, from estimate_measurements on a Coloring, is the
    sampler's m_est of the same row bit for bit, also on rows of more than 8
    colors, where a loop over the groups and numpy's pairwise sum of their
    roots would round differently."""

    def test_h4_qwc_greedy_and_sampled_rows(self):
        h = load_hamiltonian(bundled_path("h4_chain_sto3g_1A_jw.ham"))
        sampler = train(h, tiny_config(iterations=1, mode="qwc"))
        g = sampler.mdp.graph
        cfg = sampler.config.measurement
        greedy = [greedy_color(g, s, seed=0) for s in ("largest_first", "dsatur", "random_sequential")]
        m_greedy, _, _ = batch_metrics(h, np.stack([c.assignment for c in greedy]), cfg)
        samples = sampler.sample(8, rng=3)
        assert min(c.max_color for c, _, _ in samples) > 8
        for coloring, m in [*zip(greedy, m_greedy.tolist()), *((c, m) for c, m, _ in samples)]:
            assert estimate_measurements(h, coloring, cfg.epsilon) == m


class TestTraining:
    def test_iteration_allocates_no_input_layer_sized_temporary(self):
        """Past the live parameters and Adam's m, v and accumulator, a
        training iteration's traced peak stays below one copy of W0, Adam
        steps included. The instance makes W0 (about 3.4 MiB, several Adam
        row blocks) larger than the recorded activations, so a dense
        input-layer gradient or a parameter-sized Adam scratch would exceed
        the bound on its own."""
        rng = np.random.Generator(np.random.PCG64(0))
        texts = {"".join(rng.choice(list("IXYZ"), size=8)) for _ in range(60)}
        h = QubitHamiltonian(8, [(float(rng.normal()), PauliWord.from_text(t)) for t in sorted(texts)])
        config = TrainConfig(
            iterations=4,
            trajectories_per_iteration=2,
            mask_extra_colors=40,
            hidden_sizes=(128, 128),
            accumulation_period=2,
        )
        tracemalloc.start()
        try:
            sampler = train(h, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        w0 = sampler.net.weights[0]
        widths = sum(config.hidden_sizes) + sampler.mdp.color_cap
        recorded = config.trajectories_per_iteration * h.n_terms * widths * 8
        assert w0.nbytes > 3 * ADAM_BLOCK_BYTES and w0.nbytes > 4 * recorded
        parameters = sum(p.nbytes for p in sampler.net.parameters())
        assert peak - 4 * parameters < w0.nbytes

    def test_untrained_single_iteration_emits_valid_colorings(self):
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n0.2 X0\n")
        sampler = train(h, tiny_config(iterations=1))
        g = sampler.mdp.graph
        for coloring, m_est, rew in sampler.sample(20, rng=1):
            assert validate_coloring(g, coloring)
            assert m_est > 0 and rew > 0

    def test_log_shape_and_csv(self):
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n")
        sampler = train(h, tiny_config(iterations=5))
        assert len(sampler.log) == 5
        csv_text = training_log_csv(sampler.log)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "iteration,mean_loss,best_reward,best_m_est,best_colors"
        assert len(lines) == 6

    def test_deterministic_given_seed(self):
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n0.2 X0\n")
        a = train(h, tiny_config(iterations=4, seed=5))
        b = train(h, tiny_config(iterations=4, seed=5))
        for pa, pb in zip(a.net.parameters(), b.net.parameters()):
            assert np.array_equal(pa, pb)
        assert [r.mean_loss for r in a.log] == [r.mean_loss for r in b.log]
        assert a.best.m_est == b.best.m_est

    def test_best_tracks_min_m_est(self):
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n0.2 X0\n")
        sampler = train(h, tiny_config(iterations=10))
        best = sampler.best
        assert best.m_est == min(d.m_est for d in sampler.discovered.values())
        assert all(
            best.m_est <= row.best_m_est + 1e-9 for row in sampler.log[-1:]
        )

    def test_each_discovered_row_is_held_once(self, tmp_path):
        """A discovered row's assignment is a read-only view of its key's
        bytes, not a second copy of the row; so is a loaded best row's."""
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n0.2 X0\n")
        sampler = train(h, tiny_config(iterations=4))
        sampler.save(tmp_path / "c.npz")
        loaded = TrainedSampler.load(tmp_path / "c.npz")
        for key, d in [*sampler.discovered.items(), *loaded.discovered.items()]:
            assert d.assignment.tobytes() == key and d.assignment.base is key
            assert d.assignment.dtype == np.int64 and not d.assignment.flags.writeable

    def test_equivalent_color_permutations_share_m_est(self):
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n0.2 X0\n")
        sampler = train(h, tiny_config(iterations=8, seed=2))
        by_partition = {}
        for d in sampler.discovered.values():
            key = frozenset(
                frozenset(np.flatnonzero(d.assignment == c))
                for c in range(1, d.color_count + 1)
                if np.any(d.assignment == c)
            )
            by_partition.setdefault(key, set()).add(round(d.m_est, 6))
        for values in by_partition.values():
            assert len(values) == 1

    def test_checkpoint_round_trip_preserves_sampling(self, tmp_path):
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n")
        sampler = train(h, tiny_config(iterations=3, seed=1))
        path = tmp_path / "ckpt.npz"
        sampler.save(path)
        loaded = TrainedSampler.load(path)
        assert loaded.mdp.color_cap == sampler.mdp.color_cap
        assert loaded.config == sampler.config
        assert loaded.best.m_est == sampler.best.m_est
        # a loaded sampler saves again, and the copy holds the sampler alone
        again = tmp_path / "again.npz"
        loaded.save(again)
        with np.load(again) as data:
            assert not [k for k in data.files if k.startswith("adam_")]
        reloaded = TrainedSampler.load(again)
        assert reloaded.config == sampler.config
        assert reloaded.best_reward == sampler.best.reward and len(reloaded.discovered) == 1
        assert np.array_equal(reloaded.best.assignment, sampler.best.assignment)
        expected = sampler.sample(10, rng=7)
        for other in (loaded, reloaded):
            for (ca, ma, ra), (cb, mb, rb) in zip(expected, other.sample(10, rng=7), strict=True):
                assert np.array_equal(ca.assignment, cb.assignment)
                assert ma == mb and ra == rb

    def test_metadata_in_the_earlier_key_order_loads_and_saves_the_same(self, tmp_path):
        """Metadata written key by key, in the order that save() has always
        used, loads, and the loaded sampler saves the same metadata text."""
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n")
        sampler = train(h, tiny_config(iterations=3, seed=1, learning_rate=1e-3, accumulation_period=2))
        config = sampler.config
        metadata = {
            "hamiltonian": dump_hamiltonian(h),
            "mode": config.mode,
            "color_cap": sampler.mdp.color_cap,
            "epsilon": config.measurement.epsilon,
            "lambda0": config.measurement.lambda0,
            "seed": config.seed,
            "iterations": config.iterations,
            "trajectories_per_iteration": config.trajectories_per_iteration,
            "mask_extra_colors": config.mask_extra_colors,
            "learning_rate": config.learning_rate,
            "hidden_sizes": list(config.hidden_sizes),
            "accumulation_period": config.accumulation_period,
            "best_assignment": sampler.best.assignment.tolist(),
        }
        written = tmp_path / "written.npz"
        save_checkpoint(written, sampler.net, metadata)
        loaded = TrainedSampler.load(written)
        assert loaded.config == config
        again = tmp_path / "again.npz"
        loaded.save(again)
        for path in (written, again):
            with np.load(path) as data:
                assert str(data["metadata"]) == json.dumps(metadata)

    def test_checkpoint_whose_m_est_overflows_does_not_load(self, tmp_path):
        """A term of coefficient 1e300 overflows every m_est at the saved
        epsilon; load() says so before sample() draws a row, also with no
        best grouping in the metadata."""
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n")
        sampler = train(h, tiny_config(iterations=1))
        huge = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n1e300 Z0 Z1\n")
        metadata = {**vars(sampler.config), **vars(sampler.config.measurement), "hamiltonian": dump_hamiltonian(huge),
                    "color_cap": sampler.mdp.color_cap, "best_assignment": None}
        del metadata["measurement"]
        metadata["hidden_sizes"] = list(sampler.config.hidden_sizes)
        path = tmp_path / "huge.npz"
        save_checkpoint(path, sampler.net, metadata)
        with pytest.raises(ValueError, match="^m_est overflows"):
            TrainedSampler.load(path)

    def test_checkpoint_with_adam_arrays_still_loads(self, tmp_path):
        # the archive format written before checkpoints dropped Adam's state
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n")
        sampler = train(h, tiny_config(iterations=3, seed=1))
        path = tmp_path / "ckpt.npz"
        sampler.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["adam_scalars"] = np.array([3e-4, 0.9, 0.999, 1e-8, 10, 0, 3])
        for i, p in enumerate(sampler.net.parameters()):
            arrays.update({f"adam_m{i}": p * 0.5, f"adam_v{i}": p * p, f"adam_a{i}": p})
        np.savez(path, **arrays)
        loaded = TrainedSampler.load(path)
        assert loaded.config == sampler.config
        for (ca, ma, _), (cb, mb, _) in zip(sampler.sample(10, rng=3), loaded.sample(10, rng=3), strict=True):
            assert np.array_equal(ca.assignment, cb.assignment) and ma == mb


@pytest.fixture
def blas_threads():
    """The getter of numpy's OpenBLAS thread count, which the test starts at
    2, so that a pin to one thread shows, and which is restored after it."""
    control = gflownet._openblas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread-count setter in this numpy")
    get, set_ = control
    saved = get()
    set_(2)
    yield get
    set_(saved)


class TestPinnedPool:
    """_PinnedPool gives an executor with OpenBLAS at one thread, and pools
    open at once share one pin, which the last of them to exit lifts."""

    def test_no_workers_or_no_setter_gives_no_executor(self, monkeypatch, blas_threads):
        with gflownet._PinnedPool(0) as pool:
            assert pool is None and blas_threads() == 2
        monkeypatch.setattr(gflownet, "_openblas_thread_control", lambda: None)
        with gflownet._PinnedPool(2) as pool:
            assert pool is None and blas_threads() == 2

    def test_pins_of_two_threads_restore_the_count(self, blas_threads):
        """Thread a enters, then b, then a exits, then b: the count is one
        until b exits and is then restored, which restoring the count each
        pin saw on entry would not do (b saw one)."""
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = []

        def a():
            with gflownet._PinnedPool(1):
                a_in.set()
                b_in.wait(5.0)
            a_out.set()

        def b():
            a_in.wait(5.0)
            with gflownet._PinnedPool(1):
                b_in.set()
                a_out.wait(5.0)
                seen.append(blas_threads())
            seen.append(blas_threads())

        threads = [threading.Thread(target=a), threading.Thread(target=b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert a_out.is_set() and seen == [1, 2]

    def test_many_threads_pinning_at_once_restore_the_count(self, frequent_thread_switches, blas_threads):
        """More threads than cores open and close pools at once, under
        frequent thread switches: each reads one thread while it holds a
        pool, and the count is restored after the last, which restoring the
        count each pool saw on entry would not do. The threads' lookups of
        the setter also end: walking the loaded libraries with a Python
        callback (dl_iterate_phdr) deadlocked with another thread's dlopen."""
        seen = []

        def pin_often():
            for _ in range(20):
                with gflownet._PinnedPool(1):
                    seen.append(blas_threads())
                    time.sleep(0.001)  # holds overlap, and exit in another order than they entered

        threads = [threading.Thread(target=pin_often) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1] * 160 and blas_threads() == 2

    def test_nested_pools_hold_the_pin_until_the_outer_exits(self, blas_threads):
        with gflownet._PinnedPool(1) as outer:
            with gflownet._PinnedPool(2) as inner:
                assert inner.submit(blas_threads).result() == 1
            assert outer.submit(blas_threads).result() == 1
        assert blas_threads() == 2
        with pytest.raises(RuntimeError, match="inner"):
            with gflownet._PinnedPool(1):
                with gflownet._PinnedPool(1):
                    raise RuntimeError("inner")
        assert blas_threads() == 2

    def test_helper_rollouts_of_several_blocks_give_the_inline_results(self, monkeypatch, blas_threads):
        """A training batch of three blocks, rolled on the helper thread by a
        pool nested in train()'s, rolls at one BLAS thread and gives the
        results of one core; the count is restored after train()."""
        h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
        config = TrainConfig(iterations=5, hidden_sizes=(8,), accumulation_period=3,
                             trajectories_per_iteration=3 * gflownet.ROLLOUT_BLOCK_ROWS)
        counts, roll_block, runs = [], gflownet._roll_block, {}

        def spy(rollout, u, lo, hi):
            counts.append(blas_threads())
            roll_block(rollout, u, lo, hi)

        monkeypatch.setattr(gflownet, "_roll_block", spy)
        for cores in (1, 2):
            monkeypatch.setattr(gflownet, "_available_cores", lambda: cores)
            sampler = train(h, config)
            runs[cores] = [p.tobytes() for p in sampler.net.parameters()], training_log_csv(sampler.log)
        assert runs[1] == runs[2]
        assert counts == [2] * 15 + [1] * 15 and blas_threads() == 2


class TestTrainingOverlap:
    """On several cores train() rolls iteration i+1's batch on a helper
    thread while iteration i's loss runs, wherever iteration i does not step
    Adam and is not the last."""

    @pytest.mark.parametrize("period, iterations", [(1, 5), (3, 8), (3, 9), (10, 14)])
    def test_overlapped_training_gives_the_inline_results(
        self, monkeypatch, frequent_thread_switches, period, iterations
    ):
        """Parameters, log, discovered rows and their first iterations are
        those of the run on one core, and exactly the rollouts after a
        non-stepping iteration run off the main thread."""
        h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
        config = TrainConfig(iterations=iterations, hidden_sizes=(16, 16), accumulation_period=period, seed=1)
        sample_batch = gflownet._sample_batch
        runs = {}
        for cores in (1, 2):
            on_main = []

            def spy(*args, **kwargs):
                on_main.append(threading.current_thread() is threading.main_thread())
                return sample_batch(*args, **kwargs)

            monkeypatch.setattr(gflownet, "_sample_batch", spy)
            monkeypatch.setattr(gflownet, "_available_cores", lambda: cores)
            sampler = train(h, config)
            found = {key: (row.first_iteration, row.m_est) for key, row in sampler.discovered.items()}
            runs[cores] = sampler.net.parameters(), training_log_csv(sampler.log), found, on_main
        (params, log, found, on_main), (params2, log2, found2, on_main2) = runs[1], runs[2]
        for a, b in zip(params, params2, strict=True):
            assert np.array_equal(a, b)
        assert log == log2 and found == found2
        assert on_main == [True] * iterations
        if gflownet._openblas_thread_control() is not None:
            assert on_main2 == [j == 0 or j % period == 0 for j in range(iterations)]

    def test_loss_error_with_a_rollout_in_flight_names_its_iteration(self, monkeypatch, blas_threads):
        """A NumericError in iteration 1's loss, raised while iteration 2's
        rollout runs on the helper thread, names iteration 1; train() returns
        only once that rollout has finished, with the BLAS count restored."""
        monkeypatch.setattr(gflownet, "_available_cores", lambda: 2)
        raised, rollouts, losses, finished = threading.Event(), [], [], []
        sample_batch, loss = gflownet._sample_batch, gflownet.flow_matching_loss

        def slow_sample(*args, **kwargs):
            rollouts.append(threading.current_thread() is threading.main_thread())
            if len(rollouts) == 3:  # iteration 2's, handed ahead by iteration 1
                raised.wait(5.0)
                time.sleep(0.05)  # still in flight after the error has left the loop
            result = sample_batch(*args, **kwargs)
            finished.append(blas_threads())
            return result

        def failing_loss(*args):
            losses.append(args)
            if len(losses) == 2:
                raised.set()
                raise gflownet.NumericError("injected")
            return loss(*args)

        monkeypatch.setattr(gflownet, "_sample_batch", slow_sample)
        monkeypatch.setattr(gflownet, "flow_matching_loss", failing_loss)
        h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
        threads = threading.active_count()
        with pytest.raises(gflownet.NumericError, match=r"^iteration 1: injected$"):
            train(h, TrainConfig(iterations=5, hidden_sizes=(8,)))
        assert rollouts == [True, False, False]
        assert finished == [1, 1, 1]  # the third rollout ran to its end, at one BLAS thread
        assert threading.active_count() == threads
        assert blas_threads() == 2

    @pytest.mark.parametrize("cores", [1, 2])
    def test_no_more_rollouts_alive_than_roll_or_feed_a_loss(self, monkeypatch, cores):
        """train() makes a recording rollout per iteration and drops it once
        its loss has run: a rollout made on the main thread finds no other
        alive, and one handed to the helper finds at most the one whose loss
        runs meanwhile."""
        alive, seen = weakref.WeakSet(), []

        class Counted(_BatchRollout):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                alive.add(self)
                seen.append((threading.current_thread() is threading.main_thread(), len(alive), self.log_flows))

        monkeypatch.setattr(gflownet, "_BatchRollout", Counted)
        monkeypatch.setattr(gflownet, "_available_cores", lambda: cores)
        h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
        train(h, TrainConfig(iterations=12, hidden_sizes=(8,), accumulation_period=4))
        assert len(seen) == 12 and all(log_flows is not None for _, _, log_flows in seen)
        assert all(count == 1 for on_main, count, _ in seen if on_main)
        assert all(count <= 2 for on_main, count, _ in seen if not on_main)
        if cores > 1 and gflownet._openblas_thread_control() is not None:
            assert sum(not on_main for on_main, _, _ in seen) == 9  # iterations 1-3, 5-7 and 9-11

    def test_blas_count_is_restored(self, monkeypatch, blas_threads):
        """Overlapped training and pooled sampling roll at one BLAS thread, and
        the count is restored after them, also when a block raises."""
        monkeypatch.setattr(gflownet, "_available_cores", lambda: 2)
        counts = []
        roll_block = gflownet._roll_block

        def spy(rollout, u, lo, hi):
            counts.append(blas_threads())
            roll_block(rollout, u, lo, hi)

        monkeypatch.setattr(gflownet, "_roll_block", spy)
        h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
        sampler = train(h, TrainConfig(iterations=3, hidden_sizes=(8,)))
        assert counts == [1, 1, 1] and blas_threads() == 2
        counts.clear()
        sampler.sample(2 * gflownet.ROLLOUT_BLOCK_ROWS)
        assert counts == [1] * 2 and blas_threads() == 2

        def fail(rollout, u, lo, hi):
            raise RuntimeError("block")

        monkeypatch.setattr(gflownet, "_roll_block", fail)
        with pytest.raises(RuntimeError, match="block"):
            sampler.sample(2 * gflownet.ROLLOUT_BLOCK_ROWS)
        assert blas_threads() == 2


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("iterations", 0), ("trajectories_per_iteration", 0), ("seed", -1), ("mask_extra_colors", -1),
        ("accumulation_period", 0), ("accumulation_period", -3),
        ("learning_rate", 0.0), ("learning_rate", -3e-4), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("hidden_sizes", (0,)), ("hidden_sizes", (8, -1)), ("hidden_sizes", (8.0,)),
        ("hidden_sizes", (True,)), ("hidden_sizes", 8),
        ("mode", "xyz"),
        # counts that are not ints: a late TypeError, a fractional Adam period, or one iteration
        ("iterations", 2.5), ("trajectories_per_iteration", 3.0), ("mask_extra_colors", 0.5),
        ("seed", 1.5), ("accumulation_period", 2.5), ("iterations", True), ("seed", False),
        # a learning rate that is not a real number: a late TypeError, or 1.0
        ("learning_rate", "0.1"), ("learning_rate", True), ("learning_rate", None),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        """The message names the field and ends with the value."""
        with pytest.raises(ValueError, match=f"^{field} must be ") as err:
            TrainConfig(**{field: value})
        assert str(err.value).endswith(f", got {value!r}")

    def test_edge_values_accepted(self):
        config = TrainConfig(accumulation_period=1, learning_rate=5e-324, hidden_sizes=(1, np.int64(2)))
        assert config.hidden_sizes == (1, 2)
        assert TrainConfig(hidden_sizes=()).hidden_sizes == ()
        # as a checkpoint's JSON gives them
        assert TrainConfig(hidden_sizes=[3, 4], learning_rate=1) == TrainConfig(hidden_sizes=(3, 4), learning_rate=1.0)
        assert type(TrainConfig(learning_rate=np.float32(0.5)).learning_rate) is float
        config = TrainConfig(iterations=np.int64(2), seed=np.uint8(0), hidden_sizes=(np.int32(3),))
        assert (config.iterations, config.seed, config.hidden_sizes) == (2, 0, (3,))
        assert type(config.iterations) is type(config.seed) is type(config.hidden_sizes[0]) is int

    def test_numpy_ints_save_and_load(self, tmp_path):
        h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.4 X0 X1\n0.3 Z0 Z1\n")
        sampler = train(h, tiny_config(iterations=1, seed=np.int64(1), hidden_sizes=(np.int64(4),)))
        sampler.save(tmp_path / "c.npz")
        assert TrainedSampler.load(tmp_path / "c.npz").config == sampler.config
