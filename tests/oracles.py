"""Independent brute-force oracles used across the test suite.

These deliberately avoid the package's symplectic code paths: words are
handled as letter strings and checks go through explicit dense matrices.

The coloring MDP here is this file's own, not the package's, which runs the
MDP only as the lockstep batch rollout: legal_actions, color_of and
encode_state take one state (mdp, assignment, cursor) and rebuild its mask,
the color an action gives, and its dense one-hot encoding from the
definitions. The flow-matching oracle feeds those dense encodings to
DenseNet.forward/backward one trajectory at a time. enumerate_terminals
instead forces every action row through one batch rollout, so it enumerates
the mask the sampler draws from.

rollout_activations, input_layer_grad_dense,
adam_accumulate_and_step_reference, greedy_color_reference,
sample_batch_reference and terminal_metrics_row keep the straightforward
forms of code the package now does faster: activations rebuilt from actions
(the loss reuses the rollout's), the input layer's gradient as one dense
array (the loss returns only the rows it touches), the Adam update with
dense temporaries (the package's runs in place, block by block), greedy
coloring with a Python set per vertex (the package's uses a blocked-color
matrix), masks that read every later neighbor's blocked colors and per-row
W0 gathers (the package's count blocked colors and add rows of a per-step
delta table), and one row's m_est and reward (the package's take a whole
batch in one bincount). flow_matching_loss_and_delta exposes the layer-1
gradient that input_layer_grad_dense needs.
"""
import itertools

import numpy as np

from pauliflow import gflownet
from pauliflow.nn import DenseNet

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_matrix(letters: str) -> np.ndarray:
    """Kronecker product of single-qubit matrices, qubit 0 leftmost."""
    m = np.array([[1.0 + 0j]])
    for letter in letters:
        m = np.kron(m, PAULI_MATS[letter])
    return m


def commutes_dense(letters_a: str, letters_b: str, tol: float = 1e-12) -> bool:
    """Zero-commutator test on explicit matrices."""
    a = dense_matrix(letters_a)
    b = dense_matrix(letters_b)
    return bool(np.linalg.norm(a @ b - b @ a) < tol)


def qwc_dense(letters_a: str, letters_b: str) -> bool:
    """Per-factor matrix comparison: equal or at least one factor is identity."""
    for la, lb in zip(letters_a, letters_b):
        ma, mb = PAULI_MATS[la], PAULI_MATS[lb]
        equal = np.allclose(ma, mb)
        one_identity = np.allclose(ma, np.eye(2)) or np.allclose(mb, np.eye(2))
        if not (equal or one_identity):
            return False
    return True


def all_words(n_qubits: int):
    """All 4**n letter strings on n qubits."""
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n_qubits)]


def estimate_measurements_oracle(coeffs, groups, epsilon: float) -> float:
    """Direct transcription of the grouped measurement estimate."""
    total = 0.0
    for group in groups:
        total += np.sqrt(sum(coeffs[j] ** 2 for j in group))
    return float(total**2 / epsilon**2)


def first_free(held, start=1):
    """The smallest color >= start that is not in the set `held`."""
    return next(c for c in itertools.count(start) if c not in held)


def legal_actions(mdp, assignment, cursor):
    """Boolean mask over colors 1..color_cap for vertex order[cursor]:
    properness, canonical fresh colors, the cap, and one-step feasibility
    (a later neighbor's only free color is dropped). Held colors above the
    cap block nothing. If nothing is left, the one legal action is the
    first color no earlier neighbor holds, or the top slot if that color
    is above the cap."""
    cap = mdp.color_cap
    colors = np.arange(1, cap + 1)
    held = assignment[mdp.earlier_neighbors[cursor]]
    mask = colors <= assignment.max(initial=0) + 1
    mask[held[held <= cap] - 1] = False
    for u in mdp.later_neighbors[cursor]:
        free = np.setdiff1d(colors, assignment[mdp.graph.neighbors(int(u))])
        if free.size == 1:
            mask[free[0] - 1] = False
    if not mask.any():
        mask[min(first_free(set(held.tolist())), cap) - 1] = True
    return mask


def color_of(mdp, assignment, cursor, action):
    """The color vertex order[cursor] takes for an action slot: action + 1,
    except that a top slot whose color an earlier neighbor holds gives the
    first color above the cap that no earlier neighbor holds."""
    held = set(assignment[mdp.earlier_neighbors[cursor]].tolist())
    if action == mdp.color_cap - 1 and mdp.color_cap in held:
        return first_free(held, mdp.color_cap + 1)
    return action + 1


def encode_state(mdp, assignment, cursor):
    """Per-vertex one-hot over {uncolored, colors up to the cap} followed by
    a one-hot of the vertex being colored (all zero at the terminal state);
    a color above the cap is encoded as the cap."""
    n, cap = mdp.n_vertices, mdp.color_cap
    enc = np.zeros(mdp.encoding_dim)
    enc[np.arange(n) * (cap + 1) + np.minimum(assignment, cap)] = 1.0
    if cursor < n:
        enc[n * (cap + 1) + mdp.vertex_order[cursor]] = 1.0
    return enc


def trajectory_states(mdp, actions):
    """Assignments of the states s_0 .. s_len(actions) that taking action
    slot actions[k] for vertex order[k] at each step k visits."""
    assignment = np.zeros(mdp.n_vertices, dtype=np.int64)
    states = [assignment.copy()]
    for k, action in enumerate(actions):
        assignment[mdp.vertex_order[k]] = color_of(mdp, assignment, k, action)
        states.append(assignment.copy())
    return states


def terminal_assignments_dfs(mdp, assignment=None, cursor=0):
    """Terminal assignments that a DFS over legal_actions reaches from a
    state, and the number of dead ends (states with no legal color) it meets."""
    if assignment is None:
        assignment = np.zeros(mdp.n_vertices, dtype=np.int64)
    if cursor == mdp.n_vertices:
        return [assignment], 0
    mask = legal_actions(mdp, assignment, cursor)
    out, dead_ends = [], int(not mask.any())
    for action in np.flatnonzero(mask):
        child = assignment.copy()
        child[mdp.vertex_order[cursor]] = color_of(mdp, assignment, cursor, action)
        found, dead = terminal_assignments_dfs(mdp, child, cursor + 1)
        out += found
        dead_ends += dead
    return out, dead_ends


def forced_rollout(mdp, actions):
    """A _BatchRollout driven through the first m steps by the (B, m) actions
    given in place of draws. masks[:, k] holds each row's mask at step k;
    legal_rows tells which rows took only actions their masks allow."""
    net = DenseNet.initialize([mdp.encoding_dim, mdp.color_cap], seed=0)
    rollout = gflownet._BatchRollout(net, mdp, actions.shape[0], record=True)
    rollout.start(0, actions.shape[0])
    for k in range(actions.shape[1]):
        rollout.apply(k, actions[:, k], rollout.step_masks(k))
    return rollout


def legal_rows(rollout, steps):
    """(B,) True where a row's first `steps` actions are all allowed by the
    masks the rollout recorded at those steps."""
    batch = rollout.actions.shape[0]
    b_idx, k_idx = np.ogrid[:batch, :steps]
    return rollout.masks[b_idx, k_idx, rollout.actions[:, :steps]].all(axis=1)


def enumerate_terminals(mdp):
    """(T, n) terminal assignments under the batch mask: all cap^n action
    rows forced through one rollout, less the rows that take an illegal
    action."""
    rows = itertools.product(range(mdp.color_cap), repeat=mdp.n_vertices)
    rollout = forced_rollout(mdp, np.array(list(rows), dtype=np.int64))
    return rollout.assignments[legal_rows(rollout, mdp.n_vertices)]


def terminal_metrics_row(h, assignment, cfg):
    """(m_est, reward, color_count) of one complete assignment row."""
    per_color = np.bincount(assignment, weights=h.coefficients() ** 2)[1:]
    m_est = float(np.sum(np.sqrt(per_color[per_color > 0])) ** 2 / cfg.epsilon**2)
    colors = int(assignment.max(initial=0))
    return m_est, float(h.n_terms - colors) + cfg.lambda0 / m_est, colors


def flow_matching_loss_dense(net, mdp, actions, rewards):
    """Batch-mean flow-matching loss and parameter gradients, per trajectory
    from dense encodings of its states s_0 .. s_{n-1}; legal colors come from
    the scalar legal_actions, not from the rollout's masks."""
    batch, n = actions.shape
    total = 0.0
    grads = [np.zeros_like(p) for p in net.parameters()]
    for b in range(batch):
        states = trajectory_states(mdp, actions[b])
        enc = np.stack([encode_state(mdp, states[k], k) for k in range(n)])
        masks = [legal_actions(mdp, states[k], k) for k in range(n)]
        out = net.forward(enc)
        gout = np.zeros_like(out)
        for k in range(1, n + 1):
            inflow = out[k - 1, actions[b, k - 1]]
            if k < n:
                allowed = out[k][masks[k]]
                top = allowed.max()
                outflow = top + np.log(np.sum(np.exp(allowed - top)))
            else:
                outflow = np.log(rewards[b])
            residual = inflow - outflow
            total += residual**2
            gout[k - 1, actions[b, k - 1]] += 2.0 * residual
            if k < n:
                softmax = np.where(masks[k], np.exp(out[k] - top), 0.0)
                gout[k] -= 2.0 * residual * softmax / softmax.sum()
        for acc, g in zip(grads, net.backward(enc, gout)):
            acc += g
    return total / batch, [g / batch for g in grads]


def rollout_activations(net, mdp, actions):
    """Log-flows (B, n, cap) and hidden activations (one (B, n, h_k) array per
    hidden layer) at states s_0 .. s_{n-1} of each trajectory in `actions`,
    rebuilt from the sparse layer-1 steps, for flow_matching_loss."""
    batch, n = actions.shape
    # a sequential cumsum of the step rows adds them in the rollout's order
    pre = np.empty((batch, n, net.layer_sizes[1]))
    pre[:, 0] = gflownet._l1_start(net, mdp)
    pre[:, 1:] = gflownet._l1_step(net, mdp, np.arange(n - 1), actions[:, :-1] + 1)
    np.cumsum(pre, axis=1, out=pre)
    out, hidden = net.forward_from_pre(pre.reshape(batch * n, -1))
    return out.reshape(batch, n, -1), [h.reshape(batch, n, -1) for h in hidden]


def flow_matching_loss_and_delta(net, mdp, actions, *args):
    """gflownet.flow_matching_loss's result, plus a copy of the gradient at
    the layer-1 preactivations (B, n, h1) that its backward pass returned."""
    captured = []
    backward = net.backward_to_pre

    def spy(hidden, gout):
        grads, delta = backward(hidden, gout)
        captured.append(delta.copy())
        return grads, delta

    net.backward_to_pre = spy
    try:
        result = gflownet.flow_matching_loss(net, mdp, actions, *args)
    finally:
        del net.backward_to_pre
    return result, captured[0].reshape(*actions.shape, -1)


def input_layer_grad_dense(net, mdp, actions, delta):
    """The input layer's weight gradient as one array shaped like W0, from
    the gradient delta (B, n, h1) at the layer-1 preactivations: prefix sums
    on the uncolored rows, one step on the cursor rows, and each trajectory's
    suffix sums added to its colored rows in ascending b, starting from 0.0."""
    batch, n = actions.shape
    cap = mdp.color_cap
    order = mdp.vertex_order
    per_step = delta.sum(axis=0)
    suffix = np.flip(np.cumsum(np.flip(delta[:, 1:], axis=1), axis=1), axis=1)
    dw0 = np.zeros_like(net.weights[0])
    dw0[order * (cap + 1)] = np.cumsum(per_step, axis=0)
    dw0[n * (cap + 1) + order] = per_step
    colored = order[:-1] * (cap + 1) + actions[:, :-1] + 1
    for b in range(batch):
        dw0[colored[b]] += suffix[b]
    return dw0


def adam_accumulate_and_step_reference(state, params, grads, rows0=None):
    """The Adam update with accumulation, written with array temporaries;
    with rows0, grads[0] is scattered into a dense zero array first."""
    if rows0 is not None:
        dense = np.zeros_like(params[0])
        dense[rows0] = grads[0]
        grads = [dense, *grads[1:]]
    for acc, g in zip(state.accum, grads):
        acc += g
    state.accum_count += 1
    if state.accum_count < state.accumulation_period:
        return False
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for p, m, v, acc in zip(params, state.m, state.v, state.accum):
        g = acc / state.accumulation_period
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g**2
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        acc[...] = 0.0
    state.accum_count = 0
    return True


def greedy_color_reference(g, strategy: str, seed: int = 0) -> np.ndarray:
    """Greedy coloring assignment, vertex by vertex with Python sets: first-fit
    in largest-first or seeded random order, or DSATUR with ties broken by
    degree, then lowest index."""
    n = g.n_vertices
    degrees = g.adjacency.sum(axis=1)
    assignment = np.zeros(n, dtype=np.int64)

    def smallest_free(used):
        c = 1
        while c in used:
            c += 1
        return c

    if strategy == "dsatur":
        neighbor_colors = [set() for _ in range(n)]
        for _ in range(n):
            best, best_key = -1, None
            for v in range(n):
                if assignment[v] != 0:
                    continue
                key = (len(neighbor_colors[v]), int(degrees[v]), -v)
                if best_key is None or key > best_key:
                    best, best_key = v, key
            c = smallest_free(neighbor_colors[best])
            assignment[best] = c
            for u in np.flatnonzero(g.adjacency[best]):
                if assignment[u] == 0:
                    neighbor_colors[u].add(c)
        return assignment
    if strategy == "largest_first":
        order = sorted(range(n), key=lambda v: (-int(degrees[v]), v))
    else:
        order = list(np.random.Generator(np.random.PCG64(seed)).permutation(n))
    for v in order:
        assignment[v] = smallest_free({int(c) for c in assignment[g.adjacency[v]] if c != 0})
    return assignment


class ReferenceRollout(gflownet._BatchRollout):
    """_BatchRollout with the feasibility check summing every later neighbor's
    (B, cap) blocked row, forced colors found with Python sets, and layer-1
    updates gathered per row."""

    def start(self, lo, hi):
        super().start(lo, hi)
        self.blocked = np.zeros((hi - lo, self.mdp.n_vertices, self.mdp.color_cap), dtype=bool)

    def step_masks(self, k):
        mdp = self.mdp
        cap = mdp.color_cap
        v = int(mdp.vertex_order[k])
        limit = np.minimum(self.max_colors + 1, cap)
        mask = np.arange(cap)[None, :] < limit[:, None]
        mask &= ~self.blocked[:, v, :]
        blocked = self.blocked[:, mdp.later_neighbors[k], :]
        rows, nbrs = np.nonzero(blocked.sum(axis=2) == cap - 1)
        mask[rows, np.argmin(blocked[rows, nbrs], axis=1)] = False
        for b in np.flatnonzero(~mask.any(axis=1)):
            held = set(self.assignments[self.rows][b, mdp.earlier_neighbors[k]].tolist())
            mask[b, min(first_free(held), cap) - 1] = True
        return mask

    def apply(self, k, actions, mask):
        mdp = self.mdp
        v = int(mdp.vertex_order[k])
        assignments = self.assignments[self.rows]
        if self.masks is not None:
            self.actions[self.rows, k] = actions
            self.masks[self.rows, k] = mask
        colors = actions + 1
        for b in range(actions.shape[0]):
            held = set(assignments[b, mdp.earlier_neighbors[k]].tolist())
            colors[b] = first_free(held, colors[b])  # moves only a forced top slot
        assignments[:, v] = colors
        self.max_colors = np.maximum(self.max_colors, colors)
        rows = np.flatnonzero(colors <= mdp.color_cap)
        self.blocked[rows[:, None], mdp.later_neighbors[k], actions[rows, None]] = True
        if k + 1 < mdp.n_vertices:
            self.l1_pre += gflownet._l1_step(self.net, mdp, k, actions + 1)


def sample_batch_reference(net, mdp, batch, rng, record=False):
    """gflownet._sample_batch (same draws) run on ReferenceRollout."""
    fast = gflownet._BatchRollout
    gflownet._BatchRollout = ReferenceRollout
    try:
        return gflownet._sample_batch(net, mdp, batch, rng, record)
    finally:
        gflownet._BatchRollout = fast
