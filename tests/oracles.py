"""Independent brute-force oracles used across the test suite.

These deliberately avoid the package's symplectic code paths: words are
handled as letter strings and checks go through explicit dense matrices.
The flow-matching oracle likewise avoids the sampler's sparse input layer:
it walks each trajectory through the scalar MDP and feeds dense state
encodings to DenseNet.forward/backward, one trajectory at a time.

rollout_activations, adam_accumulate_and_step_reference and
greedy_color_reference keep the straightforward forms of code the package now
does faster: rebuilding a batch's activations from its actions (the loss
reuses the rollout's), the Adam update written with temporaries (the
package's runs in place), and greedy coloring with a Python set per vertex
(the package's runs on a blocked-color matrix).
"""
import itertools

import numpy as np

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


def flow_matching_loss_dense(net, mdp, actions, rewards):
    """Batch-mean flow-matching loss and parameter gradients, per trajectory
    from dense encodings of its states s_0 .. s_{n-1}; legal colors come from
    the scalar legal_actions, not from the rollout's masks."""
    from pauliflow.gflownet import encode_state, legal_actions

    batch, n = actions.shape
    total = 0.0
    grads = [np.zeros_like(p) for p in net.parameters()]
    for b in range(batch):
        state = mdp.initial_state()
        encodings, masks = [], []
        for action in actions[b]:
            encodings.append(encode_state(state))
            masks.append(legal_actions(state))
            state = state.child(int(action))
        enc = np.stack(encodings)
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
    from pauliflow.gflownet import _l1_start, _l1_step

    batch, n = actions.shape
    # a sequential cumsum of the step rows adds them in the rollout's order
    pre = np.empty((batch, n, net.layer_sizes[1]))
    pre[:, 0] = _l1_start(net, mdp)
    pre[:, 1:] = _l1_step(net, mdp, np.arange(n - 1), actions[:, :-1] + 1)
    np.cumsum(pre, axis=1, out=pre)
    out, hidden = net.forward_from_pre(pre.reshape(batch * n, -1))
    return out.reshape(batch, n, -1), [h.reshape(batch, n, -1) for h in hidden]


def adam_accumulate_and_step_reference(state, params, grads):
    """The Adam update with accumulation, written with array temporaries."""
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
