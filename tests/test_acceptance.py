"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The long-running optional H4 stress run is gated behind
PAULIFLOW_RUN_STRESS=1.
"""
import json
import math
import os
import time

import numpy as np
import pytest

from pauliflow.cli import main as cli_main
from pauliflow.gflownet import TrainConfig, train
from pauliflow.graphs import (
    CompatGraph,
    Grouping,
    STRATEGIES,
    build_complement_graph,
    coloring_to_grouping,
    exact_min_colors,
    greedy_color,
    validate_coloring,
)
from pauliflow.hamio import bundled_path, load_hamiltonian, loads_hamiltonian
from pauliflow.measurement import MeasurementConfig, batch_metrics, estimate_measurements
from pauliflow.nn import DenseNet
from pauliflow.pauli import PauliWord, QubitHamiltonian, commutes_fc, commutes_qwc

from oracles import (
    all_words,
    commutes_dense,
    dense_backward,
    dense_forward,
    enumerate_terminals,
    estimate_measurements_oracle,
    qwc_dense,
)

H2_PATH = bundled_path("h2_sto3g_1A_jw.ham")
H4_PATH = bundled_path("h4_chain_sto3g_1A_jw.ham")

# Coefficient magnitudes (Hartree) of the bundled H2 system (STO-3G, 1.0 A,
# Jordan-Wigner on interleaved spins), copied from h2_sto3g_1A_jw.ham:
#   H2_A     each of the four XXYY-type terms
#   H2_Z0    Z0 and Z1;  H2_Z2  Z2 and Z3
#   H2_ZZpq  Zp Zq, with Z0 Z2 = Z1 Z3 and Z0 Z3 = Z1 Z2
H2_A = 0.04919764473153209
H2_Z0 = 0.13716573744910343
H2_Z2 = 0.13036294051883943
H2_ZZ01 = 0.15660062807224007
H2_ZZ23 = 0.16326768961293997
H2_ZZ02 = 0.10622904872375669
H2_ZZ03 = 0.15542669345528876
H2_EPSILON = 1.6e-3

# Reference targets for the bundled H2 system at eps = 1.6e-3. The estimator is
# m_est = (1/eps^2)(sum_g sqrt(S_g))^2, S_g the sum of squared coefficients in
# group g, so each m_est target is its closed form on the stated partition.
# Term indices follow the canonical order: 0-3 XXYY-type, 4-13 Z-type.
#   full, 14 singletons:     (sum |c|)^2 / eps^2
#   greedy FC (largest-first): {four XXYY + six ZZ}, {four Z}
#   greedy QWC (every strategy): four XXYY singletons, {ten Z-type}
H2_REFERENCE = {
    "full_m_est": (
        4 * H2_A + 2 * H2_Z0 + 2 * H2_Z2 + H2_ZZ01 + H2_ZZ23 + 2 * H2_ZZ02 + 2 * H2_ZZ03
    ) ** 2
    / H2_EPSILON**2,  # 969 028
    "greedy_lf_fc_m_est": (
        math.sqrt(4 * H2_A**2 + H2_ZZ01**2 + H2_ZZ23**2 + 2 * H2_ZZ02**2 + 2 * H2_ZZ03**2)
        + math.sqrt(2 * H2_Z0**2 + 2 * H2_Z2**2)
    ) ** 2
    / H2_EPSILON**2,  # 155 326
    "greedy_lf_fc_colors": 2,
    "greedy_lf_fc_groups": {
        frozenset({0, 1, 2, 3, 5, 6, 7, 9, 10, 12}),
        frozenset({4, 8, 11, 13}),
    },
    "greedy_qwc_m_est": (
        4 * H2_A
        + math.sqrt(
            2 * H2_Z0**2 + 2 * H2_Z2**2 + H2_ZZ01**2 + H2_ZZ23**2 + 2 * H2_ZZ02**2 + 2 * H2_ZZ03**2
        )
    ) ** 2
    / H2_EPSILON**2,  # 158 446
    "greedy_qwc_colors": 5,
    "greedy_qwc_groups": {
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset(range(4, 14)),
    },
}
H2_REL_TOL = 1e-6


def as_set_partition(grouping: Grouping) -> set[frozenset[int]]:
    """Groups as a set of sets, independent of group and member order."""
    return {frozenset(group) for group in grouping.groups}


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{' - ' + detail if detail else ''}")


def test_criterion_1_commutation_oracle_equivalence():
    started = time.perf_counter()
    words = all_words(3)
    mismatches = 0
    parsed = {t: PauliWord.from_text(t) for t in words}
    for ta in words:
        for tb in words:
            if commutes_fc(parsed[ta], parsed[tb]) != commutes_dense(ta, tb, tol=1e-12):
                mismatches += 1
            if commutes_qwc(parsed[ta], parsed[tb]) != qwc_dense(ta, tb):
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 5.0
    report("C1 commutation-oracle", ok, f"{len(words)**2} pairs, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 5.0


def test_criterion_2_h2_reference_values():
    started = time.perf_counter()
    h = load_hamiltonian(H2_PATH)
    checks = []

    def close(got, want):
        return abs(got - want) <= H2_REL_TOL * want

    checks.append(("n_p", h.n_terms, 14, h.n_terms == 14))

    singletons = Grouping(tuple((i,) for i in range(h.n_terms)))
    full = estimate_measurements(h, singletons, epsilon=H2_EPSILON)
    want = H2_REFERENCE["full_m_est"]
    checks.append(("full_m_est", full, want, close(full, want)))

    g_fc = build_complement_graph(h, "fc")
    lf = greedy_color(g_fc, "largest_first")
    lf_grouping = coloring_to_grouping(g_fc, lf)
    lf_m = estimate_measurements(h, lf_grouping, epsilon=H2_EPSILON)
    checks.append(
        ("greedy_lf_fc_colors", lf.max_color, 2, lf.max_color == H2_REFERENCE["greedy_lf_fc_colors"])
    )
    got, want = as_set_partition(lf_grouping), H2_REFERENCE["greedy_lf_fc_groups"]
    checks.append(("greedy_lf_fc_groups", got, want, got == want))
    want = H2_REFERENCE["greedy_lf_fc_m_est"]
    checks.append(("greedy_lf_fc_m_est", lf_m, want, close(lf_m, want)))

    g_qwc = build_complement_graph(h, "qwc")
    for strategy in STRATEGIES:
        c = greedy_color(g_qwc, strategy, seed=0)
        grouping = coloring_to_grouping(g_qwc, c)
        m = estimate_measurements(h, grouping, epsilon=H2_EPSILON)
        checks.append(
            (f"{strategy}_qwc_colors", c.max_color, 5, c.max_color == H2_REFERENCE["greedy_qwc_colors"])
        )
        got, want = as_set_partition(grouping), H2_REFERENCE["greedy_qwc_groups"]
        checks.append((f"{strategy}_qwc_groups", got, want, got == want))
        want = H2_REFERENCE["greedy_qwc_m_est"]
        checks.append((f"{strategy}_qwc_m_est", m, want, close(m, want)))

    elapsed = time.perf_counter() - started
    checks.append(("runtime_s", elapsed, 1.0, elapsed < 1.0))
    failures = [c for c in checks if not c[3]]
    for name, got, want, ok in checks:
        prefix = "ok " if ok else "MISMATCH "
        print(f"    {prefix}{name}: got {got!r}, target {want!r}")
    report("C2 h2-reference-values", not failures, f"{len(failures)} mismatched values")
    assert not failures, (
        "bundled H2 system does not reproduce the reference targets: "
        + "; ".join(f"{n}: got {g!r}, target {w!r}" for n, g, w, _ in failures)
    )


@pytest.mark.parametrize("seed", range(5))
def test_criterion_3_gflownet_h2_fc(seed):
    started = time.perf_counter()
    h = load_hamiltonian(H2_PATH)
    sampler = train(h, TrainConfig(seed=seed))  # defaults: 1000 iterations
    best = sampler.best
    elapsed = time.perf_counter() - started
    ok = best.color_count == 2 and best.m_est <= 0.49e6 and elapsed < 300.0
    report(
        f"C3 gflownet-h2-fc seed {seed}",
        ok,
        f"best {best.m_est/1e6:.4f}M ({best.color_count} groups), {elapsed:.0f}s",
    )
    assert best.color_count == 2
    assert best.m_est <= 0.49e6
    assert elapsed < 300.0


def random_proper_grouping(g, rng):
    """Random valid coloring that, unlike greedy smallest-feasible colorings,
    can leave two color classes fully compatible (mergeable)."""
    n = g.n_vertices
    assignment = np.zeros(n, dtype=np.int64)
    for v in rng.permutation(n):
        blocked = {int(assignment[u]) for u in np.flatnonzero(g.adjacency[v])}
        feasible = [c for c in range(1, int(assignment.max(initial=0)) + 2) if c not in blocked]
        assignment[v] = int(rng.choice(feasible))
    # compact color labels to 1..k
    labels = {c: i + 1 for i, c in enumerate(sorted(set(map(int, assignment))))}
    from pauliflow.graphs import Coloring

    return coloring_to_grouping(g, Coloring(np.array([labels[int(c)] for c in assignment])))


def test_criterion_4_merge_monotonicity():
    rng = np.random.Generator(np.random.PCG64(2024))
    tested = 0
    attempts = 0
    while tested < 1000:
        attempts += 1
        assert attempts < 20_000, "could not build enough merge candidates"
        n_terms = int(rng.integers(2, 10))
        words, seen = [], set()
        while len(words) < n_terms:
            text = "".join(rng.choice(list("IXYZ")) for _ in range(3))
            if text != "III" and text not in seen:
                seen.add(text)
                words.append(PauliWord.from_text(text))
        h = QubitHamiltonian(3, [(float(rng.normal()), w) for w in words])
        mode = "fc" if attempts % 2 else "qwc"
        g = build_complement_graph(h, mode)
        grouping = random_proper_grouping(g, rng)
        pairs = [
            (a, b)
            for a in range(grouping.n_groups)
            for b in range(a + 1, grouping.n_groups)
            if all(not g.adjacency[i, j] for i in grouping.groups[a] for j in grouping.groups[b])
        ]
        if not pairs:
            continue
        a, b = pairs[int(rng.integers(len(pairs)))]
        merged = tuple(grp for k, grp in enumerate(grouping.groups) if k not in (a, b)) + (
            grouping.groups[a] + grouping.groups[b],
        )
        before = estimate_measurements(h, grouping, epsilon=1.6e-3)
        after = estimate_measurements(h, Grouping(merged), epsilon=1.6e-3)
        assert after <= before * (1 + 1e-12), f"merge raised m_est: {after} > {before}"
        tested += 1
    report("C4 merge-monotonicity", True, f"{tested} merges across {attempts} sampled instances")


def test_criterion_5_exact_oracle_dominance():
    rng = np.random.Generator(np.random.PCG64(77))
    for trial in range(200):
        n = int(rng.integers(1, 13))
        p = float(rng.uniform(0.1, 0.9))
        upper = np.triu(rng.random((n, n)) < p, k=1)
        g = CompatGraph(mode="fc", adjacency=upper | upper.T)
        exact = exact_min_colors(g, vertex_limit=12)
        assert validate_coloring(g, exact)
        for strategy in STRATEGIES:
            greedy = greedy_color(g, strategy, seed=trial)
            assert validate_coloring(g, greedy)
            assert exact.max_color <= greedy.max_color
    report("C5 exact-oracle-dominance", True, "200 graphs, 3 strategies each")


def test_criterion_6_distribution_fidelity():
    h = loads_hamiltonian("qubits: 2\n0.9 Z0\n0.7 Z1\n0.5 Z0 Z1\n0.3 X0 X1\n")
    assert h.n_terms == 4
    config = TrainConfig(
        iterations=4000,
        trajectories_per_iteration=32,
        seed=11,
        mask_extra_colors=1,
        mode="qwc",
        learning_rate=3e-3,
        hidden_sizes=(48, 48),
        accumulation_period=1,
        measurement=MeasurementConfig(epsilon=0.05, lambda0=10.0),
    )
    sampler = train(h, config)
    final_loss = sampler.log[-1].mean_loss
    terminals = enumerate_terminals(sampler.mdp)
    _, terminal_rewards, _ = batch_metrics(h, terminals, config.measurement)
    rewards = {a.tobytes(): r for a, r in zip(terminals, terminal_rewards.tolist())}
    z = sum(rewards.values())
    n = 100_000
    counts: dict[bytes, int] = {}
    for coloring, _, _ in sampler.sample(n, rng=123):
        key = coloring.assignment.astype(np.int64).tobytes()
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(abs(counts.get(k, 0) / n - rewards[k] / z) for k in rewards)
    ok = final_loss < 1e-5 and tv < 0.15
    report(
        "C6 distribution-fidelity",
        ok,
        f"loss {final_loss:.2e}, TV {tv:.4f} over {len(rewards)} terminal states",
    )
    assert final_loss < 1e-5
    assert tv < 0.15
    assert set(counts) <= set(rewards)


def test_criterion_7_gradient_correctness():
    worst = 0.0
    for seed in range(50):
        rng = np.random.Generator(np.random.PCG64(seed))
        sizes = [int(rng.integers(2, 8)), int(rng.integers(2, 16)), int(rng.integers(1, 5))]
        if seed % 3 == 0:
            sizes.insert(2, int(rng.integers(2, 12)))  # some three-layer nets
        net = DenseNet.initialize(sizes, seed=seed)
        x = rng.normal(size=sizes[0])
        gout = rng.normal(size=sizes[-1])
        analytic = dense_backward(net, x, gout)
        step = 1e-5
        for p, a in zip(net.parameters(), analytic):
            flat, aflat = p.reshape(-1), a.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                plus = float(dense_forward(net, x) @ gout)
                flat[i] = original - step
                minus = float(dense_forward(net, x) @ gout)
                flat[i] = original
                numeric = (plus - minus) / (2 * step)
                rel = abs(aflat[i] - numeric) / max(abs(numeric), 1e-8)
                worst = max(worst, rel)
    ok = worst < 1e-4
    report("C7 gradient-correctness", ok, f"50 nets, max relative error {worst:.2e}")
    assert worst < 1e-4


def test_criterion_8_deterministic_reports(tmp_path, capsys):
    argv = [
        "compare", "--input", H2_PATH, "--mode", "fc",
        "--methods", "full,greedy-lf,greedy-dsat,greedy-rs",
        "--seed", "3", "--deterministic",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    parsed = json.loads(a.read_text())
    report("C8 deterministic-reports", identical, f"{len(a.read_bytes())} bytes, {len(parsed['methods'])} methods")
    assert identical


@pytest.mark.stress
@pytest.mark.skipif(
    os.environ.get("PAULIFLOW_RUN_STRESS") != "1",
    reason="long-running optional stress target; set PAULIFLOW_RUN_STRESS=1",
)
def test_optional_h4_stress_beats_greedy():
    h = load_hamiltonian(H4_PATH)
    g = build_complement_graph(h, "fc")
    greedy_best = min(
        estimate_measurements(
            h, coloring_to_grouping(g, greedy_color(g, s, seed=0)), epsilon=1.6e-3
        )
        for s in STRATEGIES
    )
    config = TrainConfig(seed=0, hidden_sizes=(128, 128))  # 1000 iterations
    sampler = train(h, config)
    best = sampler.best
    ok = best.m_est <= greedy_best
    report(
        "H4 stress (non-gating)",
        ok,
        f"gflownet {best.m_est/1e6:.3f}M ({best.color_count}) vs best greedy {greedy_best/1e6:.3f}M",
    )
    assert best.m_est <= greedy_best
