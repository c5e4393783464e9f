import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliflow.graphs import (
    Coloring,
    Grouping,
    build_complement_graph,
    coloring_to_grouping,
    greedy_color,
)
from pauliflow.hamio import bundled_path, load_hamiltonian, loads_hamiltonian
from pauliflow.measurement import (
    EmptyGroupingError,
    MeasurementConfig,
    batch_metrics,
    estimate_measurements,
)
from pauliflow.pauli import PauliWord, QubitHamiltonian

from oracles import estimate_measurements_oracle, one_norm


def simple_h(coeffs, texts, n):
    return QubitHamiltonian(n, [(c, PauliWord.from_text(t, n)) for c, t in zip(coeffs, texts)])


def random_h_and_grouping(seed, mode=None):
    """Random Hamiltonian plus a random (not greedy) proper grouping; random
    feasible-color choices can leave two groups fully compatible, which the
    merge test needs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_terms = int(rng.integers(2, 10))
    words, seen = [], set()
    while len(words) < n_terms:
        text = "".join(rng.choice(list("IXYZ")) for _ in range(3))
        if text != "III" and text not in seen:
            seen.add(text)
            words.append(PauliWord.from_text(text))
    h = QubitHamiltonian(3, [(float(rng.normal()), wd) for wd in words])
    mode = mode or ("fc" if seed % 2 else "qwc")
    g = build_complement_graph(h, mode)
    n = g.n_vertices
    assignment = np.zeros(n, dtype=np.int64)
    for v in rng.permutation(n):
        blocked = {int(assignment[u]) for u in np.flatnonzero(g.adjacency[v])}
        feasible = [c for c in range(1, int(assignment.max(initial=0)) + 2) if c not in blocked]
        assignment[v] = int(rng.choice(feasible))
    labels = {c: i + 1 for i, c in enumerate(sorted(set(map(int, assignment))))}
    coloring = Coloring(np.array([labels[int(c)] for c in assignment]))
    return h, g, coloring_to_grouping(g, coloring)


class TestEstimate:
    def test_single_term(self):
        h = simple_h([0.5], ["Z0"], 1)
        m = estimate_measurements(h, Grouping(((0,),)), epsilon=1.6e-3)
        assert m == pytest.approx(0.25 / 2.56e-6)

    def test_singleton_grouping_equals_one_norm_identity(self):
        h = simple_h([0.5, -0.3, 0.2], ["Z0", "X0 X1", "Y1"], 2)
        singletons = Grouping(tuple((i,) for i in range(3)))
        m = estimate_measurements(h, singletons, epsilon=1.6e-3)
        assert m == pytest.approx(one_norm(h) ** 2 / 1.6e-3**2, rel=1e-12)

    def test_worked_example(self):
        # coefficients (0.5, 0.3, 0.2), groups {0,1},{2}: (sqrt(0.34)+0.2)^2/eps^2
        h = simple_h([0.5, 0.3, 0.2], ["Z0", "Z1", "Z0 Z1"], 2)
        m = estimate_measurements(h, Grouping(((0, 1), (2,))), epsilon=1.6e-3)
        expected = (np.sqrt(0.34) + 0.2) ** 2 / 2.56e-6
        assert m == pytest.approx(expected, rel=1e-12)
        assert m == pytest.approx(2.3955e5, rel=1e-4)

    def test_matches_oracle_on_random_instances(self):
        for seed in range(25):
            h, _, grouping = random_h_and_grouping(seed)
            m = estimate_measurements(h, grouping, epsilon=1.6e-3)
            oracle = estimate_measurements_oracle(h.coefficients(), grouping.groups, 1.6e-3)
            assert m == pytest.approx(oracle, rel=1e-12)

    def test_empty_grouping(self):
        h = simple_h([0.5], ["Z0"], 1)
        with pytest.raises(EmptyGroupingError):
            estimate_measurements(h, Grouping(()))

    def test_out_of_range_index(self):
        h = simple_h([0.5], ["Z0"], 1)
        with pytest.raises(IndexError):
            estimate_measurements(h, Grouping(((0, 3),)))

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("inf"), float("nan"), 1e-300, 1e-155, 1e200])
    def test_unusable_epsilon_rejected(self, epsilon):
        """epsilon must be positive and finite, with epsilon**2 and epsilon**-2 finite."""
        h = simple_h([0.5], ["Z0"], 1)
        with pytest.raises(ValueError, match="epsilon"):
            estimate_measurements(h, Grouping(((0,),)), epsilon=epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            MeasurementConfig(epsilon=epsilon)

    @pytest.mark.parametrize("lambda0", [0.0, -1.0, float("inf"), float("nan")])
    def test_unusable_lambda0_rejected(self, lambda0):
        with pytest.raises(ValueError, match="lambda0"):
            MeasurementConfig(lambda0=lambda0)

    def test_smallest_usable_epsilon_gives_finite_estimate(self):
        h = simple_h([0.5], ["Z0"], 1)
        assert np.isfinite(estimate_measurements(h, Grouping(((0,),)), epsilon=1e-150))

    def test_term_in_two_groups_rejected(self):
        h = simple_h([0.5, 0.3], ["Z0", "Z1"], 2)
        with pytest.raises(ValueError, match="term 1 is in two groups"):
            estimate_measurements(h, Grouping(((0, 1), (1,))))

    @pytest.mark.parametrize("coeff,epsilon", [(1e300, 1.6e-3), (5.0, 1e-154)])
    def test_overflowing_estimate_rejected(self, coeff, epsilon):
        """epsilon**-2 is finite here, but m_est is not."""
        h = simple_h([coeff, coeff], ["Z0", "X0"], 1)
        with pytest.raises(ValueError, match="m_est overflows"):
            estimate_measurements(h, Grouping(((0,), (1,))), epsilon=epsilon)

    def test_overflowing_reward_rejected_but_not_in_estimate(self):
        """A tiny m_est overflows lambda0 / m_est; batch_metrics rejects that
        reward, while estimate_measurements, which reports no reward, returns
        the m_est."""
        h = simple_h([0.5, 0.3], ["Z0", "X0"], 1)
        with pytest.raises(ValueError, match="reward overflows"):
            batch_metrics(h, np.array([[1, 2]]), MeasurementConfig(epsilon=1e154))
        m_est = estimate_measurements(h, Grouping(((0,), (1,))), epsilon=1e154)
        assert 0 < m_est < 1e-300

    def test_merge_monotonicity(self):
        """Merging two groups whose cross-pairs are compatible never raises m_est."""
        merges_tested = 0
        for seed in range(400):
            h, g, grouping = random_h_and_grouping(seed)
            mergeable = None
            for a in range(grouping.n_groups):
                for b in range(a + 1, grouping.n_groups):
                    if all(
                        not g.adjacency[i, j]
                        for i in grouping.groups[a]
                        for j in grouping.groups[b]
                    ):
                        mergeable = (a, b)
                        break
                if mergeable:
                    break
            if mergeable is None:
                continue
            a, b = mergeable
            merged_groups = tuple(
                grp for k, grp in enumerate(grouping.groups) if k not in (a, b)
            ) + (grouping.groups[a] + grouping.groups[b],)
            before = estimate_measurements(h, grouping, epsilon=1.6e-3)
            after = estimate_measurements(h, Grouping(merged_groups), epsilon=1.6e-3)
            assert after <= before * (1 + 1e-12)
            merges_tested += 1
        assert merges_tested >= 50, f"only {merges_tested} mergeable instances sampled"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000), st.floats(1e-4, 1e-1))
    def test_scale_law(self, seed, eps):
        h, _, grouping = random_h_and_grouping(seed)
        assert estimate_measurements(h, grouping, epsilon=eps / 2) == pytest.approx(
            4 * estimate_measurements(h, grouping, epsilon=eps), rel=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_permutation_invariance(self, seed):
        h, _, grouping = random_h_and_grouping(seed)
        rng = np.random.Generator(np.random.PCG64(seed + 1))
        shuffled = list(grouping.groups)
        rng.shuffle(shuffled)
        shuffled = tuple(tuple(rng.permutation(list(grp))) for grp in shuffled)
        assert estimate_measurements(h, Grouping(shuffled), epsilon=1.6e-3) == pytest.approx(
            estimate_measurements(h, grouping, epsilon=1.6e-3), rel=1e-12
        )


def reward(h, assignment, config=MeasurementConfig()):
    """The sampler's reward of one complete assignment row."""
    row = np.asarray(assignment, dtype=np.int64)
    return float(batch_metrics(h, row[None], config)[1][0])


class TestReward:
    def test_all_singletons(self):
        h = simple_h([0.5, -0.3], ["X0", "Z0"], 1)
        cfg = MeasurementConfig(epsilon=1.6e-3, lambda0=1e6)
        r = reward(h, [1, 2], cfg)
        assert r == pytest.approx(0.0 + 1e6 * 1.6e-3**2 / one_norm(h) ** 2)

    def test_hand_evaluated_pair(self):
        # edgeless 2-vertex graph, coefficients (1,1), one color, eps=1, lambda0=1e6
        h = simple_h([1.0, 1.0], ["Z0", "Z1"], 2)
        r = reward(h, [1, 1], MeasurementConfig(epsilon=1.0, lambda0=1e6))
        assert r == pytest.approx((2 - 1) + 1e6 / 2.0)

    def test_strictly_positive_on_random_instances(self):
        for seed in range(20):
            h, g, _ = random_h_and_grouping(seed)
            coloring = greedy_color(g, "dsatur")
            assert reward(h, coloring.assignment) > 0

    def test_monotone_in_max_color_and_m_est(self):
        h = simple_h([0.6, 0.4, 0.3], ["Z0", "Z1", "Z0 Z1"], 2)
        cfg = MeasurementConfig()  # everything commutes, so any coloring is proper
        one_group = reward(h, [1, 1, 1], cfg)
        two_groups = reward(h, [1, 1, 2], cfg)
        assert one_group > two_groups  # fewer colors and lower m_est


class TestH2Fixture:
    def test_full_grouping_value_frozen(self):
        """Singleton m_est on the bundled H2 system (regression against the
        generation pipeline: STO-3G RHF integrals at the 1.0 A bond length,
        Jordan-Wigner on interleaved spins)."""
        h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
        singletons = Grouping(tuple((i,) for i in range(h.n_terms)))
        m = estimate_measurements(h, singletons, epsilon=1.6e-3)
        assert one_norm(h) == pytest.approx(1.5750277369, rel=1e-9)
        assert m == pytest.approx(1.5750277369**2 / 2.56e-6, rel=1e-9)
