import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliflow.graphs import (
    Coloring,
    IncompleteColoringError,
    InvalidColoringError,
    build_complement_graph,
    coloring_to_grouping,
    exact_min_colors,
    greedy_color,
)
from pauliflow.hamio import bundled_path, load_hamiltonian, loads_hamiltonian
from pauliflow.measurement import (
    MeasurementConfig,
    batch_metrics,
    check_metrics_finite,
    estimate_measurements,
)
from pauliflow.pauli import PauliWord, QubitHamiltonian

from oracles import estimate_measurements_oracle, one_norm


def simple_h(coeffs, texts, n):
    return QubitHamiltonian(n, [(c, PauliWord.from_text(t, n)) for c, t in zip(coeffs, texts)])


def random_h_and_coloring(seed, mode=None):
    """Random Hamiltonian plus a random (not greedy) proper coloring in colors
    1..k; random feasible-color choices can leave two groups fully compatible,
    which the merge test needs."""
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
    return h, g, Coloring(np.array([labels[int(c)] for c in assignment]))


class TestEstimate:
    def test_single_term(self):
        h = simple_h([0.5], ["Z0"], 1)
        m = estimate_measurements(h, Coloring([1]), epsilon=1.6e-3)
        assert m == pytest.approx(0.25 / 2.56e-6)

    def test_singleton_grouping_equals_one_norm_identity(self):
        h = simple_h([0.5, -0.3, 0.2], ["Z0", "X0 X1", "Y1"], 2)
        m = estimate_measurements(h, Coloring([1, 2, 3]), epsilon=1.6e-3)
        assert m == pytest.approx(one_norm(h) ** 2 / 1.6e-3**2, rel=1e-12)

    def test_worked_example(self):
        # coefficients (0.5, 0.3, 0.2), groups {0,1},{2}: (sqrt(0.34)+0.2)^2/eps^2
        h = simple_h([0.5, 0.3, 0.2], ["Z0", "Z1", "Z0 Z1"], 2)
        m = estimate_measurements(h, Coloring([1, 1, 2]), epsilon=1.6e-3)
        expected = (np.sqrt(0.34) + 0.2) ** 2 / 2.56e-6
        assert m == pytest.approx(expected, rel=1e-12)
        assert m == pytest.approx(2.3955e5, rel=1e-4)

    def test_matches_oracle_on_random_instances(self):
        for seed in range(25):
            h, g, coloring = random_h_and_coloring(seed)
            m = estimate_measurements(h, coloring, epsilon=1.6e-3)
            oracle = estimate_measurements_oracle(h.coefficients(), coloring_to_grouping(g, coloring), 1.6e-3)
            assert m == pytest.approx(oracle, rel=1e-12)

    def test_skipped_colors_give_the_contiguous_m_est(self):
        """A coloring whose colors have gaps, as an export-graph input may,
        has exactly the m_est of the coloring that ranks its colors 1..k."""
        h = simple_h([0.5, 0.3, 0.2], ["Z0", "Z1", "Z0 Z1"], 2)
        assert estimate_measurements(h, Coloring([1, 3, 3])) == estimate_measurements(h, Coloring([1, 2, 2]))
        for seed in range(25):
            h, _, coloring = random_h_and_coloring(seed)
            k = coloring.max_color
            gapped = np.concatenate([[0], np.cumsum(np.arange(1, k + 1) * 7)])  # increasing, with gaps
            assert estimate_measurements(h, Coloring(gapped[coloring.assignment])) == estimate_measurements(
                h, coloring
            )
        h = load_hamiltonian(bundled_path("h4_chain_sto3g_1A_jw.ham"))
        coloring = greedy_color(build_complement_graph(h, "qwc"), "largest_first")
        huge = Coloring(coloring.assignment + (2**62 - 100))
        assert estimate_measurements(h, huge) == estimate_measurements(h, coloring)

    def test_wrong_length_rejected(self):
        h = simple_h([0.5, 0.3], ["Z0", "Z1"], 2)
        for coloring in (Coloring([1]), Coloring([1, 2, 3]), Coloring([])):
            with pytest.raises(InvalidColoringError, match=f"covers {coloring.n_vertices} terms, Hamiltonian has 2"):
                estimate_measurements(h, coloring)

    def test_uncolored_term_rejected(self):
        h = simple_h([0.5, 0.3], ["Z0", "Z1"], 2)
        with pytest.raises(IncompleteColoringError, match="uncolored"):
            estimate_measurements(h, Coloring([1, 0]))

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("inf"), float("nan"), 1e-300, 1e-155, 1e200])
    def test_unusable_epsilon_rejected(self, epsilon):
        """epsilon must be positive and finite, with epsilon**2 and epsilon**-2 finite."""
        h = simple_h([0.5], ["Z0"], 1)
        with pytest.raises(ValueError, match="epsilon"):
            estimate_measurements(h, Coloring([1]), epsilon=epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            MeasurementConfig(epsilon=epsilon)

    @pytest.mark.parametrize("lambda0", [0.0, -1.0, float("inf"), float("nan")])
    def test_unusable_lambda0_rejected(self, lambda0):
        with pytest.raises(ValueError, match="lambda0"):
            MeasurementConfig(lambda0=lambda0)

    @pytest.mark.parametrize("field, value", [
        ("epsilon", "0.1"), ("epsilon", True), ("epsilon", None), ("epsilon", 1e-3j), ("epsilon", np.bool_(True)),
        ("lambda0", True), ("lambda0", "1e6"), ("lambda0", [1e6]),
    ])
    def test_values_that_are_not_real_numbers_rejected(self, field, value):
        """A string, a bool or a complex number is no epsilon or lambda0,
        though float() or a comparison would take some of them."""
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
            MeasurementConfig(**{field: value})

    def test_real_values_are_stored_as_floats(self):
        cfg = MeasurementConfig(epsilon=np.float32(0.5), lambda0=10**6)
        assert type(cfg.epsilon) is type(cfg.lambda0) is float
        assert cfg == MeasurementConfig(epsilon=0.5, lambda0=1e6)
        with pytest.raises(ValueError, match="^lambda0 must be positive and finite, got inf$"):
            MeasurementConfig(lambda0=10**400)  # past the largest float

    def test_check_metrics_finite_checks_both_extreme_rows(self):
        """The one-term-per-group row has the largest m_est, and the
        all-in-one-group row the largest reward."""
        h = simple_h([0.5, 0.3], ["Z0", "Z1"], 2)
        check_metrics_finite(h, MeasurementConfig())
        with pytest.raises(ValueError, match="m_est overflows"):
            check_metrics_finite(simple_h([1e300, 1e300], ["Z0", "Z1"], 2), MeasurementConfig())
        with pytest.raises(ValueError, match="reward overflows"):
            check_metrics_finite(h, MeasurementConfig(epsilon=1e150, lambda0=1e300))

    def test_smallest_usable_epsilon_gives_finite_estimate(self):
        h = simple_h([0.5], ["Z0"], 1)
        assert np.isfinite(estimate_measurements(h, Coloring([1]), epsilon=1e-150))

    @pytest.mark.parametrize("coeff,epsilon", [(1e300, 1.6e-3), (5.0, 1e-154)])
    def test_overflowing_estimate_rejected(self, coeff, epsilon):
        """epsilon**-2 is finite here, but m_est is not."""
        h = simple_h([coeff, coeff], ["Z0", "X0"], 1)
        with pytest.raises(ValueError, match="m_est overflows"):
            estimate_measurements(h, Coloring([1, 2]), epsilon=epsilon)

    def test_overflowing_reward_rejected_but_not_in_estimate(self):
        """A tiny m_est overflows lambda0 / m_est; batch_metrics rejects that
        reward, while estimate_measurements, which reports no reward, returns
        the m_est."""
        h = simple_h([0.5, 0.3], ["Z0", "X0"], 1)
        with pytest.raises(ValueError, match="reward overflows"):
            batch_metrics(h, np.array([[1, 2]]), MeasurementConfig(epsilon=1e154))
        m_est = estimate_measurements(h, Coloring([1, 2]), epsilon=1e154)
        assert 0 < m_est < 1e-300

    def test_merge_monotonicity(self):
        """Merging two groups whose cross-pairs are compatible never raises m_est."""
        merges_tested = 0
        for seed in range(400):
            h, g, coloring = random_h_and_coloring(seed)
            a = coloring.assignment
            mergeable = None
            for x in range(1, coloring.max_color + 1):
                for y in range(x + 1, coloring.max_color + 1):
                    if not np.any(g.adjacency[np.ix_(a == x, a == y)]):
                        mergeable = (x, y)
                        break
                if mergeable:
                    break
            if mergeable is None:
                continue
            x, y = mergeable
            before = estimate_measurements(h, coloring, epsilon=1.6e-3)
            after = estimate_measurements(h, Coloring(np.where(a == y, x, a)), epsilon=1.6e-3)
            assert after <= before * (1 + 1e-12)
            merges_tested += 1
        assert merges_tested >= 50, f"only {merges_tested} mergeable instances sampled"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000), st.floats(1e-4, 1e-1))
    def test_scale_law(self, seed, eps):
        h, _, coloring = random_h_and_coloring(seed)
        assert estimate_measurements(h, coloring, epsilon=eps / 2) == pytest.approx(
            4 * estimate_measurements(h, coloring, epsilon=eps), rel=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_permutation_invariance(self, seed):
        """Relabelling the colors does not change m_est."""
        h, _, coloring = random_h_and_coloring(seed)
        rng = np.random.Generator(np.random.PCG64(seed + 1))
        relabel = np.concatenate([[0], rng.permutation(coloring.max_color) + 1])
        assert estimate_measurements(h, Coloring(relabel[coloring.assignment]), epsilon=1.6e-3) == pytest.approx(
            estimate_measurements(h, coloring, epsilon=1.6e-3), rel=1e-12
        )


# repr of each classical method's m_est (epsilon 1.6e-3, seed 0) on the
# bundled systems, pinned from the code before estimate_measurements took a Coloring
PINNED_M_EST = {
    ("h4_chain_sto3g_1A_jw", "fc"): {
        "full": "19941086.778196994", "largest_first": "1648551.432612849",
        "dsatur": "1727966.6713852996", "random_sequential": "1697232.4047578361",
    },
    ("h4_chain_sto3g_1A_jw", "qwc"): {
        "full": "19941086.778196994", "largest_first": "6859510.152509569",
        "dsatur": "6754698.283351623", "random_sequential": "4648778.2842906",
    },
    ("synthetic_10term", "fc"): {
        "full": "6890625.0", "largest_first": "2597519.8347017504", "dsatur": "2597519.8347017504",
        "random_sequential": "2606482.9352383786", "exact": "2597519.8347017504",
    },
    ("synthetic_10term", "qwc"): {
        "full": "6890625.0", "largest_first": "3343925.376207291", "dsatur": "3343925.376207291",
        "random_sequential": "2683755.646079203", "exact": "3343925.376207291",
    },
}


@pytest.mark.parametrize("system,mode", PINNED_M_EST)
def test_classical_m_est_bits_pinned(system, mode):
    h = load_hamiltonian(bundled_path(f"{system}.ham"))
    g = build_complement_graph(h, mode)
    for method, want in PINNED_M_EST[system, mode].items():
        if method == "full":
            coloring = Coloring(np.arange(1, h.n_terms + 1))
        elif method == "exact":
            coloring = exact_min_colors(g)
        else:
            coloring = greedy_color(g, method, seed=0)
        assert repr(estimate_measurements(h, coloring, epsilon=1.6e-3)) == want, method


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
            h, g, _ = random_h_and_coloring(seed)
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
        m = estimate_measurements(h, Coloring(np.arange(1, h.n_terms + 1)), epsilon=1.6e-3)
        assert one_norm(h) == pytest.approx(1.5750277369, rel=1e-9)
        assert m == pytest.approx(1.5750277369**2 / 2.56e-6, rel=1e-9)
