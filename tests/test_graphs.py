import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliflow.graphs import (
    STRATEGIES,
    CompatGraph,
    Coloring,
    EmptyInputError,
    GraphSizeError,
    IncompleteColoringError,
    InvalidColoringError,
    build_complement_graph,
    coloring_to_dot,
    coloring_to_grouping,
    exact_min_colors,
    greedy_color,
    validate_coloring,
)
from pauliflow.hamio import bundled_path, load_hamiltonian, loads_hamiltonian
from pauliflow.pauli import PauliWord, QubitHamiltonian, commutes_fc, commutes_qwc

from oracles import greedy_color_reference


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return CompatGraph(mode="fc", adjacency=adj)


def random_graph(n, p, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    adj = np.triu(rng.random((n, n)) < p, k=1)
    return CompatGraph(mode="fc", adjacency=adj | adj.T)


def fixture_graph(name, mode):
    return build_complement_graph(load_hamiltonian(bundled_path(name)), mode)


TRIANGLE = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
FIVE_CYCLE = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def brute_force_chromatic(g):
    """Oracle: smallest k admitting a proper coloring, by exhaustive assignment."""
    n = g.n_vertices
    for k in range(1, n + 1):
        for assignment in itertools.product(range(1, k + 1), repeat=n):
            a = np.array(assignment)
            if not np.any((a[:, None] == a[None, :]) & g.adjacency):
                return k
    return n


class TestBuildComplementGraph:
    def test_single_term(self):
        h = QubitHamiltonian(2, [(1.0, PauliWord.from_text("XX"))])
        g = build_complement_graph(h, "fc")
        assert g.n_vertices == 1
        assert not g.adjacency.any()

    def test_fc_vs_qwc_edges(self):
        h = loads_hamiltonian("qubits: 2\n1.0 X0 X1\n1.0 Y0 Y1\n1.0 Z0\n")
        g_fc = build_complement_graph(h, "fc")
        # XX/YY commute; Z0 anticommutes with both
        assert sorted(map(tuple, np.argwhere(np.triu(g_fc.adjacency)))) == [(0, 2), (1, 2)]
        g_qwc = build_complement_graph(h, "qwc")
        assert sorted(map(tuple, np.argwhere(np.triu(g_qwc.adjacency)))) == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            build_complement_graph(QubitHamiltonian(2), "fc")

    def test_bad_mode(self):
        h = QubitHamiltonian(2, [(1.0, PauliWord.from_text("XX"))])
        with pytest.raises(ValueError):
            build_complement_graph(h, "full")

    def test_edge_means_incompatible(self):
        h = loads_hamiltonian(
            "qubits: 3\n0.5 X0\n0.5 Z0\n0.5 Z0 Z1\n0.5 X1 Y2\n0.5 Z2\n"
        )
        words = h.words()
        for mode, pred in (("fc", commutes_fc), ("qwc", commutes_qwc)):
            g = build_complement_graph(h, mode)
            for i in range(len(words)):
                for j in range(len(words)):
                    if i != j:
                        assert g.adjacency[i, j] == (not pred(words[i], words[j]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 40))
    def test_matches_pairwise_predicates(self, seed, n_qubits, n_terms):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.random((n_terms, n_qubits)) < 0.4
        z = rng.random((n_terms, n_qubits)) < 0.4
        z[:, 0] |= ~(x | z).any(axis=1)  # no identity words
        h = QubitHamiltonian(
            n_qubits, [(1.0, PauliWord(n_qubits, xb, zb)) for xb, zb in zip(x, z)]
        )
        words = h.words()
        for mode, pred in (("fc", commutes_fc), ("qwc", commutes_qwc)):
            expected = np.array(
                [[i != j and not pred(a, b) for j, b in enumerate(words)]
                 for i, a in enumerate(words)]
            )
            assert np.array_equal(build_complement_graph(h, mode).adjacency, expected)


class TestGreedyColor:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_triangle_needs_three(self, strategy):
        c = greedy_color(TRIANGLE, strategy, seed=7)
        assert c.max_color == 3
        assert validate_coloring(TRIANGLE, c)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_edgeless_one_color(self, strategy):
        g = graph_from_edges(4, [])
        assert greedy_color(g, strategy).max_color == 1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_colors_contiguous_from_one(self, strategy):
        g = random_graph(15, 0.4, seed=3)
        c = greedy_color(g, strategy, seed=11)
        used = sorted(set(int(x) for x in c.assignment))
        assert used == list(range(1, c.max_color + 1))

    def test_deterministic_given_seed(self):
        g = random_graph(20, 0.3, seed=5)
        a = greedy_color(g, "random_sequential", seed=42).assignment
        b = greedy_color(g, "random_sequential", seed=42).assignment
        assert np.array_equal(a, b)
        c = greedy_color(g, "random_sequential", seed=43).assignment
        assert not np.array_equal(a, c)  # overwhelmingly likely for n=20

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12), st.floats(0.1, 0.9))
    def test_greedy_always_proper(self, seed, n, p):
        g = random_graph(n, p, seed)
        for strategy in STRATEGIES:
            assert validate_coloring(g, greedy_color(g, strategy, seed=seed))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 40), st.floats(0.0, 1.0))
    def test_matches_scalar_reference(self, seed, n, p):
        g = random_graph(n, p, seed)
        for strategy in STRATEGIES:
            assert np.array_equal(
                greedy_color(g, strategy, seed=seed).assignment,
                greedy_color_reference(g, strategy, seed=seed),
            )

    @pytest.mark.parametrize("mode", ["fc", "qwc"])
    @pytest.mark.parametrize("name", ["h2_sto3g_1A_jw.ham", "h4_chain_sto3g_1A_jw.ham"])
    def test_matches_scalar_reference_on_bundled(self, name, mode):
        g = fixture_graph(name, mode)
        for strategy in STRATEGIES:
            for seed in (0, 1):
                assert np.array_equal(
                    greedy_color(g, strategy, seed=seed).assignment,
                    greedy_color_reference(g, strategy, seed=seed),
                )

    @pytest.mark.parametrize("mode, counts", [("fc", (9, 8, 12)), ("qwc", (68, 67, 69))])
    def test_h4_color_counts(self, mode, counts):
        g = fixture_graph("h4_chain_sto3g_1A_jw.ham", mode)
        strategies = ("largest_first", "dsatur", "random_sequential")
        assert tuple(greedy_color(g, s, seed=0).max_color for s in strategies) == counts


class TestValidateColoring:
    def test_edgeless_single_color(self):
        g = graph_from_edges(3, [])
        assert validate_coloring(g, Coloring(np.array([1, 1, 1])))

    def test_conflict_detected(self):
        g = graph_from_edges(2, [(0, 1)])
        assert not validate_coloring(g, Coloring(np.array([1, 1])))
        assert validate_coloring(g, Coloring(np.array([1, 2])))

    def test_incomplete_rejected(self):
        g = graph_from_edges(2, [(0, 1)])
        with pytest.raises(IncompleteColoringError):
            validate_coloring(g, Coloring(np.array([1, 0])))

    def test_wrong_length_rejected(self):
        g = graph_from_edges(2, [(0, 1)])
        with pytest.raises(InvalidColoringError):
            validate_coloring(g, Coloring(np.array([1, 2, 1])))


class TestExactMinColors:
    def test_triangle(self):
        assert exact_min_colors(TRIANGLE).max_color == 3

    def test_odd_cycle(self):
        assert exact_min_colors(FIVE_CYCLE).max_color == 3

    def test_size_limit(self):
        g = random_graph(25, 0.2, seed=1)
        with pytest.raises(GraphSizeError):
            exact_min_colors(g, vertex_limit=20)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8), st.floats(0.1, 0.9))
    def test_matches_brute_force(self, seed, n, p):
        g = random_graph(n, p, seed)
        c = exact_min_colors(g)
        assert validate_coloring(g, c)
        assert c.max_color == brute_force_chromatic(g)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 10), st.floats(0.1, 0.9))
    def test_never_beaten_by_greedy(self, seed, n, p):
        g = random_graph(n, p, seed)
        exact = exact_min_colors(g).max_color
        for strategy in STRATEGIES:
            assert exact <= greedy_color(g, strategy, seed=seed).max_color


class TestGrouping:
    def test_singletons(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        grouping = coloring_to_grouping(g, Coloring(np.array([1, 2, 3])))
        assert grouping == ((0,), (1,), (2,))

    def test_one_group(self):
        g = graph_from_edges(3, [])
        grouping = coloring_to_grouping(g, Coloring(np.array([1, 1, 1])))
        assert grouping == ((0, 1, 2),)

    def test_improper_rejected(self):
        g = graph_from_edges(2, [(0, 1)])
        with pytest.raises(InvalidColoringError):
            coloring_to_grouping(g, Coloring(np.array([1, 1])))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_duality_groups_are_compatible_cliques(self, seed):
        """Proper complement coloring <=> groups pairwise compatible, re-checked
        directly with the commutation predicates."""
        rng = np.random.Generator(np.random.PCG64(seed))
        n_terms = int(rng.integers(2, 9))
        words = []
        seen = set()
        while len(words) < n_terms:
            text = "".join(rng.choice(list("IXYZ")) for _ in range(3))
            if text != "III" and text not in seen:
                seen.add(text)
                words.append(PauliWord.from_text(text))
        h = QubitHamiltonian(3, [(float(rng.normal()), wd) for wd in words])
        mode = "fc" if seed % 2 else "qwc"
        pred = commutes_fc if mode == "fc" else commutes_qwc
        g = build_complement_graph(h, mode)
        grouping = coloring_to_grouping(g, greedy_color(g, "dsatur"))
        all_indices = sorted(i for grp in grouping for i in grp)
        assert all_indices == list(range(h.n_terms))
        for grp in grouping:
            for i in grp:
                for j in grp:
                    assert pred(h.words()[i], h.words()[j])

    def test_color_permutation_preserves_partition(self):
        g = random_graph(10, 0.4, seed=2)
        c = greedy_color(g, "largest_first")
        k = c.max_color
        perm = np.concatenate([[0], np.roll(np.arange(1, k + 1), 1)])
        permuted = Coloring(perm[c.assignment])
        assert validate_coloring(g, permuted)
        original = {frozenset(grp) for grp in coloring_to_grouping(g, c)}
        rotated = {frozenset(grp) for grp in coloring_to_grouping(g, permuted)}
        assert original == rotated


class TestDotExport:
    def test_single_vertex(self):
        h = QubitHamiltonian(2, [(1.0, PauliWord.from_text("XX"))])
        g = build_complement_graph(h, "fc")
        dot = coloring_to_dot(h, g, Coloring(np.array([1])), label="m_est=1.0")
        assert dot.startswith("graph ")
        assert 'label="XX"' in dot
        assert "m_est=1.0" in dot

    def test_improper_coloring_rejected(self):
        h = loads_hamiltonian("qubits: 1\n1.0 X0\n1.0 Z0\n")
        g = build_complement_graph(h, "fc")
        with pytest.raises(InvalidColoringError):
            coloring_to_dot(h, g, Coloring(np.array([1, 1])))

    def test_edges_rendered(self):
        h = loads_hamiltonian("qubits: 1\n1.0 X0\n1.0 Z0\n")
        g = build_complement_graph(h, "fc")
        dot = coloring_to_dot(h, g, Coloring(np.array([1, 2])))
        assert "v0 -- v1;" in dot
