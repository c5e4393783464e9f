"""Tests for the benchmark's own output checks.

    python3 -m pytest perfbench -q

The checks must pass correct outputs and reject corrupted ones: an improper
colouring, a colouring over the cap, a wrong m_est and a wrong `exact`
colour count.
"""
from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import checks

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "pauliflow" / "fixtures"
H2 = FIXTURES / "h2_sto3g_1A_jw.ham"
H4 = FIXTURES / "h4_chain_sto3g_1A_jw.ham"
SYNTHETIC = FIXTURES / "synthetic_10term.ham"


def letters(ham: checks.Ham, i: int) -> dict[int, str]:
    table = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    return {q: table[(int(ham.x[i, q]), int(ham.z[i, q]))]
            for q in range(ham.n_qubits) if ham.x[i, q] or ham.z[i, q]}


def differing_qubits(a: dict[int, str], b: dict[int, str]) -> int:
    return sum(1 for q in a.keys() & b.keys() if a[q] != b[q])


@pytest.fixture(scope="module")
def synthetic():
    return checks.parse_ham(SYNTHETIC)


def proper_coloring(adj: np.ndarray) -> np.ndarray:
    """Smallest-free-colour greedy in index order, for building valid outputs."""
    colors = np.zeros(adj.shape[0], dtype=np.int64)
    for v in range(adj.shape[0]):
        taken = set(colors[adj[v]])
        colors[v] = next(c for c in itertools.count(1) if c not in taken)
    return colors


def test_parser_reads_bundled_systems():
    h2 = checks.parse_ham(H2)
    assert (h2.n_qubits, h2.n_terms) == (4, 14)
    assert h2.coeffs[0] == -0.04919764473153209
    assert letters(h2, 0) == {0: "X", 1: "X", 2: "Y", 3: "Y"}
    assert checks.parse_ham(H4).n_terms == 184


@pytest.mark.parametrize("path", [H2, SYNTHETIC, H4])
def test_conflict_tests_match_letter_rules(path):
    ham = checks.parse_ham(path)
    words = [letters(ham, i) for i in range(ham.n_terms)]
    fc, qwc = checks.conflict_fc(ham), checks.conflict_qwc(ham)
    for i, j in itertools.combinations(range(ham.n_terms), 2):
        differ = differing_qubits(words[i], words[j])
        assert fc[i, j] == (differ % 2 == 1)
        assert qwc[i, j] == (differ > 0)
    assert not fc.diagonal().any() and not qwc.diagonal().any()


def test_singletons_give_full_m_est(synthetic):
    singletons = np.arange(1, synthetic.n_terms + 1)
    assert math.isclose(checks.m_est(synthetic.coeffs, singletons),
                        checks.full_m_est(synthetic.coeffs), rel_tol=1e-12)


def test_brute_force_references():
    h2 = checks.parse_ham(H2)
    assert checks.min_m_est_bruteforce(h2.coeffs, checks.conflict_fc(h2), 2) == pytest.approx(
        113269.51, abs=0.01)
    assert checks.chromatic_number(checks.conflict_fc(checks.parse_ham(SYNTHETIC))) == 3


def test_valid_grouping_passes(synthetic):
    adj = checks.conflict_fc(synthetic)
    colors = proper_coloring(adj)
    m = checks.m_est(synthetic.coeffs, colors)
    assert checks.grouping_errors(synthetic, adj, colors, m, int(colors.max()), cap=10) == []


def test_improper_coloring_rejected(synthetic):
    adj = checks.conflict_fc(synthetic)
    colors = proper_coloring(adj)
    i, j = np.argwhere(adj)[0]
    colors[j] = colors[i]
    assert any("improper" in e for e in checks.coloring_errors(adj, colors))


def test_uncolored_term_rejected(synthetic):
    adj = checks.conflict_fc(synthetic)
    colors = np.arange(1, synthetic.n_terms + 1)
    colors[3] = 0
    assert any("uncolored" in e for e in checks.coloring_errors(adj, colors))


def test_coloring_over_cap_rejected(synthetic):
    adj = checks.conflict_fc(synthetic)
    colors = np.arange(1, synthetic.n_terms + 1)  # proper, but 10 colours
    assert checks.coloring_errors(adj, colors) == []
    assert any("above the cap" in e for e in checks.coloring_errors(adj, colors, cap=9))


def test_wrong_m_est_rejected(synthetic):
    adj = checks.conflict_fc(synthetic)
    colors = proper_coloring(adj)
    m = checks.m_est(synthetic.coeffs, colors)
    assert checks.grouping_errors(synthetic, adj, colors, m * (1 + 1e-7)) != []
    assert checks.grouping_errors(synthetic, adj, colors, m, int(colors.max()) + 1) != []


def report_for(ham: checks.Ham, mode: str, assignments: dict[str, np.ndarray]) -> dict:
    return {"n_p": ham.n_terms, "methods": [
        {"method": name, "coloring": a.tolist(), "color_count": int(a.max()),
         "m_est": checks.m_est(ham.coeffs, a)} for name, a in assignments.items()]}


def test_compare_report_checks(synthetic):
    adj = checks.conflict_fc(synthetic)
    chromatic = checks.chromatic_number(adj)
    full = np.arange(1, synthetic.n_terms + 1)
    greedy = proper_coloring(adj)
    good = report_for(synthetic, "fc", {"full": full, "greedy-lf": greedy})
    assert checks.compare_report_errors(good, synthetic, "fc", ["full", "greedy-lf"],
                                        chromatic) == []

    # proper, with m_est right for the colouring, but not a minimum colouring
    wrong_exact = report_for(synthetic, "fc", {"exact": full})
    assert any("chromatic number" in e for e in checks.compare_report_errors(
        wrong_exact, synthetic, "fc", ["exact"], chromatic))

    # proper, with m_est right for the colouring, but not one group per term
    wrong_full = report_for(synthetic, "fc", {"full": greedy})
    assert any("full m_est" in e
               for e in checks.compare_report_errors(wrong_full, synthetic, "fc", ["full"]))

    improper = report_for(synthetic, "fc", {"greedy-dsat": np.ones(synthetic.n_terms, dtype=int)})
    assert any("improper" in e for e in checks.compare_report_errors(
        improper, synthetic, "fc", ["greedy-dsat"]))


def test_compare_report_missing_method_rejected(synthetic):
    adj = checks.conflict_fc(synthetic)
    chromatic = checks.chromatic_number(adj)
    asked = ["full", "greedy-lf", "exact"]
    greedy = proper_coloring(adj)
    # every method it does report is right, but `exact` is missing
    dropped = report_for(synthetic, "fc", {"full": np.arange(1, synthetic.n_terms + 1),
                                           "greedy-lf": greedy})
    assert any("asked for" in e for e in checks.compare_report_errors(
        dropped, synthetic, "fc", asked, chromatic))
    assert any("asked for" in e for e in checks.compare_report_errors(
        {"n_p": synthetic.n_terms}, synthetic, "fc", asked, chromatic))
