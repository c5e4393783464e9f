"""Output checks that share no code with pauliflow.

Everything here is rebuilt from the Hamiltonian files: a `.ham` reader that
parses the Pauli letters itself, conflict tests from the x/z bit matrices,
the m_est formula, and exhaustive searches that give reference optima on the
small bundled systems. Each `*_errors` function returns a list of messages,
empty when the output passes.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPSILON = 1.6e-3
PRUNE_TOL = 1e-12
REL_TOL = 1e-9

_TOKEN = re.compile(r"^([XYZ])(\d+)$")


@dataclass(frozen=True)
class Ham:
    """Non-identity terms in file order (duplicates merged, tiny terms pruned)."""

    n_qubits: int
    coeffs: np.ndarray  # (n_terms,)
    x: np.ndarray  # (n_terms, n_qubits) bool, set for X and Y
    z: np.ndarray  # (n_terms, n_qubits) bool, set for Y and Z

    @property
    def n_terms(self) -> int:
        return self.coeffs.shape[0]


def parse_ham(path: str | Path) -> Ham:
    """Read the line format: a `qubits: n` header, then `<coeff> <tokens>|I`."""
    n_qubits = None
    merged: dict[tuple[tuple[str, int], ...], float] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n_qubits is None:
            head, _, count = line.partition(":")
            if head.strip() != "qubits":
                raise ValueError(f"{path}: missing qubits header")
            n_qubits = int(count)
            continue
        coeff_text, spec = line.split(None, 1)
        if spec.strip() == "I":
            continue
        letters = []
        for token in spec.split():
            m = _TOKEN.match(token)
            if m is None or int(m.group(2)) >= n_qubits:
                raise ValueError(f"{path}: bad Pauli token {token!r}")
            letters.append((m.group(1), int(m.group(2))))
        key = tuple(letters)
        merged[key] = merged.get(key, 0.0) + float(coeff_text)
    if n_qubits is None:
        raise ValueError(f"{path}: empty file")
    kept = [(key, c) for key, c in merged.items() if abs(c) >= PRUNE_TOL]
    x = np.zeros((len(kept), n_qubits), dtype=bool)
    z = np.zeros((len(kept), n_qubits), dtype=bool)
    for i, (key, _) in enumerate(kept):
        for letter, q in key:
            x[i, q] = letter in "XY"
            z[i, q] = letter in "YZ"
    coeffs = np.array([c for _, c in kept], dtype=float)
    return Ham(n_qubits, coeffs, x, z)


def conflict_fc(ham: Ham) -> np.ndarray:
    """Edge where two terms anticommute: (X.Z^T + Z.X^T) mod 2 == 1."""
    x = ham.x.astype(np.int64)
    z = ham.z.astype(np.int64)
    return ((x @ z.T + z @ x.T) % 2) == 1


def conflict_qwc(ham: Ham) -> np.ndarray:
    """Edge where, on some qubit, both terms act and their letters differ."""
    support = ham.x | ham.z
    both = support[:, None, :] & support[None, :, :]
    differ = (ham.x[:, None, :] != ham.x[None, :, :]) | (ham.z[:, None, :] != ham.z[None, :, :])
    return np.any(both & differ, axis=2)


def conflict(ham: Ham, mode: str) -> np.ndarray:
    return conflict_fc(ham) if mode == "fc" else conflict_qwc(ham)


def m_est(coeffs: np.ndarray, assignment, epsilon: float = EPSILON) -> float:
    """(sum over groups of sqrt(sum of c^2 in the group))^2 / epsilon^2."""
    assignment = np.asarray(assignment)
    total = 0.0
    for color in np.unique(assignment):
        total += math.sqrt(float(np.sum(coeffs[assignment == color] ** 2)))
    return total**2 / epsilon**2


def full_m_est(coeffs: np.ndarray, epsilon: float = EPSILON) -> float:
    """One group per term: (sum |c|)^2 / epsilon^2."""
    return float(np.sum(np.abs(coeffs))) ** 2 / epsilon**2


def min_m_est_bruteforce(coeffs: np.ndarray, adj: np.ndarray, max_colors: int,
                         epsilon: float = EPSILON) -> float:
    """Lowest m_est over every proper coloring with colors 1..max_colors."""
    n = adj.shape[0]
    colors = range(1, max_colors + 1)
    tail = np.array(list(itertools.product(colors, repeat=min(n, 10))))
    best = math.inf
    for head in itertools.product(colors, repeat=n - tail.shape[1]):
        rows = np.hstack([np.tile(np.array(head, dtype=tail.dtype), (len(tail), 1)), tail])
        same = rows[:, :, None] == rows[:, None, :]
        proper = ~np.any(same & adj[None, :, :], axis=(1, 2))
        sums = np.zeros(len(rows))
        for color in colors:
            sums += np.sqrt(((rows == color) * coeffs**2).sum(axis=1))
        if proper.any():
            best = min(best, float((sums[proper] ** 2).min()))
    return best / epsilon**2


def chromatic_number(adj: np.ndarray) -> int:
    """Smallest k with a proper k-coloring, by exhaustive backtracking."""
    n = adj.shape[0]
    colors = [0] * n

    def extend(v: int, k: int) -> bool:
        if v == n:
            return True
        for c in range(1, k + 1):
            if all(colors[u] != c for u in range(v) if adj[v, u]):
                colors[v] = c
                if extend(v + 1, k):
                    return True
        colors[v] = 0
        return False

    return next(k for k in range(1, n + 1) if extend(0, k))


def coloring_errors(adj: np.ndarray, assignment, cap: int | None = None) -> list[str]:
    """Complete, proper, and within `cap` colors (when a cap is given)."""
    a = np.asarray(assignment)
    if a.shape != (adj.shape[0],):
        return [f"coloring has {a.shape} entries for {adj.shape[0]} terms"]
    errors = []
    if np.any(a < 1):
        errors.append("coloring leaves terms uncolored")
    clashes = np.argwhere(np.triu(adj & (a[:, None] == a[None, :])))
    if len(clashes):
        i, j = clashes[0]
        errors.append(f"improper: conflicting terms {i} and {j} share color {a[i]}")
    if cap is not None and a.max(initial=0) > cap:
        errors.append(f"uses color {a.max()} above the cap {cap}")
    return errors


def close_errors(label: str, reported: float, expected: float, rel: float = REL_TOL) -> list[str]:
    if not math.isclose(reported, expected, rel_tol=rel, abs_tol=0.0):
        return [f"{label}: reported {reported!r}, expected {expected!r}"]
    return []


def grouping_errors(ham: Ham, adj: np.ndarray, assignment, reported_m_est: float,
                    reported_colors: int | None = None, cap: int | None = None,
                    epsilon: float = EPSILON) -> list[str]:
    """A colouring plus the m_est (and colour count) the program reported for it."""
    errors = coloring_errors(adj, assignment, cap)
    if errors:
        return errors
    errors += close_errors("m_est", reported_m_est, m_est(ham.coeffs, assignment, epsilon))
    if reported_colors is not None and reported_colors != int(np.max(assignment)):
        errors.append(f"reports {reported_colors} colors, coloring uses {int(np.max(assignment))}")
    return errors


def compare_report_errors(report: dict, ham: Ham, mode: str, methods: list[str],
                          chromatic: int | None = None, epsilon: float = EPSILON) -> list[str]:
    """Every requested method, in order, with its coloring and m_est, in one
    `pauliflow compare` report."""
    adj = conflict(ham, mode)
    errors = []
    if report.get("n_p") != ham.n_terms:
        errors.append(f"n_p {report.get('n_p')} != {ham.n_terms} terms")
    reported = [rec.get("method") for rec in report.get("methods", [])]
    if reported != list(methods):
        errors.append(f"reports methods {reported}, asked for {list(methods)}")
    for rec in report.get("methods", []):
        method = rec["method"]
        found = grouping_errors(ham, adj, rec["coloring"], rec["m_est"], rec["color_count"],
                                epsilon=epsilon)
        if method == "full":
            found += close_errors("full m_est", rec["m_est"], full_m_est(ham.coeffs, epsilon))
        if method == "exact" and chromatic is not None and rec["color_count"] != chromatic:
            found.append(f"exact uses {rec['color_count']} colors, chromatic number is {chromatic}")
        errors += [f"{mode} {method}: {e}" for e in found]
    return errors
