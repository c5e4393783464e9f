"""Conflict graphs for Hamiltonian terms, colorings, and clique-cover groupings.

The conflict graph is the complement of the commutativity graph: vertices are
Hamiltonian terms and an edge joins two terms that are NOT compatible under
the chosen mode (fc or qwc). A proper coloring of the conflict graph is
therefore a partition of the terms into mutually compatible groups, and the
minimum color count equals the minimum clique cover of the commutativity
graph.

The graph is built with one boolean (n, n) pass per qubit, not one predicate
call per term pair. Greedy colorings hold vertex sets as Python-int bitsets:
each vertex takes the first color whose set of adjacent vertices lacks it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench's tracer counts calls through these names (pauli.commute_calls), so they stay bound
from .pauli import QubitHamiltonian, commutes_fc, commutes_qwc  # noqa: F401

MODES = ("fc", "qwc")
UNCOLORED = 0

STRATEGIES = ("largest_first", "dsatur", "random_sequential")


class EmptyInputError(ValueError):
    pass


class IncompleteColoringError(ValueError):
    pass


class InvalidColoringError(ValueError):
    pass


class GraphSizeError(ValueError):
    pass


@dataclass(frozen=True)
class CompatGraph:
    """Symmetric, irreflexive conflict relation over term indices."""

    mode: str
    adjacency: np.ndarray  # (n, n) bool

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if np.any(np.diag(adj)):
            raise ValueError("adjacency must be irreflexive")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def n_vertices(self) -> int:
        return self.adjacency.shape[0]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def neighbors(self, v: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[v])


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color assignment; colors run 1..max_color, 0 means uncolored."""

    assignment: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("assignment must be a vector")
        if np.any(a < 0):
            raise ValueError("colors must be >= 1 (0 marks uncolored)")
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)

    @property
    def n_vertices(self) -> int:
        return self.assignment.shape[0]

    @property
    def max_color(self) -> int:
        return int(self.assignment.max(initial=0))

    def is_complete(self) -> bool:
        return bool(np.all(self.assignment != UNCOLORED))


def build_complement_graph(h: QubitHamiltonian, mode: str) -> CompatGraph:
    """Conflict graph of h's terms: edge(i, j) iff terms i, j are incompatible:
    for FC, iff their letters anticommute (both non-identity and different) on
    an odd number of qubits; for QWC, on any qubit."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if h.n_terms == 0:
        raise EmptyInputError("Hamiltonian has no groupable terms")
    words = h.words()
    x = np.array([w.x_bits for w in words])
    z = np.array([w.z_bits for w in words])
    n = len(words)
    adj = np.zeros((n, n), dtype=bool)
    anti = np.empty((n, n), dtype=bool)
    accumulate = np.logical_xor if mode == "fc" else np.logical_or
    for xq, zq in zip(x.T, z.T):
        act = xq | zq
        np.logical_xor(xq[:, None], xq, out=anti)
        anti |= zq[:, None] ^ zq
        anti &= act[:, None] & act
        accumulate(adj, anti, out=adj)
    return CompatGraph(mode=mode, adjacency=adj)


def greedy_color(g: CompatGraph, strategy: str, seed: int = 0) -> Coloring:
    """Sequential greedy coloring; deterministic given (strategy, seed).

    largest_first orders vertices by descending degree (ties by index); dsatur
    repeatedly picks the uncolored vertex with the most distinct neighbor
    colors (ties by degree, then index); random_sequential permutes vertices
    with a seeded PCG64 generator. Each vertex then takes the smallest color
    whose set of adjacent vertices lacks it. Vertex sets are Python-int
    bitsets (bit u holds vertex u): each vertex's neighbors, and for each
    color the vertices adjacent to it.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    n = g.n_vertices
    rows = np.packbits(g.adjacency, axis=1, bitorder="little")
    neighbors = [int.from_bytes(row.tobytes(), "little") for row in rows]
    if strategy == "random_sequential":
        order = np.random.Generator(np.random.PCG64(seed)).permutation(n).tolist()
    else:  # dsatur adds saturation * n^2 to the key, (saturation, degree, -index), and picks by it
        key = _degree_key(g)
        order = key.argsort()[::-1].tolist()
    assignment = np.zeros(n, dtype=np.int64)
    adjacent: list[int] = []  # adjacent[c]: the vertices with a neighbor of color c + 1
    uncolored = (1 << n) - 1
    for v in order:
        if strategy == "dsatur":
            v = int(key.argmax())  # colored vertices have key -1
            key[v] = -1
        bit = 1 << v
        uncolored ^= bit
        for c, near in enumerate(adjacent):
            if not near & bit:
                break
        else:  # every color so far is adjacent to v: open the next
            c = len(adjacent)
            adjacent.append(0)
        assignment[v] = c + 1
        fresh = neighbors[v] & uncolored & ~adjacent[c] if strategy == "dsatur" else 0
        if fresh:  # uncolored neighbors of v that gain color c + 1 as a neighbor color
            fresh_bytes = np.frombuffer(fresh.to_bytes(rows.shape[1], "little"), np.uint8)
            key[np.unpackbits(fresh_bytes, count=n, bitorder="little").view(bool)] += n * n
        adjacent[c] |= neighbors[v]
    return Coloring(assignment)


def _degree_key(g: CompatGraph) -> np.ndarray:
    """degree * n + n-1-index: distinct, larger for a higher degree, then a lower index."""
    n = g.n_vertices
    return g.degrees() * n + np.arange(n - 1, -1, -1)


def validate_coloring(g: CompatGraph, coloring: Coloring) -> bool:
    """True iff no edge joins two equal-colored vertices."""
    a = coloring.assignment
    if a.shape[0] != g.n_vertices:
        raise InvalidColoringError(
            f"coloring covers {a.shape[0]} vertices, graph has {g.n_vertices}"
        )
    if not coloring.is_complete():
        raise IncompleteColoringError("coloring has uncolored vertices")
    same = a[:, None] == a[None, :]
    return not bool(np.any(same & g.adjacency))


def exact_min_colors(g: CompatGraph, vertex_limit: int = 20) -> Coloring:
    """Provably minimal proper coloring via DSATUR-ordered branch and bound."""
    n = g.n_vertices
    if n > vertex_limit:
        raise GraphSizeError(f"{n} vertices exceeds the exact-search limit {vertex_limit}")
    best = greedy_color(g, "dsatur")
    best_count = best.max_color
    lower = _greedy_clique_size(g)
    if best_count == lower:
        return best

    adjacency = g.adjacency
    tiebreak = _degree_key(g)
    colors = np.arange(1, n + 1)
    assignment = np.zeros(n, dtype=np.int64)
    best_assignment = best.assignment.copy()

    def search(colored: int, used: int):
        nonlocal best_count, best_assignment
        if used >= best_count:
            return
        if colored == n:
            best_count = used
            best_assignment = assignment.copy()
            return
        # most saturated uncolored vertex next (ties: degree, then index);
        # blocked[v, c - 1]: a neighbor of v has color c, for c up to used + 1
        blocked = adjacency @ (assignment[:, None] == colors[: used + 1])
        key = blocked.sum(axis=1) * n * n + tiebreak
        key[assignment != UNCOLORED] = -1
        v = int(np.argmax(key))
        for c in range(1, min(used + 1, best_count - 1) + 1):
            if blocked[v, c - 1]:
                continue
            assignment[v] = c
            search(colored + 1, max(used, c))
            assignment[v] = UNCOLORED

    search(0, 0)
    return Coloring(best_assignment)


def _greedy_clique_size(g: CompatGraph) -> int:
    """Greedy max-clique lower bound for the chromatic number."""
    keys = _degree_key(g).tolist()
    common = np.ones(g.n_vertices, dtype=bool)  # adjacent to every clique member so far
    size = 0
    # by descending degree; Python's sort pages in less of numpy's code than np.argsort
    for v in sorted(range(g.n_vertices), key=keys.__getitem__, reverse=True):
        if common[v]:
            size += 1
            common &= g.adjacency[v]
    return size


def coloring_to_grouping(g: CompatGraph, coloring: Coloring) -> tuple[tuple[int, ...], ...]:
    """The term indices of each group to measure, in ascending color order;
    requires a complete, proper coloring."""
    if not validate_coloring(g, coloring):
        raise InvalidColoringError("coloring is not proper for this graph")
    a = coloring.assignment
    colors = sorted(set(a.tolist()))  # the colors used, however large
    return tuple(tuple(int(v) for v in np.flatnonzero(a == c)) for c in colors)


# distinct fill colors for DOT output, reused cyclically past 12 groups
_DOT_PALETTE = (
    "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3", "#a6d854", "#ffd92f",
    "#e5c494", "#b3b3b3", "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
)


def coloring_to_dot(
    h: QubitHamiltonian,
    g: CompatGraph,
    coloring: Coloring,
    label: str | None = None,
) -> str:
    """Render the colored conflict graph in DOT format.

    Vertices are labeled with the Pauli text of the corresponding term and
    filled with a per-group color; an optional label annotates the graph.
    """
    if not validate_coloring(g, coloring):
        raise InvalidColoringError("coloring is not proper for this graph")
    if h.n_terms != g.n_vertices:
        raise InvalidColoringError("Hamiltonian and graph disagree on term count")
    words = h.words()
    lines = ["graph grouping {", "  node [style=filled];"]
    if label:
        lines.append(f'  label="{label}";')
    for v in range(g.n_vertices):
        color = int(coloring.assignment[v])
        fill = _DOT_PALETTE[(color - 1) % len(_DOT_PALETTE)]
        lines.append(f'  v{v} [label="{words[v].to_dense()}" fillcolor="{fill}" group={color}];')
    for i, j in np.argwhere(np.triu(g.adjacency)):
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
