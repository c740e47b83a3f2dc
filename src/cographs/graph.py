"""Labeled simple undirected graphs and flow-based connectivity oracles.

The :class:`Graph` type is the universal carrier for inputs, deletions and
oracle checks.  Labels are stable non-negative integers: deleting vertex 1
from ``{0, 1, 2}`` leaves ``{0, 2}``, so embeddings can keep referring to the
original labels after surgery.  All objects are immutable and all operations
are pure functions.

Connectivity here is computed by maximum flow (Menger), deliberately
independent of the closed forms in :mod:`cographs.analysis`; it is the
ground-truth side of every dual-route check in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .errors import (
    EdgeListSyntaxError,
    EmptySetError,
    UnknownEdgeError,
    UnknownVertexError,
    WouldBeEmptyError,
)

__all__ = [
    "Graph",
    "TreeShape",
    "induced_subgraph",
    "delete_vertices",
    "delete_edges",
    "vertex_connectivity_flow",
    "edge_connectivity_flow",
    "internally_disjoint_paths",
    "is_k_connected",
    "is_k_edge_connected",
    "read_edge_list",
    "format_edge_list",
]


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph on integer vertex labels."""

    __slots__ = ("_vertices", "_adj", "_edges")

    def __init__(self, vertices, edges):
        vs = sorted(set(int(v) for v in vertices))
        if not vs:
            raise EmptySetError("a graph needs at least one vertex")
        if any(v < 0 for v in vs):
            raise UnknownVertexError("vertex labels must be non-negative")
        vset = set(vs)
        adj: dict[int, set[int]] = {v: set() for v in vs}
        eset: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise UnknownEdgeError(f"self-loop on vertex {u}")
            if u not in vset or v not in vset:
                raise UnknownVertexError(f"edge ({u}, {v}) uses an unknown vertex")
            eset.add(_normalize_edge(u, v))
            adj[u].add(v)
            adj[v].add(u)
        self._vertices: tuple[int, ...] = tuple(vs)
        self._adj: dict[int, frozenset[int]] = {v: frozenset(a) for v, a in adj.items()}
        self._edges: frozenset[tuple[int, int]] = frozenset(eset)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Graph on dense labels ``0..n-1`` with the given edges."""
        return cls(range(n), edges)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(range(n), combinations(range(n), 2))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls(range(n), [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(range(n), [(i, i + 1) for i in range(n - 1)])

    # -- basic accessors --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertexError(f"vertex {v} not in graph") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def min_degree(self) -> int:
        return min(len(a) for a in self._adj.values())

    def max_degree(self) -> int:
        return max(len(a) for a in self._adj.values())

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def is_complete(self) -> bool:
        n = self.n
        return len(self._edges) == n * (n - 1) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self._edges)})"

    # -- traversal ---------------------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted label tuples, smallest label first."""
        seen: set[int] = set()
        out = []
        for start in self._vertices:
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w in self._adj[v]:
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            out.append(tuple(sorted(comp)))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self._vertices if not self._adj[v])


# -- vertex/edge surgery -----------------------------------------------------

def induced_subgraph(G: Graph, S) -> Graph:
    """Subgraph induced by ``S``: same labels, edges with both ends in ``S``."""
    S = set(S)
    if not S:
        raise EmptySetError("induced subgraph of the empty set")
    for v in S:
        if not G.has_vertex(v):
            raise UnknownVertexError(f"vertex {v} not in graph")
    edges = [(u, v) for u, v in G.edges if u in S and v in S]
    return Graph(S, edges)


def delete_vertices(G: Graph, S) -> Graph:
    """``G - S``; labels of the survivors are unchanged."""
    S = set(S)
    for v in S:
        if not G.has_vertex(v):
            raise UnknownVertexError(f"vertex {v} not in graph")
    rest = set(G.vertices) - S
    if not rest:
        raise WouldBeEmptyError("cannot delete every vertex")
    return induced_subgraph(G, rest)


def delete_edges(G: Graph, F) -> Graph:
    """``G - F``; all vertices are kept."""
    drop = set()
    for u, v in F:
        e = _normalize_edge(u, v)
        if e not in G.edges:
            raise UnknownEdgeError(f"edge {e} not in graph")
        drop.add(e)
    return Graph(G.vertices, G.edges - drop)


# -- flow machinery -----------------------------------------------------------

def _split_network(G: Graph):
    """Unit-capacity split network: vertex v -> nodes (in=2i, out=2i+1).

    Every internal arc and every edge arc has capacity 1, so the max flow
    from ``out(u)`` to ``in(v)`` equals the number of internally disjoint
    u-v paths, the direct edge (if any) counting as one path.
    """
    index = {v: i for i, v in enumerate(G.vertices)}
    rows, cols, caps = [], [], []
    for v, i in index.items():
        rows.append(2 * i)
        cols.append(2 * i + 1)
        caps.append(1)
    for u, v in G.edges:
        iu, iv = index[u], index[v]
        rows += [2 * iu + 1, 2 * iv + 1]
        cols += [2 * iv, 2 * iu]
        caps += [1, 1]
    mat = csr_matrix(
        (np.asarray(caps, dtype=np.int32), (rows, cols)),
        shape=(2 * G.n, 2 * G.n),
    )
    return mat, index


def internally_disjoint_paths(G: Graph, u: int, v: int) -> int:
    """Maximum number of pairwise internally vertex-disjoint u-v paths."""
    if u == v:
        raise UnknownVertexError("endpoints must be distinct")
    if not (G.has_vertex(u) and G.has_vertex(v)):
        raise UnknownVertexError(f"unknown endpoint in ({u}, {v})")
    mat, index = _split_network(G)
    return int(maximum_flow(mat, 2 * index[u] + 1, 2 * index[v]).flow_value)


def vertex_connectivity_flow(G: Graph) -> int:
    """kappa(G) by max flow over all nonadjacent pairs.

    Returns 0 for the trivial graph and for disconnected graphs; complete
    graphs report ``n - 1`` by convention (no nonadjacent pair exists).
    """
    n = G.n
    if n == 1:
        return 0
    if not G.is_connected():
        return 0
    if G.is_complete():
        return n - 1
    mat, index = _split_network(G)
    best = n - 1
    for u, v in combinations(G.vertices, 2):
        if G.has_edge(u, v):
            continue
        flow = int(maximum_flow(mat, 2 * index[u] + 1, 2 * index[v]).flow_value)
        if flow < best:
            best = flow
            if best == 0:
                break
    return best


def edge_connectivity_flow(G: Graph) -> int:
    """lambda(G) by unit-capacity max flow from a fixed source."""
    n = G.n
    if n == 1:
        return 0
    if not G.is_connected():
        return 0
    index = {v: i for i, v in enumerate(G.vertices)}
    rows, cols, caps = [], [], []
    for u, v in G.edges:
        rows += [index[u], index[v]]
        cols += [index[v], index[u]]
        caps += [1, 1]
    mat = csr_matrix(
        (np.asarray(caps, dtype=np.int32), (rows, cols)), shape=(n, n)
    )
    source = G.vertices[0]
    best = G.min_degree()
    for v in G.vertices[1:]:
        flow = int(maximum_flow(mat, index[source], index[v]).flow_value)
        best = min(best, flow)
    return best


def is_k_connected(G: Graph, k: int) -> bool:
    """k-connectivity with the convention that K1 is 1-connected."""
    if k <= 0:
        return True
    if G.n == 1:
        return k <= 1
    return vertex_connectivity_flow(G) >= k


def is_k_edge_connected(G: Graph, k: int) -> bool:
    """k-edge-connectivity with the convention that K1 is 1-edge-connected."""
    if k <= 0:
        return True
    if G.n == 1:
        return k <= 1
    return edge_connectivity_flow(G) >= k


# -- edge-list text format -----------------------------------------------------

def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format: line 1 is ``n``, then one ``u v`` per line.

    ``#`` starts a comment; blank lines are skipped; labels are 0-indexed.
    """
    n = None
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            numbers = [int(p) for p in line.split()]
        except ValueError:
            raise EdgeListSyntaxError(f"not an integer in line: {raw!r}") from None
        if n is None:
            if len(numbers) != 1:
                raise EdgeListSyntaxError("first data line must be the vertex count")
            n = numbers[0]
            continue
        if len(numbers) != 2:
            raise EdgeListSyntaxError(f"bad edge line: {raw!r}")
        edges.append((numbers[0], numbers[1]))
    if n is None:
        raise EdgeListSyntaxError("empty edge-list input")
    return Graph.from_edges(n, edges)


def format_edge_list(G: Graph) -> str:
    """Inverse of :func:`read_edge_list` for graphs with dense labels."""
    lines = [str(G.n)]
    lines += [f"{u} {v}" for u, v in sorted(G.edges)]
    return "\n".join(lines) + "\n"


# -- tree shapes ----------------------------------------------------------------

@dataclass(frozen=True)
class TreeShape:
    """A target tree with its derived bipartition, max degree and beta.

    ``bipartition`` is ``(V1, V2)`` with ``|V1| >= |V2|``; every edge joins
    the two sides and ``beta = |V2|``.  For the one-vertex tree the second
    side is empty and ``beta = 0``.
    """

    tree: Graph
    order: int
    bipartition: tuple[tuple[int, ...], tuple[int, ...]]
    max_degree: int
    beta: int

    @classmethod
    def from_graph(cls, tree: Graph) -> "TreeShape":
        m = tree.n
        if len(tree.edges) != m - 1 or not tree.is_connected():
            raise ValueError("shape must be a tree: connected with m-1 edges")
        root = tree.vertices[0]
        color = {root: 0}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in tree.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
        side0 = tuple(sorted(v for v in tree.vertices if color[v] == 0))
        side1 = tuple(sorted(v for v in tree.vertices if color[v] == 1))
        # ties go to the side containing the smallest label
        v1, v2 = (side0, side1) if len(side0) >= len(side1) else (side1, side0)
        Delta = tree.max_degree() if m > 1 else 0
        return cls(tree=tree, order=m, bipartition=(v1, v2),
                   max_degree=Delta, beta=len(v2))

    @property
    def m(self) -> int:
        return self.order

    def root(self) -> int:
        """Smallest-label vertex of degree at most 1 (fixed greedy root)."""
        return min(v for v in self.tree.vertices if self.tree.degree(v) <= 1)

    def __repr__(self) -> str:
        return (f"TreeShape(m={self.order}, Delta={self.max_degree}, "
                f"beta={self.beta})")
