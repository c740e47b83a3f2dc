"""Labeled simple undirected graphs and flow-based connectivity oracles.

The :class:`Graph` type is the universal carrier for inputs, deletions and
oracle checks.  Labels are stable non-negative integers: deleting vertex 1
from ``{0, 1, 2}`` leaves ``{0, 2}``, so embeddings can keep referring to the
original labels after surgery.  All objects are immutable and all operations
are pure functions.  A graph has one representation, the map from each label
to the frozenset of its neighbours; ``edges`` is derived on each access, so
hoist it out of loops.  Only the public constructor validates: surgery builds
its result from adjacency without a re-check.

Connectivity here is computed by maximum flow (Menger), deliberately
independent of the closed forms in :mod:`cographs.analysis`; it is the
ground-truth side of every dual-route check in the test suite.  One routine,
:func:`maximum_flow`, counts unit-capacity BFS augmenting paths over split
vertices ``2v -> 2v+1`` or plain arcs.  kappa runs it from a vertex of
minimum degree and between its nonadjacent neighbours (Esfahanian &
Hakimi), lambda from one member of a dominating set to the others (Matula).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    EdgeListSyntaxError,
    EmptySetError,
    TooLargeError,
    UnknownEdgeError,
    UnknownVertexError,
    WouldBeEmptyError,
)

# The most vertices (an edge-list header, the leaves of an expression) and
# edges (of a cotree to materialize) an input may ask for; larger inputs get
# TooLargeError before anything of their size is built.
_MAX_ORDER = 200_000
_MAX_EDGES = 1_000_000

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


class Graph:
    """Immutable simple undirected graph on integer vertex labels, held as
    one adjacency map; ``edges`` is derived on each access, so hoist it out
    of loops."""

    __slots__ = ("_vertices", "_adj")

    def __init__(self, vertices, edges):
        adj: dict[int, set[int]] = {v: set() for v in sorted({int(v) for v in vertices})}
        if not adj:
            raise EmptySetError("a graph needs at least one vertex")
        if any(v < 0 for v in adj):
            raise UnknownVertexError("vertex labels must be non-negative")
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise UnknownEdgeError(f"self-loop on vertex {u}")
            if u not in adj or v not in adj:
                raise UnknownVertexError(f"edge ({u}, {v}) uses an unknown vertex")
            adj[u].add(v)
            adj[v].add(u)
        self._vertices: tuple[int, ...] = tuple(adj)
        self._adj: dict[int, frozenset[int]] = {v: frozenset(a) for v, a in adj.items()}

    @classmethod
    def _of(cls, adj: dict[int, frozenset[int]]) -> "Graph":
        """Unchecked: ``adj`` is nonempty, symmetric, loop-free, keys ascending."""
        G = object.__new__(cls)
        G._vertices, G._adj = tuple(adj), adj
        return G

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
        """Every edge as ``(u, v)`` with ``u < v``, derived on each access."""
        return frozenset((u, v) for u, a in self._adj.items() for v in a if u < v)

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
        return self.min_degree() == self.n - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._vertices, tuple(self._adj.values())))

    def __repr__(self) -> str:
        m = sum(map(len, self._adj.values())) // 2
        return f"Graph(n={self.n}, m={m})"

    # -- traversal ---------------------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted label tuples, smallest label first."""
        return [tuple(sorted(p)) for p in _parts(self, self._vertices, False)]

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self._vertices if not self._adj[v])


def _parts(G: Graph, S, complement: bool) -> list[set[int]]:
    """Components of G[S] (of its complement when ``complement``).

    Parts come in order of their smallest label; no subgraph is built.
    """
    unvisited = set(S)
    out = []
    for start in sorted(S):
        if start not in unvisited:
            continue
        unvisited.discard(start)
        part = {start}
        frontier = [start]
        while frontier:
            near = G.neighbors(frontier.pop())
            grabbed = unvisited - near if complement else unvisited & near
            unvisited -= grabbed
            part |= grabbed
            frontier.extend(grabbed)
        out.append(part)
    return out


# -- vertex/edge surgery -----------------------------------------------------

def induced_subgraph(G: Graph, S) -> Graph:
    """Subgraph induced by ``S``: same labels, edges with both ends in ``S``."""
    S = set(S)
    if not S:
        raise EmptySetError("induced subgraph of the empty set")
    for v in S:
        if not G.has_vertex(v):
            raise UnknownVertexError(f"vertex {v} not in graph")
    drop = G._adj.keys() - S  # G's own labels, whatever S holds
    return Graph._of({v: a - drop for v, a in G._adj.items() if v not in drop})


def delete_vertices(G: Graph, S) -> Graph:
    """``G - S``; labels of the survivors are unchanged."""
    S = set(S)
    for v in S:
        if not G.has_vertex(v):
            raise UnknownVertexError(f"vertex {v} not in graph")
    if len(S) == G.n:
        raise WouldBeEmptyError("cannot delete every vertex")
    return Graph._of({v: a - S for v, a in G._adj.items() if v not in S})


def delete_edges(G: Graph, F) -> Graph:
    """``G - F``; all vertices are kept."""
    adj = dict(G._adj)
    for u, v in F:
        if not G.has_edge(u, v):
            raise UnknownEdgeError(f"edge {(min(u, v), max(u, v))} not in graph")
        adj[u], adj[v] = adj[u] - {v}, adj[v] - {u}
    return Graph._of(adj)


# -- flow machinery -----------------------------------------------------------

def maximum_flow(G: Graph, s: int, t: int, split: bool, limit: int) -> int:
    """Number of unit-capacity s-t paths, up to ``limit``: internally
    vertex-disjoint with ``split`` (vertex v is the arc ``2v -> 2v+1``, edge
    uv the arcs ``2u+1 -> 2v`` and ``2v+1 -> 2u``), edge-disjoint without.
    The direct edge counts as one path.  The flow starts from it and the
    paths through ``N(s) & N(t)``, then grows along BFS augmenting paths.
    """
    adj = G._adj
    source, sink = (2 * s + 1, 2 * t) if split else (s, t)
    paths = [(source, sink)] if t in adj[s] else []
    paths += [(source, 2 * w, 2 * w + 1, sink) if split else (s, w, t)
              for w in adj[s] & adj[t]]
    flow = {arc for path in paths[:limit] for arc in zip(path, path[1:])}
    value = min(limit, len(paths))

    def residual(x: int) -> list[int]:  # heads of arcs with capacity left
        if not split:
            return [y for y in adj[x] if (x, y) not in flow]
        if x & 1:  # out-node of v: on to neighbours, or back into v if used
            out = [2 * w for w in adj[x >> 1] if (x, 2 * w) not in flow]
            return out + [x - 1] if (x - 1, x) in flow else out
        if (x, x + 1) not in flow:  # in-node of an unused vertex
            return [x + 1]
        return [2 * u + 1 for u in adj[x >> 1] if (2 * u + 1, x) in flow]

    while value < limit:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            x = queue.popleft()
            for y in residual(x):
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            break
        y = sink
        while y != source:
            x = parent[y]
            if (y, x) in flow:
                flow.remove((y, x))
            else:
                flow.add((x, y))
            y = x
        value += 1
    return value


def internally_disjoint_paths(G: Graph, u: int, v: int) -> int:
    """Maximum number of pairwise internally vertex-disjoint u-v paths."""
    if u == v:
        raise UnknownVertexError("endpoints must be distinct")
    if not (G.has_vertex(u) and G.has_vertex(v)):
        raise UnknownVertexError(f"unknown endpoint in ({u}, {v})")
    return maximum_flow(G, u, v, True, min(G.degree(u), G.degree(v)))


def vertex_connectivity_flow(G: Graph) -> int:
    """kappa(G) by max flow around the first vertex v of minimum degree:
    from v to each non-neighbour, and between each nonadjacent pair in N(v).

    Returns 0 for the trivial graph and for disconnected graphs; complete
    graphs report ``n - 1`` by convention (no nonadjacent pair exists).

    Let S be a minimum separator.  If v is outside S, some component of
    G - S misses v, and any of its vertices is a non-neighbour of v that S
    cuts off.  If v is in S, then S - v separates nothing, so v has
    neighbours x and y in two components of G - S: a nonadjacent pair in
    N(v) that S cuts apart.  Each local value is at least kappa, so the
    least one is kappa (Esfahanian & Hakimi 1984).  Each flow is counted up
    to the smallest value found so far, which starts at delta = deg(v).
    """
    if G.is_complete():
        return G.n - 1
    adj = G._adj
    best = G.min_degree()
    v = next(u for u in G.vertices if len(adj[u]) == best)
    pairs = [(v, w) for w in G.vertices if w != v and w not in adj[v]]
    pairs += [(x, y) for x, y in combinations(sorted(adj[v]), 2)
              if y not in adj[x]]
    for x, y in pairs:
        best = maximum_flow(G, x, y, True, best)
    return best


def edge_connectivity_flow(G: Graph) -> int:
    """lambda(G) by max flow from d_1 to each other member of a dominating
    set D, each flow counted up to delta or the smallest value found so
    far; 0 for the trivial graph (delta is 0) and for disconnected graphs.

    D is greedy: each vertex, smallest label first, that no member so far
    dominates joins it.  Suppose lambda < delta and X is one side of a
    minimum cut, |X| = k.  Its degrees sum to at least k delta, and at most
    k (k - 1) of that stays inside X, so k delta < k (k - 1) + delta: k is
    not 1, and k > delta > lambda.  Cut edges touch fewer than k vertices
    of X, so some x in X has none: N[x] lies in X, and the member of D
    that dominates x is in X.  So D meets both sides, and some flow from
    d_1 is at most lambda (Matula 1987); otherwise lambda is delta, the cap.
    """
    adj = G._adj
    best = G.min_degree()
    dominated: set[int] = set()
    D = []
    for v in G.vertices:
        if v not in dominated:
            D.append(v)
            dominated |= adj[v]
            dominated.add(v)
    for d in D[1:]:
        best = maximum_flow(G, D[0], d, False, best)
    return best


def _at_least(k: int, n: int, value) -> bool:
    """Whether a graph of order ``n`` is k-connected (k-edge-connected), given
    ``value()``, its kappa (lambda), called only when needed.  The one home
    of the K1 convention: K1 is 1-connected, though its value is 0."""
    return k <= 0 or (k <= 1 if n == 1 else value() >= k)


def is_k_connected(G: Graph, k: int) -> bool:
    """k-connectivity by flow; K1 as :func:`_at_least` says."""
    return _at_least(k, G.n, lambda: vertex_connectivity_flow(G))


def is_k_edge_connected(G: Graph, k: int) -> bool:
    """k-edge-connectivity by flow; K1 as :func:`_at_least` says."""
    return _at_least(k, G.n, lambda: edge_connectivity_flow(G))


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
            if n > _MAX_ORDER:
                raise TooLargeError(f"vertex count {n} exceeds the limit {_MAX_ORDER}")
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
        return cls(tree=tree, order=m, bipartition=(v1, v2),
                   max_degree=tree.max_degree(), beta=len(v2))

    @property
    def m(self) -> int:
        return self.order

    def root(self) -> int:
        """Smallest-label vertex of degree at most 1 (fixed greedy root)."""
        return min(v for v in self.tree.vertices if self.tree.degree(v) <= 1)

    def __repr__(self) -> str:
        return (f"TreeShape(m={self.order}, Delta={self.max_degree}, "
                f"beta={self.beta})")
