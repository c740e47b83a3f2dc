"""Independent brute-force ground truth for desk-scale verification.

Nothing in this module consults the closed-form classifiers: each value of
the independent route (flow, cut enumeration, disjoint paths) is written
once, in :class:`_flow_values`, and residuals are judged on those values by
:meth:`~cographs.embedding.Preserved.holds`, the rule every route shares,
so an agreement between a constructive routine and an exhaustive search
here is genuine evidence.  Size caps are ``cap`` parameters with
conservative defaults and raise hard errors instead of silently truncating.

Subtree copies come from :func:`cographs.embedding._placements`, the one
placement search, which the constructions in :mod:`cographs.embed` also use;
the tests check that search against a brute force over vertex sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .embedding import DeleteMode, Embedding, Preserved, _placements
from .errors import DisconnectedError, TooLargeError
from .graph import (
    Graph,
    TreeShape,
    edge_connectivity_flow,
    internally_disjoint_paths,
    vertex_connectivity_flow,
)

__all__ = [
    "CutRecord",
    "ProvenNone",
    "enumerate_subtree_embeddings",
    "exhaustive_keeping_search",
    "has_induced_2k2",
    "min_edge_cuts",
    "residual_satisfies",
    "DEFAULT_EMBED_CAP",
    "DEFAULT_CUT_CAP",
]

DEFAULT_EMBED_CAP = 14
DEFAULT_CUT_CAP = 16


@dataclass(frozen=True)
class CutRecord:
    """One minimum edge cut given as a vertex bipartition side."""

    side: tuple[int, ...]
    size: int
    isolates: int | None

    def to_dict(self) -> dict:
        return {"side": list(self.side), "size": self.size,
                "isolates": self.isolates}


@dataclass(frozen=True)
class ProvenNone:
    """Exhaustion certificate: no embedding satisfied the property."""

    examined: int

    def __bool__(self) -> bool:
        return False


def enumerate_subtree_embeddings(G: Graph, T: TreeShape,
                                 cap: int = DEFAULT_EMBED_CAP) -> Iterator[Embedding]:
    """Every copy of T in G exactly once (distinct vertex+edge image sets).

    Walks every placement of :func:`cographs.embedding._placements`, the
    search the constructions also use, and keeps the first placement of
    each image, so embeddings that differ only by an automorphism of T are
    collapsed to one representative; the stream order is deterministic.
    """
    if G.n > cap:
        raise TooLargeError(f"graph order {G.n} exceeds the cap {cap}")
    if T.order > G.n:
        return
    seen: set[tuple[frozenset[int], frozenset[tuple[int, int]]]] = set()
    for mapping in _placements(G, T, G.vertices):
        emb = Embedding.from_mapping(T, mapping)
        key = (emb.image, frozenset(emb.graph_edges()))
        if key not in seen:
            seen.add(key)
            yield emb


def has_induced_2k2(G: Graph) -> bool:
    """Two disjoint edges with no edge between them, by scanning edge pairs.

    O(|E|^2); the independent check of
    :func:`cographs.analysis.is_ideally_connected`, which reads the answer
    off the cotree.
    """
    edges = sorted(G.edges)
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            if c in (a, b) or d in (a, b):
                continue
            if not (G.has_edge(a, c) or G.has_edge(a, d)
                    or G.has_edge(b, c) or G.has_edge(b, d)):
                return True
    return False


def residual_satisfies(G: Graph, residual: Graph, prop: Preserved) -> bool:
    """``prop.holds`` on the flow values of ``residual``; ``G`` is unread."""
    return prop.holds(_flow_values(residual).__getitem__)


def _super_edge_connected(G: Graph, value: dict) -> bool:
    """Every minimum edge cut isolates a vertex; a disconnected G is super
    when exactly one vertex is isolated."""
    try:
        return all(c.isolates is not None for c in value["min_edge_cuts"])
    except DisconnectedError:
        return len(G.isolated_vertices()) == 1


class _flow_values(dict):
    """Each value of G by its rule, computed on first lookup and kept for this
    G only; the rules get this dict as an argument, so it holds no cycle."""

    RULES = {
        "n": lambda G, value: G.n,
        "delta": lambda G, value: G.min_degree(),
        "kappa": lambda G, value: vertex_connectivity_flow(G),
        "lambda": lambda G, value: edge_connectivity_flow(G),
        "maximally_connected": lambda G, value: value["kappa"] == value["delta"],
        "min_edge_cuts": lambda G, value: min_edge_cuts(G, cap=G.n),
        "super_edge_connected": _super_edge_connected,
        "ideally_connected": lambda G, value: all(
            internally_disjoint_paths(G, u, v) >= min(G.degree(u), G.degree(v))
            for i, u in enumerate(G.vertices) for v in G.vertices[i + 1:]),
    }

    def __init__(self, G: Graph):
        self.G = G

    def __missing__(self, key: str):
        value = self[key] = self.RULES[key](self.G, self)
        return value


def exhaustive_keeping_search(G: Graph, T: TreeShape, prop: Preserved,
                              mode: DeleteMode = DeleteMode.VERTEX,
                              cap: int = DEFAULT_EMBED_CAP) -> Embedding | ProvenNone:
    """First copy of T whose deletion leaves the property intact, if any.

    The return value is either an embedding tagged with the property or a
    :class:`ProvenNone` recording how many candidates were ruled out; the
    latter certifies a tightness claim at desk scale.
    """
    examined = 0
    for emb in enumerate_subtree_embeddings(G, T, cap=cap):
        examined += 1
        if mode is DeleteMode.VERTEX and len(emb.image) == G.n:
            continue
        emb = replace(emb, mode=mode, preserved=prop)
        if residual_satisfies(G, emb.residual(G), prop):
            return emb
    return ProvenNone(examined=examined)


def min_edge_cuts(G: Graph, cap: int = DEFAULT_CUT_CAP) -> list[CutRecord]:
    """All minimum edge cuts of a connected graph, as bipartition sides.

    Sides are restricted to at most half the vertices; for an even split only
    the side containing the smallest vertex is reported, so each cut appears
    once.  ``isolates`` is set when the cut is exactly some vertex's star.

    Sides are tried by size, then in lexicographic order, but skipped once a
    count proves their cut larger than ``best``, the smallest cut so far,
    which starts at delta (a vertex star is a cut).  A vertex keeps at most
    ``s - 1`` of its edges inside a side of ``s`` vertices, so a size is
    skipped when the ``s`` smallest ``max(0, deg v - s + 1)`` exceed ``best``
    in sum.  A side grown in index order has the vertices below its last one
    decided out: each chosen ``v`` cuts its edges to them, and at least
    ``e(v, undecided) - r`` more while ``r`` vertices are still to choose.
    A minimum cut never exceeds ``best``, so no skipped side is a minimum,
    and the records equal those of the full enumeration, order included.

    ``isolates`` is the side's vertex when the side has one, else ``None``:
    a cut is the star of v only when v is alone on its side, since another u
    on v's side would reach v only through an edge of v that does not cross.
    The complement is a single vertex only when n <= 2, and there the side is
    already ``(v0,)``.
    """
    n = G.n
    if n > cap:
        raise TooLargeError(f"graph order {n} exceeds the cap {cap}")
    if not G.is_connected():
        raise DisconnectedError("minimum edge cuts need a connected graph")
    if n == 1:
        return []
    verts = G.vertices
    index = {v: i for i, v in enumerate(verts)}
    adj_bits = [sum(1 << index[w] for w in G.neighbors(v)) for v in verts]
    deg = [bits.bit_count() for bits in adj_bits]
    best = min(deg)
    sides: list[tuple[int, ...]] = []

    def grow(combo: tuple[int, ...], mask: int, size: int) -> None:
        nonlocal best, sides
        left = size - len(combo) - 1  # still to choose after the next vertex
        first = combo[-1] + 1 if combo else 0
        # even split: only sides that hold vertex 0
        stop = 1 if 2 * size == n and not combo else n - left
        for i in range(first, stop):
            side, chosen, decided = (*combo, i), mask | 1 << i, (2 << i) - 1
            bound = 0
            for v in side:
                bits = adj_bits[v]
                bound += (bits & decided & ~chosen).bit_count() + max(
                    0, (bits & ~decided).bit_count() - left)
            if bound > best:
                continue
            if left:
                grow(side, chosen, size)
            elif bound < best:
                best, sides = bound, [side]
            else:
                sides.append(side)

    for size in range(1, n // 2 + 1):
        if sum(sorted(max(0, d - size + 1) for d in deg)[:size]) <= best:
            grow((), 0, size)

    return [CutRecord(side=tuple(verts[i] for i in combo), size=best,
                      isolates=verts[combo[0]] if len(combo) == 1 else None)
            for combo in sides]
