"""Independent brute-force ground truth for desk-scale verification.

Nothing in this module consults the closed-form classifiers: residual
properties are judged by the flow oracle and by explicit cut enumeration, so
an agreement between a constructive routine and an exhaustive search here is
genuine evidence.  Size caps are explicit parameters with conservative
defaults (overridable through the ``COGRAPH_ORACLE_CAP`` environment
variable) and raise hard errors instead of silently truncating.

Subtree copies come from :func:`cographs.embedding._placements`, the one
placement search, which the constructions in :mod:`cographs.embed` also use;
the tests check that search against a brute force over vertex sequences.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .embedding import DeleteMode, Embedding, Preserved, _placements
from .errors import DisconnectedError, TooLargeError
from .graph import (
    Graph,
    TreeShape,
    delete_edges,
    delete_vertices,
    is_k_connected,
    is_k_edge_connected,
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


def _resolve_cap(cap: int | None, default: int) -> int:
    if cap is not None:
        return cap
    env = os.environ.get("COGRAPH_ORACLE_CAP")
    return int(env) if env else default


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
                                 cap: int | None = None) -> Iterator[Embedding]:
    """Every copy of T in G exactly once (distinct vertex+edge image sets).

    Walks every placement of :func:`cographs.embedding._placements`, the
    search the constructions also use, and keeps the first placement of
    each image, so embeddings that differ only by an automorphism of T are
    collapsed to one representative; the stream order is deterministic.
    """
    cap = _resolve_cap(cap, DEFAULT_EMBED_CAP)
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
    """Flow- and cut-based evaluation of a preserved-property tag."""
    kind = prop.kind
    if kind == "k_connected":
        return is_k_connected(residual, prop.k)
    if kind == "k_edge_connected":
        return is_k_edge_connected(residual, prop.k)
    if kind == "exact_kappa":
        return vertex_connectivity_flow(residual) == prop.k
    if kind == "maximally_connected":
        return vertex_connectivity_flow(residual) == residual.min_degree()
    if kind == "super_edge_connected":
        if residual.n == 1:
            return True
        if not residual.is_connected():
            return len(residual.isolated_vertices()) == 1
        cuts = min_edge_cuts(residual, cap=max(residual.n, DEFAULT_CUT_CAP))
        return all(record.isolates is not None for record in cuts)
    raise ValueError(f"unknown property kind {kind!r}")


def exhaustive_keeping_search(G: Graph, T: TreeShape, prop: Preserved,
                              mode: DeleteMode = DeleteMode.VERTEX,
                              cap: int | None = None) -> Embedding | ProvenNone:
    """First copy of T whose deletion leaves the property intact, if any.

    The return value is either an embedding tagged with the property or a
    :class:`ProvenNone` recording how many candidates were ruled out; the
    latter certifies a tightness claim at desk scale.
    """
    examined = 0
    for emb in enumerate_subtree_embeddings(G, T, cap=cap):
        examined += 1
        if mode is DeleteMode.VERTEX:
            if len(emb.image) == G.n:
                continue
            residual = delete_vertices(G, emb.image)
        else:
            residual = delete_edges(G, emb.graph_edges())
        if residual_satisfies(G, residual, prop):
            return Embedding.from_mapping(T, emb.mapping, mode, prop)
    return ProvenNone(examined=examined)


def min_edge_cuts(G: Graph, cap: int | None = None) -> list[CutRecord]:
    """All minimum edge cuts of a connected graph, as bipartition sides.

    Sides are restricted to at most half the vertices; for an even split only
    the side containing the smallest vertex is reported, so each cut appears
    once.  ``isolates`` is set when the cut is exactly some vertex's star.
    """
    cap = _resolve_cap(cap, DEFAULT_CUT_CAP)
    n = G.n
    if n > cap:
        raise TooLargeError(f"graph order {n} exceeds the cap {cap}")
    if not G.is_connected():
        raise DisconnectedError("minimum edge cuts need a connected graph")
    if n == 1:
        return []
    verts = G.vertices
    index = {v: i for i, v in enumerate(verts)}
    adj_bits = [0] * n
    for u, v in G.edges:
        adj_bits[index[u]] |= 1 << index[v]
        adj_bits[index[v]] |= 1 << index[u]
    full = (1 << n) - 1

    best = None
    sides: list[tuple[int, ...]] = []
    for size in range(1, n // 2 + 1):
        for combo in combinations(range(n), size):
            if 2 * size == n and combo[0] != 0:
                continue  # even split: keep the side with the smallest vertex
            mask = 0
            for i in combo:
                mask |= 1 << i
            cut = sum((adj_bits[i] & (full ^ mask)).bit_count() for i in combo)
            if best is None or cut < best:
                best = cut
                sides = [combo]
            elif cut == best:
                sides.append(combo)

    records = []
    for combo in sides:
        side_set = set(combo)
        side_labels = tuple(verts[i] for i in combo)
        cut_edges = frozenset(
            e for e in G.edges
            if (index[e[0]] in side_set) != (index[e[1]] in side_set))
        isolates = None
        for v in verts:
            if G.degree(v) == best and all(v in e for e in cut_edges):
                isolates = v
                break
        records.append(CutRecord(side=side_labels, size=best,
                                 isolates=isolates))
    return records
