"""Embedding records: an injective, edge-preserving placement of a tree.

An :class:`Embedding` maps every vertex of a :class:`~cographs.graph.TreeShape`
to a distinct graph vertex so that tree edges land on graph edges.  The
``mode`` says what gets deleted (the image vertices, or the image edges) and
``preserved`` names the property the deletion is claimed to keep.  The
``residual_report`` of a ``keep_*`` result (outside ``==``, ``hash``,
``repr`` and ``to_dict()``) is what its verifier found on the residual.

:meth:`Preserved.holds` is the only code that says what a tag means; it
reads the invariants it asks for either from a closed-form ``analyze``
report or from :class:`cographs.oracle._flow_values`, the flow and cut route.

:func:`_placements` is the one placement search: it yields every way to
place a tree inside an allowed vertex set, smallest labels first.  The
constructions in :mod:`cographs.embed` take its first placement and
:func:`cographs.oracle.enumerate_subtree_embeddings` takes all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

from .graph import Graph, TreeShape, _at_least, delete_edges, delete_vertices

__all__ = [
    "DeleteMode",
    "Preserved",
    "Embedding",
    "DisjointPair",
    "k_connected",
    "k_edge_connected",
    "maximally_connected",
    "super_edge_connected",
    "exact_kappa",
]


class DeleteMode(str, Enum):
    VERTEX = "vertex"
    EDGE = "edge"


@dataclass(frozen=True)
class Preserved:
    """Property tag carried by an embedding (kind plus optional parameter)."""

    kind: str
    k: int | None = None

    def tag(self) -> str:
        return f"{self.kind}({self.k})" if self.k is not None else self.kind

    def holds(self, value: Callable[[str], int | bool]) -> bool:
        """Whether a graph has this property, asking ``value(key)`` only
        for the invariants the tag needs (``n``, ``kappa``, ``lambda``,
        ``maximally_connected``, ``super_edge_connected``), with the K1
        convention of :func:`cographs.graph._at_least`.
        """
        if self.kind in ("maximally_connected", "super_edge_connected"):
            return value(self.kind)
        if self.kind == "exact_kappa":
            return value("kappa") == self.k
        key = {"k_connected": "kappa", "k_edge_connected": "lambda"}.get(self.kind)
        if key is None:
            raise ValueError(f"unknown property kind {self.kind!r}")
        return _at_least(self.k, value("n"), lambda: value(key))


def k_connected(k: int) -> Preserved:
    return Preserved("k_connected", k)


def k_edge_connected(k: int) -> Preserved:
    return Preserved("k_edge_connected", k)


def maximally_connected() -> Preserved:
    return Preserved("maximally_connected")


def super_edge_connected() -> Preserved:
    return Preserved("super_edge_connected")


def exact_kappa(k: int) -> Preserved:
    return Preserved("exact_kappa", k)


def _placement_order(T: TreeShape, placed) -> list[tuple[int, int | None]]:
    """Order for the missing tree vertices; each follows its unique placed
    neighbor (the placed set stays connected, so the parent is unique)."""
    placed = set(placed)
    order: list[tuple[int, int | None]] = []
    if not placed:
        root = min(T.tree.vertices)
        order.append((root, None))
        placed.add(root)
    while len(placed) < T.order:
        v = min(u for u in T.tree.vertices
                if u not in placed and any(w in placed
                                           for w in T.tree.neighbors(u)))
        parent = min(w for w in T.tree.neighbors(v) if w in placed)
        order.append((v, parent))
        placed.add(v)
    return order


def _placements(G: Graph, T: TreeShape, allowed,
                partial: dict[int, int] | None = None) -> Iterator[dict[int, int]]:
    """Every extension of ``partial`` to a placement of T inside ``allowed``.

    Depth-first and smallest-label-first: the tree vertices are placed in
    :func:`_placement_order`, each on an unused allowed vertex (a neighbor
    of its parent's image), trying candidates in increasing label order.
    ``partial`` must already be a valid placement of a subtree of T.
    Each item is a fresh dict.
    """
    allowed = frozenset(allowed)
    assignment = dict(partial or {})
    order = _placement_order(T, assignment)
    used = set(assignment.values())
    if not order:
        yield dict(assignment)
        return

    def candidates(i: int) -> Iterator[int]:
        parent = order[i][1]
        if parent is not None:
            return iter(sorted((G.neighbors(assignment[parent]) & allowed)
                               - used))
        return iter(sorted(allowed - used))

    stack = [candidates(0)]  # one candidate iterator per level being placed
    while stack:
        t = order[len(stack) - 1][0]
        if t in assignment:
            used.discard(assignment.pop(t))
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            continue
        assignment[t] = c
        used.add(c)
        if len(stack) == len(order):
            yield dict(assignment)
        else:
            stack.append(candidates(len(stack)))


@dataclass(frozen=True)
class Embedding:
    """Injective edge-preserving map from a tree shape into a graph."""

    shape: TreeShape
    pairs: tuple[tuple[int, int], ...]
    mode: DeleteMode = DeleteMode.VERTEX
    preserved: Preserved | None = None
    residual_report: dict | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_mapping(cls, shape: TreeShape, mapping: dict[int, int],
                     mode: DeleteMode = DeleteMode.VERTEX,
                     preserved: Preserved | None = None) -> "Embedding":
        pairs = tuple(sorted(mapping.items()))
        return cls(shape=shape, pairs=pairs, mode=mode, preserved=preserved)

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(g for _, g in self.pairs)

    def graph_edges(self) -> list[tuple[int, int]]:
        """Images of the tree edges, normalized with the smaller label first."""
        mp = self.mapping
        out = []
        for u, v in self.shape.tree.edges:
            a, b = mp[u], mp[v]
            out.append((a, b) if a < b else (b, a))
        return sorted(out)

    def check(self, G: Graph) -> None:
        """Raise ValueError unless this is a valid embedding into G."""
        mp = self.mapping
        if set(mp) != set(self.shape.tree.vertices):
            raise ValueError("embedding does not cover the whole tree")
        if len(set(mp.values())) != len(mp):
            raise ValueError("embedding is not injective")
        for g in mp.values():
            if not G.has_vertex(g):
                raise ValueError(f"image vertex {g} not in graph")
        for u, v in self.shape.tree.edges:
            if not G.has_edge(mp[u], mp[v]):
                raise ValueError(f"tree edge ({u}, {v}) not preserved")

    def residual(self, G: Graph) -> Graph:
        """The graph after deleting the image (vertices or edges per mode)."""
        if self.mode is DeleteMode.VERTEX:
            return delete_vertices(G, self.image)
        return delete_edges(G, self.graph_edges())

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "preserved": self.preserved.tag() if self.preserved else None,
            "map": [[t, g] for t, g in self.pairs],
        }


@dataclass(frozen=True)
class DisjointPair:
    """Two embeddings with disjoint vertex images."""

    first: Embedding
    second: Embedding
    residual_report: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.first.image & self.second.image:
            raise ValueError("embeddings are not vertex-disjoint")

    def combined_image(self) -> frozenset[int]:
        return self.first.image | self.second.image

    def residual(self, G: Graph) -> Graph:
        return self.second.residual(self.first.residual(G))

    def to_dict(self) -> dict:
        return {"first": self.first.to_dict(), "second": self.second.to_dict()}
