"""Closed-form connectivity invariants and classifiers for cographs.

Everything here is derived from the cotree alone: kappa is the order minus
the order of a primary cocomponent, a connected cograph is always maximally
edge-connected (so lambda equals the minimum degree), maximal connectedness
is equivalent to a primary cocomponent containing an isolated vertex, and
super edge-connectedness has a two-clause exclusion characterization, and
ideal connectedness (2K2-freeness) is a rule on the union nodes.  The flow
oracle in :mod:`cographs.graph` and :func:`cographs.oracle.has_induced_2k2`
never feed these formulas; they exist to check them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cotree import (
    JOIN,
    LEAF,
    UNION,
    Cotree,
    CotreeNode,
    _complete_order,
    cocomponents,
    cotree_from_graph,
    materialize,
)
from .errors import NotACographError
from .graph import Graph

__all__ = [
    "AnalysisReport",
    "degrees",
    "kappa_cograph",
    "lambda_cograph",
    "is_connected_cograph",
    "is_maximally_connected",
    "is_super_edge_connected",
    "is_ideally_connected",
    "is_k_connected_cograph",
    "is_k_edge_connected_cograph",
    "analyze",
    "as_cotree",
    "as_graph_and_cotree",
]


def as_cotree(obj: Graph | Cotree) -> Cotree:
    """Coerce a Graph to its cotree; raise NotACographError on a P4."""
    if isinstance(obj, Cotree):
        return obj
    result = cotree_from_graph(obj)
    if result.cotree is None:
        raise NotACographError(result.witness)
    return result.cotree


def as_graph_and_cotree(obj: Graph | Cotree) -> tuple[Graph, Cotree]:
    if isinstance(obj, Cotree):
        return materialize(obj), obj
    return obj, as_cotree(obj)


def degrees(ct: Cotree) -> dict[int, int]:
    """Per-vertex degrees computed recursively on the cotree."""

    def walk(node: CotreeNode) -> dict[int, int]:
        if node.kind == LEAF:
            return {node.label: 0}
        out: dict[int, int] = {}
        for child in node.children:
            sub = walk(child)
            if node.kind == JOIN:
                lift = node.order - child.order
                for v in sub:
                    sub[v] += lift
            out.update(sub)
        return out

    return walk(ct.root)


def _delta(ct: Cotree) -> int:
    return min(degrees(ct).values())


def kappa_cograph(ct: Cotree) -> int:
    """kappa(G) = n - n' where n' is the primary cocomponent order."""
    return ct.n - cocomponents(ct)[0].n


def lambda_cograph(ct: Cotree) -> int:
    """lambda(G): delta(G) for connected cographs, 0 otherwise."""
    if not is_connected_cograph(ct):
        return 0
    return _delta(ct)


def is_connected_cograph(ct: Cotree) -> bool:
    """Connected test on the cotree: a join root, or the trivial graph."""
    return ct.is_connected()


def _cocomponent_has_isolated_vertex(node: CotreeNode) -> bool:
    """True when the (sub)graph of a cocomponent has a degree-0 vertex.

    A cocomponent is K1 or disconnected; a disconnected cograph has an
    isolated vertex exactly when one of its components is a single leaf.
    """
    if node.kind == LEAF:
        return True
    if node.kind == UNION:
        return any(c.kind == LEAF for c in node.children)
    return False


def is_maximally_connected(ct: Cotree) -> bool:
    """kappa = delta, via: some primary cocomponent has an isolated vertex.

    Primary cocomponents are those of maximum order; the characterization
    quantifies existentially over them, so all ties are checked.
    """
    return _is_maximally_connected(cocomponents(ct))


def _is_maximally_connected(cocomps: list[Cotree]) -> bool:
    top = cocomps[0].n
    return any(c.n == top and _cocomponent_has_isolated_vertex(c.root)
               for c in cocomps)


def _is_c4_degrees(degs: dict[int, int]) -> bool:
    """C4 from its degree map: a 2-regular graph on four vertices is C4."""
    return len(degs) == 4 and all(d == 2 for d in degs.values())


def is_super_edge_connected(ct: Cotree) -> bool:
    """Every minimum edge cut isolates a minimum-degree vertex.

    Connected case: true unless G is C4, or G = H + K1 where H is a
    disconnected cograph of order >= 4 with delta(H) >= 1 that has a
    component isomorphic to K_{delta(G)}.

    Disconnected case (convention, flagged in reports): true exactly when
    the graph has a single isolated vertex.
    """
    return _is_super_edge_connected(ct, cocomponents(ct), degrees(ct))


def _is_super_edge_connected(ct: Cotree, cocomps: list[Cotree],
                             degs: dict[int, int]) -> bool:
    if ct.n == 1:
        return True
    if not is_connected_cograph(ct):
        return sum(1 for d in degs.values() if d == 0) == 1
    if _is_c4_degrees(degs):
        return False
    if len(cocomps) == 2 and cocomps[1].n == 1:
        H = cocomps[0]
        # delta(H) >= 1: the K1 adds one to every degree of H in G
        if H.n >= 4 and min(degs[v] for v in H.labels) >= 2:
            delta_G = min(degs.values())
            if any(_complete_order(c) == delta_G for c in H.root.children):
                return False
    return True


def is_ideally_connected(ct: Cotree) -> bool:
    """2K2-freeness: no two disjoint edges without a cross edge between them.

    True unless some union node of the cotree has two or more non-leaf
    children.  The two edges of an induced 2K2 lie in different children of
    their lowest common union node, and a child of a union node contains an
    edge exactly when it is not a leaf.
    """
    stack = [ct.root]
    while stack:
        node = stack.pop()
        inner = [c for c in node.children if c.kind != LEAF]
        if node.kind == UNION and len(inner) >= 2:
            return False
        stack.extend(inner)
    return True


def is_k_connected_cograph(ct: Cotree, k: int) -> bool:
    """Closed-form k-connectivity; K1 counts as 1-connected."""
    if k <= 0:
        return True
    if ct.n == 1:
        return k <= 1
    return kappa_cograph(ct) >= k


def is_k_edge_connected_cograph(ct: Cotree, k: int) -> bool:
    if k <= 0:
        return True
    if ct.n == 1:
        return k <= 1
    return lambda_cograph(ct) >= k


@dataclass(frozen=True)
class AnalysisReport:
    """All invariants of a cograph in one flat record."""

    n: int
    n_prime: int
    t: int
    delta: int
    Delta: int
    kappa: int
    lambda_: int
    connected: bool
    maximally_connected: bool
    maximally_edge_connected: bool
    super_edge_connected: bool
    ideally_connected: bool
    dirac: bool
    super_by_convention: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "n_prime": self.n_prime,
            "t": self.t,
            "delta": self.delta,
            "Delta": self.Delta,
            "kappa": self.kappa,
            "lambda": self.lambda_,
            "connected": self.connected,
            "maximally_connected": self.maximally_connected,
            "maximally_edge_connected": self.maximally_edge_connected,
            "super_edge_connected": self.super_edge_connected,
            "ideally_connected": self.ideally_connected,
            "dirac": self.dirac,
            "super_by_convention": self.super_by_convention,
        }


def analyze(obj: Graph | Cotree) -> AnalysisReport:
    """Full report for a cograph given as a Graph or a Cotree.

    Raises NotACographError (with a P4 witness) for non-cograph graphs.
    """
    ct = as_cotree(obj)
    degs = degrees(ct)
    cocomps = cocomponents(ct)
    n_prime = cocomps[0].n
    delta = min(degs.values())
    Delta = max(degs.values())
    connected = is_connected_cograph(ct)
    lam = delta if connected else 0
    return AnalysisReport(
        n=ct.n,
        n_prime=n_prime,
        t=len(cocomps),
        delta=delta,
        Delta=Delta,
        kappa=ct.n - n_prime,
        lambda_=lam,
        connected=connected,
        maximally_connected=_is_maximally_connected(cocomps),
        maximally_edge_connected=lam == delta,
        super_edge_connected=_is_super_edge_connected(ct, cocomps, degs),
        ideally_connected=is_ideally_connected(ct),
        dirac=ct.n >= 3 and 2 * delta >= ct.n,
        super_by_convention=not connected,
    )
