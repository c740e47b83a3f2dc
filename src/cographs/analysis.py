"""Closed-form connectivity invariants and classifiers for cographs.

Everything here is derived from the cotree alone, in O(n), and :func:`analyze`
is the one place each rule is written: kappa is the order minus the order of a
primary cocomponent, a connected cograph is always maximally edge-connected
(so lambda equals the minimum degree, and is 0 when disconnected), maximal
connectedness is equivalent to a primary cocomponent containing an isolated
vertex, super edge-connectedness has a two-clause exclusion characterization,
and ideal connectedness (2K2-freeness) is a rule on the union nodes.  The
public classifiers read the ``analyze`` report; the k-connectivity ones judge
it with :meth:`~cographs.embedding.Preserved.holds`, which reads the K1
convention from ``graph._at_least``, as the flow checks of plain graphs
do.  The flow oracle in :mod:`cographs.graph` and
:func:`cographs.oracle.has_induced_2k2` never feed these formulas; they exist
to check them.
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
    _preorder,
    _top,
    cotree_from_graph,
    materialize,
)
from .embedding import k_connected, k_edge_connected
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
    """Per-vertex degrees in one top-down pass over the cotree: a vertex
    gains (join order - child order) at every join above it."""
    out: dict[int, int] = {}
    stack = [(ct.root, 0)]
    while stack:
        node, deg = stack.pop()
        if node.kind == LEAF:
            out[node.label] = deg
            continue
        for child in reversed(node.children):
            lift = node.order - child.order if node.kind == JOIN else 0
            stack.append((child, deg + lift))
    return out


def kappa_cograph(ct: Cotree) -> int:
    """kappa(G) = n - n' where n' is the primary cocomponent order."""
    return analyze(ct).kappa


def lambda_cograph(ct: Cotree) -> int:
    """lambda(G): delta(G) for connected cographs, 0 otherwise."""
    return analyze(ct).lambda_


def is_connected_cograph(ct: Cotree) -> bool:
    """Connected test on the cotree: a join root, or the trivial graph."""
    return ct.is_connected()


def _primary_isolated(cocomps: tuple[CotreeNode, ...]) -> list[tuple[int, int]]:
    """(label, index) of every isolated vertex of a maximum-order
    cocomponent, given the cocomponent nodes ``_top(root, JOIN)``.

    A cocomponent is K1 or disconnected; the isolated vertices of a
    disconnected cograph are its components that are a single leaf.
    """
    return [(c.label, i) for i, part in enumerate(cocomps)
            if part.order == cocomps[0].order
            for c in _top(part, UNION) if c.kind == LEAF]


def is_maximally_connected(ct: Cotree) -> bool:
    """kappa = delta, via: some primary cocomponent has an isolated vertex.

    Primary cocomponents are those of maximum order; the characterization
    quantifies existentially over them, so all ties are checked.
    """
    return analyze(ct).maximally_connected


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
    return analyze(ct).super_edge_connected


def _super_edge_connected(connected: bool, cocomps: tuple[CotreeNode, ...],
                          degs: dict[int, int], delta: int) -> bool:
    """The rule of :func:`is_super_edge_connected` (K1 passes every clause)."""
    if not connected:
        return sum(1 for d in degs.values() if d == 0) == 1
    if _is_c4_degrees(degs):
        return False
    if len(cocomps) == 2 and cocomps[1].order == 1:
        H = cocomps[0]
        # delta(H) >= 1: the K1 adds one to every degree of H in G
        return not (H.order >= 4 and min(degs[v] for v in H.labels()) >= 2
                    and any(_complete_order(c) == delta for c in H.children))
    return True


def is_ideally_connected(ct: Cotree) -> bool:
    """2K2-freeness: no two disjoint edges without a cross edge between them.

    True unless some union node of the cotree has two or more non-leaf
    children.  The two edges of an induced 2K2 lie in different children of
    their lowest common union node, and a child of a union node contains an
    edge exactly when it is not a leaf.
    """
    return not any(node.kind == UNION
                   and sum(c.kind != LEAF for c in node.children) >= 2
                   for node in _preorder(ct.root))


def is_k_connected_cograph(ct: Cotree, k: int) -> bool:
    """Closed-form k-connectivity; K1 counts as 1-connected."""
    return k_connected(k).holds(analyze(ct).to_dict().__getitem__)


def is_k_edge_connected_cograph(ct: Cotree, k: int) -> bool:
    """Closed-form k-edge-connectivity; K1 counts as 1-edge-connected."""
    return k_edge_connected(k).holds(analyze(ct).to_dict().__getitem__)


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
        """Every field in declaration order; ``lambda_`` is keyed ``"lambda"``."""
        return {name.rstrip("_"): value for name, value in vars(self).items()}


def analyze(obj: Graph | Cotree) -> AnalysisReport:
    """Full report for a cograph given as a Graph, or in O(n) as a Cotree.

    Raises NotACographError (with a P4 witness) for non-cograph graphs.
    """
    ct = as_cotree(obj)
    degs = degrees(ct)
    cocomps = _top(ct.root, JOIN)
    n_prime = cocomps[0].order
    delta = min(degs.values())
    connected = is_connected_cograph(ct)
    lam = delta if connected else 0
    return AnalysisReport(
        n=ct.n,
        n_prime=n_prime,
        t=len(cocomps),
        delta=delta,
        Delta=max(degs.values()),
        kappa=ct.n - n_prime,
        lambda_=lam,
        connected=connected,
        maximally_connected=bool(_primary_isolated(cocomps)),
        maximally_edge_connected=lam == delta,
        super_edge_connected=_super_edge_connected(connected, cocomps, degs,
                                                   delta),
        ideally_connected=is_ideally_connected(ct),
        dirac=ct.n >= 3 and 2 * delta >= ct.n,
        super_by_convention=not connected,
    )
