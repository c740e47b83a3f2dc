"""Cotree decompositions: parsing, recognition, serialization, materializing.

A cotree is the canonical rooted decomposition of a cograph: leaves are
single vertices, internal nodes are unions or joins with at least two
children, and no union has a union child (likewise for joins).  Children are
kept sorted by descending subtree order with ties broken by smallest
contained label, which pins down "the" primary cocomponent everywhere else
in the library.  A :class:`Cotree` is the validated handle that parsing,
recognition and the views return; the library itself reads nodes.

Expression DSL (whitespace insignificant)::

    expr := term | expr "+" term          join, flattened n-ary
    term := atom | term "|" atom          union, binds tighter than "+"
    atom := "K" INT | "(" expr ")"        Kn is the complete-graph shorthand
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import (
    ArityError,
    ExpressionSyntaxError,
    PostconditionFailedError,
    TooLargeError,
)
from .graph import _MAX_EDGES, _MAX_ORDER, Graph, _parts, induced_subgraph

__all__ = [
    "CotreeNode",
    "Cotree",
    "RecognitionResult",
    "leaf",
    "union",
    "join",
    "parse_expression",
    "format_expression",
    "materialize",
    "cotree_from_graph",
    "cocomponents",
    "components",
    "find_induced_p4",
]

LEAF = "leaf"
UNION = "union"
JOIN = "join"


class CotreeNode:
    """One node of a canonical cotree (immutable)."""

    __slots__ = ("kind", "label", "children", "order", "min_label")

    def __init__(self, kind, label, children, order, min_label):
        self.kind = kind
        self.label = label
        self.children: tuple[CotreeNode, ...] = children
        self.order = order
        self.min_label = min_label

    def labels(self) -> list[int]:
        """Leaf labels, left to right."""
        return [n.label for n in reversed(list(_preorder(self))) if n.kind == LEAF]

    def __repr__(self) -> str:
        if self.kind == LEAF:
            return f"Leaf({self.label})"
        return f"{self.kind.capitalize()}(order={self.order})"


def _preorder(root: CotreeNode) -> Iterator[CotreeNode]:
    """Every node of the subtree, each before its descendants, one at a time.
    Children are taken last first, so the reversed list meets siblings first
    to last, each after all of its own descendants."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack += node.children


def leaf(label: int) -> CotreeNode:
    return CotreeNode(LEAF, label, (), 1, label)


def _internal(kind: str, children) -> CotreeNode:
    flat: list[CotreeNode] = []
    for c in children:
        if c.kind == kind:
            flat.extend(c.children)
        else:
            flat.append(c)
    if len(flat) < 2:
        raise ArityError(f"{kind} node needs at least two children")
    flat.sort(key=lambda c: (-c.order, c.min_label))
    order = sum(c.order for c in flat)
    return CotreeNode(kind, None, tuple(flat), order,
                      min(c.min_label for c in flat))


def union(children) -> CotreeNode:
    return _internal(UNION, children)


def join(children) -> CotreeNode:
    return _internal(JOIN, children)


class Cotree:
    """A whole cotree; wraps the root node and caches the leaf labels."""

    __slots__ = ("root", "_labels")

    def __init__(self, root: CotreeNode):
        self.root = root
        self._labels = tuple(sorted(root.labels()))
        if len(set(self._labels)) != len(self._labels):
            raise ValueError("duplicate leaf labels in cotree")

    @property
    def n(self) -> int:
        return self.root.order

    @property
    def labels(self) -> tuple[int, ...]:
        return self._labels

    def is_connected(self) -> bool:
        """Nontrivial cographs are connected iff the root is a join."""
        return self.n == 1 or self.root.kind == JOIN

    def __repr__(self) -> str:
        return f"Cotree({format_expression(self)})"


@dataclass(frozen=True)
class RecognitionResult:
    """Either a cotree or an ordered 4-tuple of vertices inducing a P4."""

    cotree: Cotree | None = None
    witness: tuple[int, int, int, int] | None = None

    @property
    def is_cograph(self) -> bool:
        return self.cotree is not None


# -- DSL parsing -----------------------------------------------------------------

def _one_or(build, nodes: list[CotreeNode]) -> CotreeNode:
    return nodes[0] if len(nodes) == 1 else build(nodes)


def parse_expression(text: str) -> Cotree:
    """Parse DSL text into a canonical cotree, labeling leaves left-to-right.

    One pass with one frame per open parenthesis: the finished terms of its
    join and the atoms of its current union.
    """
    frames: list[tuple[list[CotreeNode], list[CotreeNode]]] = [([], [])]
    pos, end, next_label, want_atom = 0, len(text), 0, True
    while True:
        while pos < end and text[pos].isspace():
            pos += 1
        ch = text[pos] if pos < end else ""
        terms, atoms = frames[-1]
        if want_atom and ch == "(":
            frames.append(([], []))
            pos += 1
        elif want_atom and ch == "K":
            start = pos = pos + 1
            while pos < end and text[pos].isdecimal():
                pos += 1
            if pos == start:
                raise ExpressionSyntaxError("expected an integer after 'K'", pos)
            digits = text[start:pos].lstrip("0")  # int() stops at 4300 digits
            count = (int(digits or "0") if len(digits) <= len(str(_MAX_ORDER))
                     else _MAX_ORDER + 1)
            if count < 1:
                raise ArityError("Kn shorthand requires n >= 1")
            if next_label + count > _MAX_ORDER:
                raise TooLargeError(
                    f"expression has more than {_MAX_ORDER} vertices")
            leaves = [leaf(label) for label in range(next_label, next_label + count)]
            next_label += count
            atoms.append(_one_or(join, leaves))
            want_atom = False
        elif want_atom:
            raise ExpressionSyntaxError(
                f"unexpected {ch!r}" if ch else "unexpected end of input", pos)
        elif ch in ("|", "+"):
            if ch == "+":
                terms.append(_one_or(union, atoms))
                atoms.clear()
            pos += 1
            want_atom = True
        else:
            terms.append(_one_or(union, atoms))
            node = _one_or(join, terms)
            if len(frames) == 1:
                if ch:
                    raise ExpressionSyntaxError(f"unexpected {ch!r}", pos)
                return Cotree(node)
            if ch != ")":
                raise ExpressionSyntaxError("expected ')'", pos)
            frames.pop()
            frames[-1][1].append(node)
            pos += 1


def _complete_order(node: CotreeNode) -> int | None:
    """Order c when the node denotes K_c, else None."""
    if node.kind == LEAF:
        return 1
    if node.kind == JOIN and all(c.kind == LEAF for c in node.children):
        return node.order
    return None


def format_expression(ct: Cotree) -> str:
    """Canonical DSL text; re-parsing gives an isomorphic labeled graph.

    One pre-order pass writes the tokens.  Every union is parenthesized, and
    so is a union child that is a join other than K_c.
    """
    tokens: list[str] = []
    stack: list[CotreeNode | str] = [ct.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            tokens.append(item)
        elif (order := _complete_order(item)) is not None:
            tokens.append(f"K{order}")
        else:
            union = item.kind == UNION
            items: list[CotreeNode | str] = []
            for child in item.children:
                if items:
                    items.append("|" if union else "+")
                if union and child.kind == JOIN and _complete_order(child) is None:
                    items += ["(", child, ")"]
                else:
                    items.append(child)
            stack += reversed(["(", *items, ")"] if union else items)
    return "".join(tokens)


# -- materialization ----------------------------------------------------------------

def materialize(ct: Cotree) -> Graph:
    """Build the labeled graph a cotree denotes, in O(n + m).

    Nodes are taken in reverse pre-order, so each node finds the label
    lists of its children on top of the stack.  The edge count is checked
    against the limit first.
    """
    nodes = list(_preorder(ct.root))
    m = sum((x.order ** 2 - sum(c.order ** 2 for c in x.children)) // 2
            for x in nodes if x.kind == JOIN)
    if m > _MAX_EDGES:
        raise TooLargeError(f"edge count {m} exceeds the limit {_MAX_EDGES}")
    edges: list[tuple[int, int]] = []
    groups: list[list[int]] = []
    for node in reversed(nodes):
        if node.kind == LEAF:
            groups.append([node.label])
            continue
        merged = groups.pop()
        for _ in node.children[1:]:
            group = groups.pop()
            if node.kind == JOIN:
                edges.extend((u, v) for u in merged for v in group)
            merged.extend(group)
        groups.append(merged)
    return Graph(groups[0], edges)


# -- recognition ----------------------------------------------------------------------

def find_induced_p4(G: Graph) -> tuple[int, int, int, int] | None:
    """First 4-subset (sorted scan) inducing a P4, ordered along the path: six
    adjacency tests per subset, still O(n^4) in the worst case."""
    for quad in combinations(G.vertices, 4):
        near: dict[int, list[int]] = {v: [] for v in quad}
        for u, v in combinations(quad, 2):
            if G.has_edge(u, v):
                near[u].append(v)
                near[v].append(u)
        if sorted(map(len, near.values())) == [1, 1, 2, 2]:  # only P4 has these
            a, d = (v for v in quad if len(near[v]) == 1)  # its ends, a < d
            return a, near[a][0], near[d][0], d
    return None


def cotree_from_graph(G: Graph) -> RecognitionResult:
    """Recognize a cograph; on failure return an induced-P4 witness.

    Parts are split depth-first, smallest label first; the witness comes from
    the first part that is connected and co-connected.
    """
    root: list[CotreeNode] = []
    internal = []  # (kind, children, the parent's child list), in creation order
    stack = [(set(G.vertices), root)]
    while stack:
        S, siblings = stack.pop()
        if len(S) == 1:
            siblings.append(leaf(next(iter(S))))
            continue
        kind, parts = UNION, _parts(G, S, complement=False)
        if len(parts) == 1:
            kind, parts = JOIN, _parts(G, S, complement=True)
        if len(parts) == 1:
            witness = find_induced_p4(induced_subgraph(G, S))
            if witness is None:
                raise PostconditionFailedError(
                    "connected co-connected graph must contain a P4")
            return RecognitionResult(witness=witness)
        children: list[CotreeNode] = []
        internal.append((kind, children, siblings))
        stack.extend((part, children) for part in reversed(parts))
    for kind, children, siblings in reversed(internal):  # descendants first
        siblings.append(_internal(kind, children))
    return RecognitionResult(cotree=Cotree(root[0]))


# -- decomposition views ------------------------------------------------------------

def _top(node: CotreeNode, kind: str) -> tuple[CotreeNode, ...]:
    """The children of a ``kind`` node, else ``(node,)``: the cocomponents
    (``JOIN``) or components (``UNION``) of ``node``, largest first."""
    return node.children if node.kind == kind else (node,)


def cocomponents(ct: Cotree) -> list[Cotree]:
    """Top-level join parts, largest first; ``[ct]`` itself when t = 1.

    The first entry is the primary cocomponent, so ``n' = result[0].n`` and
    ``t = len(result)``.
    """
    parts = _top(ct.root, JOIN)
    return [ct] if len(parts) == 1 else [Cotree(c) for c in parts]


def components(ct: Cotree) -> list[Cotree]:
    """Connected components, largest first; ``[ct]`` itself when connected."""
    parts = _top(ct.root, UNION)
    return [ct] if len(parts) == 1 else [Cotree(c) for c in parts]
