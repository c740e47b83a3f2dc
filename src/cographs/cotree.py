"""Cotree decompositions: parsing, recognition, serialization, materializing.

A cotree is the canonical rooted decomposition of a cograph: leaves are
single vertices, internal nodes are unions or joins with at least two
children, and no union has a union child (likewise for joins).  Children are
kept sorted by descending subtree order with ties broken by smallest
contained label, which pins down "the" primary cocomponent everywhere else
in the library.

Expression DSL (whitespace insignificant)::

    expr := term | expr "+" term          join, flattened n-ary
    term := atom | term "|" atom          union, binds tighter than "+"
    atom := "K" INT | "(" expr ")"        Kn is the complete-graph shorthand
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ArityError, ExpressionSyntaxError, PostconditionFailedError
from .graph import Graph, _parts, induced_subgraph

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
        if self.kind == LEAF:
            return [self.label]
        out: list[int] = []
        for c in self.children:
            out.extend(c.labels())
        return out

    def __repr__(self) -> str:
        if self.kind == LEAF:
            return f"Leaf({self.label})"
        return f"{self.kind.capitalize()}(order={self.order})"


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
        lbls = root.labels()
        if len(set(lbls)) != len(lbls):
            raise ValueError("duplicate leaf labels in cotree")
        self._labels = tuple(sorted(lbls))

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

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.next_label = 0

    def error(self, message: str) -> ExpressionSyntaxError:
        return ExpressionSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> CotreeNode:
        node = self.parse_expr()
        if self.peek():
            raise self.error(f"unexpected {self.peek()!r}")
        return node

    def parse_expr(self) -> CotreeNode:
        parts = [self.parse_term()]
        while self.peek() == "+":
            self.pos += 1
            parts.append(self.parse_term())
        return parts[0] if len(parts) == 1 else join(parts)

    def parse_term(self) -> CotreeNode:
        parts = [self.parse_atom()]
        while self.peek() == "|":
            self.pos += 1
            parts.append(self.parse_atom())
        return parts[0] if len(parts) == 1 else union(parts)

    def parse_atom(self) -> CotreeNode:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        if ch == "K":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise self.error("expected an integer after 'K'")
            count = int(self.text[start:self.pos])
            if count < 1:
                raise ArityError("Kn shorthand requires n >= 1")
            leaves = []
            for _ in range(count):
                leaves.append(leaf(self.next_label))
                self.next_label += 1
            return leaves[0] if count == 1 else join(leaves)
        raise self.error(f"unexpected {ch!r}" if ch else "unexpected end of input")


def parse_expression(text: str) -> Cotree:
    """Parse DSL text into a canonical cotree, labeling leaves left-to-right."""
    return Cotree(_Parser(text).parse())


def _complete_order(node: CotreeNode) -> int | None:
    """Order c when the node denotes K_c, else None."""
    if node.kind == LEAF:
        return 1
    if node.kind == JOIN and all(c.kind == LEAF for c in node.children):
        return node.order
    return None


def _format(node: CotreeNode) -> str:
    order = _complete_order(node)
    if order is not None:
        return f"K{order}"
    if node.kind == JOIN:
        return "+".join(_format(c) for c in node.children)
    # union nodes are always parenthesized, matching the conventional output;
    # join children additionally need their own parens under the "|" operator
    parts = []
    for c in node.children:
        text = _format(c)
        parts.append(f"({text})" if "+" in text else text)
    return "(" + "|".join(parts) + ")"


def format_expression(ct: Cotree) -> str:
    """Canonical DSL text; re-parsing gives an isomorphic labeled graph."""
    return _format(ct.root)


# -- materialization ----------------------------------------------------------------

def materialize(ct: Cotree) -> Graph:
    """Build the labeled graph a cotree denotes."""
    edges: list[tuple[int, int]] = []

    def walk(node: CotreeNode) -> list[int]:
        if node.kind == LEAF:
            return [node.label]
        groups = [walk(c) for c in node.children]
        if node.kind == JOIN:
            for i, a in enumerate(groups):
                for b in groups[i + 1:]:
                    edges.extend((u, v) for u in a for v in b)
        merged: list[int] = []
        for g in groups:
            merged.extend(g)
        return merged

    labels = walk(ct.root)
    return Graph(labels, edges)


# -- recognition ----------------------------------------------------------------------

def find_induced_p4(G: Graph) -> tuple[int, int, int, int] | None:
    """First 4-subset (sorted scan) inducing a P4, ordered along the path."""
    for quad in combinations(G.vertices, 4):
        inside = [[w for w in G.neighbors(v) if w in quad] for v in quad]
        degs = sorted(len(a) for a in inside)
        if degs != [1, 1, 2, 2]:
            continue
        ends = [v for v, a in zip(quad, inside) if len(a) == 1]
        a = min(ends)
        path = [a]
        prev = None
        cur = a
        while len(path) < 4:
            nxt = [w for w in G.neighbors(cur) if w in quad and w != prev][0]
            path.append(nxt)
            prev, cur = cur, nxt
        return tuple(path)
    return None


class _P4Found(Exception):
    def __init__(self, witness):
        self.witness = witness


def _decompose(G: Graph, S: set[int]) -> CotreeNode:
    """Cotree node of the subgraph of G induced by S."""
    if len(S) == 1:
        return leaf(next(iter(S)))
    comps = _parts(G, S, complement=False)
    if len(comps) > 1:
        return union([_decompose(G, c) for c in comps])
    cocomps = _parts(G, S, complement=True)
    if len(cocomps) > 1:
        return join([_decompose(G, c) for c in cocomps])
    witness = find_induced_p4(induced_subgraph(G, S))
    if witness is None:
        raise PostconditionFailedError(
            "connected co-connected graph must contain a P4")
    raise _P4Found(witness)


def cotree_from_graph(G: Graph) -> RecognitionResult:
    """Recognize a cograph; on failure return an induced-P4 witness."""
    try:
        return RecognitionResult(cotree=Cotree(_decompose(G, set(G.vertices))))
    except _P4Found as found:
        return RecognitionResult(witness=found.witness)


# -- decomposition views ------------------------------------------------------------

def cocomponents(ct: Cotree) -> list[Cotree]:
    """Top-level join parts, largest first; the whole tree when t = 1.

    The first entry is the primary cocomponent, so ``n' = result[0].n`` and
    ``t = len(result)``.
    """
    if ct.root.kind == JOIN:
        return [Cotree(c) for c in ct.root.children]
    return [ct]


def components(ct: Cotree) -> list[Cotree]:
    """Connected components of the cograph, largest first."""
    if ct.root.kind == UNION:
        return [Cotree(c) for c in ct.root.children]
    return [ct]
