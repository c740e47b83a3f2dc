"""Shared brute-force oracles and seeded samplers for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from cographs import (
    Graph,
    TreeShape,
    delete_edges,
    delete_vertices,
    graph,
    named_tree,
    parse_expression,
    random_cotree,
    random_tree,
)
from cographs.analysis import degrees
from cographs.cotree import (
    JOIN,
    Cotree,
    RecognitionResult,
    _complete_order,
    _preorder,
    format_expression,
    join,
    leaf,
    union,
)
from cographs.errors import (
    ArityError,
    CographError,
    DisconnectedError,
    ExpressionSyntaxError,
    PostconditionFailedError,
    TooLargeError,
)
from cographs.graph import _parts, induced_subgraph
from cographs.oracle import DEFAULT_CUT_CAP, CutRecord


def brute_kappa(G: Graph) -> int:
    """Smallest vertex set whose removal disconnects or trivializes G."""
    n = G.n
    for size in range(n):
        if size == 0:
            if n == 1 or not G.is_connected():
                return 0
            continue
        for S in combinations(G.vertices, size):
            rest = delete_vertices(G, S)
            if rest.n == 1 or not rest.is_connected():
                return size
    return n - 1


def brute_lambda(G: Graph) -> int:
    """Smallest edge set whose removal disconnects G (0 for the trivial graph)."""
    if G.n == 1 or not G.is_connected():
        return 0
    edges = sorted(G.edges)
    for size in range(len(edges) + 1):
        for F in combinations(edges, size):
            if not delete_edges(G, F).is_connected():
                return size
    raise AssertionError("a nontrivial connected graph has an edge cut")


def even_kappa(G: Graph) -> int:
    """kappa(G) by flows from the first ``kappa + 1`` vertices only: the loop
    :func:`cographs.graph.vertex_connectivity_flow` ran before it chose a
    minimum-degree vertex, kept as its reference.

    Some v_i of v_1 ... v_(kappa+1) is outside a minimum separator S; for the
    first such i, S holds v_1 ... v_(i-1), so each vertex S cuts off from v_i
    is a later, nonadjacent v_j (Even 1975).  Sources run up to v_best for
    the running minimum ``best``, which reaches v_(kappa+1) while best > kappa.
    """
    if G.is_complete():
        return G.n - 1
    vs = G.vertices
    best = G.min_degree()
    i = 0
    while i < best:
        for v in vs[i + 1:]:
            if not G.has_edge(vs[i], v):
                best = graph.maximum_flow(G, vs[i], v, True, best)
        i += 1
    return best


def one_source_lambda(G: Graph) -> int:
    """lambda(G) by flows from the first vertex to every other one, each
    counted up to delta or the smallest value so far: the loop
    :func:`cographs.graph.edge_connectivity_flow` ran before it took a
    dominating set, kept as its reference."""
    best = G.min_degree()
    for v in G.vertices[1:]:
        best = graph.maximum_flow(G, G.vertices[0], v, False, best)
    return best


def brute_min_edge_cuts(G: Graph, cap: int = DEFAULT_CUT_CAP) -> list[CutRecord]:
    """All minimum edge cuts of a connected graph, as bipartition sides.

    The plain loop over every side, kept as the reference that
    :func:`cographs.oracle.min_edge_cuts` must match, order included.

    Sides are restricted to at most half the vertices; for an even split only
    the side containing the smallest vertex is reported, so each cut appears
    once.  ``isolates`` is set when the cut is exactly some vertex's star.
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


class RecursiveParser:
    """Recursive descent over the expression DSL: the parser
    :func:`cographs.cotree.parse_expression` replaced with one explicit-stack
    pass, kept as its reference (recursion depth grows with nesting)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.next_label = 0

    def error(self, message: str) -> ExpressionSyntaxError:
        return ExpressionSyntaxError(message, self.pos)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Cotree:
        node = self.parse_expr()
        if self.peek():
            raise self.error(f"unexpected {self.peek()!r}")
        return Cotree(node)

    def parse_expr(self):
        parts = [self.parse_term()]
        while self.peek() == "+":
            self.pos += 1
            parts.append(self.parse_term())
        return parts[0] if len(parts) == 1 else join(parts)

    def parse_term(self):
        parts = [self.parse_atom()]
        while self.peek() == "|":
            self.pos += 1
            parts.append(self.parse_atom())
        return parts[0] if len(parts) == 1 else union(parts)

    def parse_atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.parse_expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
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
            leaves = [leaf(self.next_label + i) for i in range(count)]
            self.next_label += count
            return leaves[0] if count == 1 else join(leaves)
        raise self.error(f"unexpected {ch!r}" if ch else "unexpected end of input")


def neighbourhood_p4_scan(G: Graph) -> tuple[int, int, int, int] | None:
    """First 4-subset (sorted scan) inducing a P4, ordered along the path, by
    filtering each vertex's whole neighbourhood and walking from the smaller
    end: the scan :func:`cographs.cotree.find_induced_p4` replaced with six
    adjacency tests per subset, kept as its reference."""
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


def _decompose(G: Graph, S: set[int]):
    if len(S) == 1:
        return leaf(next(iter(S)))
    comps = _parts(G, S, complement=False)
    if len(comps) > 1:
        return union([_decompose(G, c) for c in comps])
    cocomps = _parts(G, S, complement=True)
    if len(cocomps) > 1:
        return join([_decompose(G, c) for c in cocomps])
    witness = neighbourhood_p4_scan(induced_subgraph(G, S))
    if witness is None:
        raise PostconditionFailedError(
            "connected co-connected graph must contain a P4")
    raise _P4Found(witness)


def recursive_recognize(G: Graph) -> RecognitionResult:
    """Recognition by recursive splitting into components and
    cocomponents, a P4 witness thrown up from the first prime part: the walk
    :func:`cographs.cotree.cotree_from_graph` replaced with an explicit
    stack, kept as its reference.  Its witness comes from
    :func:`neighbourhood_p4_scan`, so the two P4 scans are compared too."""
    try:
        return RecognitionResult(cotree=Cotree(_decompose(G, set(G.vertices))))
    except _P4Found as found:
        return RecognitionResult(witness=found.witness)


def cotree_nodes(ct: Cotree) -> list[tuple]:
    """Every node as (kind, label, order, min_label), in pre-order: equal
    lists mean equal labeled cotrees."""
    out, stack = [], [ct.root]
    while stack:
        node = stack.pop()
        out.append((node.kind, node.label, node.order, node.min_label))
        stack.extend(reversed(node.children))
    return out


def parse_outcome(parse, text: str) -> tuple:
    """The cotree ``parse(text)`` builds, or the type and message (with its
    position) of the domain error it raises."""
    try:
        return ("ok", cotree_nodes(parse(text)))
    except CographError as exc:
        return (type(exc).__name__, str(exc))


def recognition_outcome(recognize, G: Graph) -> tuple:
    result = recognize(G)
    if result.cotree is None:
        return ("witness", result.witness)
    return ("cotree", cotree_nodes(result.cotree))


def all_graphs(n: int):
    """Every labeled graph on 0..n-1 (2^(n choose 2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def has_induced_p4_scan(G: Graph) -> bool:
    for quad in combinations(G.vertices, 4):
        inside = [sum(1 for w in G.neighbors(v) if w in quad) for v in quad]
        if sorted(inside) == [1, 1, 2, 2]:
            return True
    return False


def tree_for(m: int, shape: str, seed: int) -> TreeShape:
    if shape == "path":
        return named_tree(f"path:{m}")
    if shape == "star":
        return named_tree(f"star:{m}")
    return random_tree(m, seed)


def cograph_stream(count: int, seed0: int, nmin: int = 4, nmax: int = 14,
                   bias: float = 0.8):
    """Deterministic stream of random cotrees with varied order."""
    for i in range(count):
        n = nmin + (seed0 + i) % (nmax - nmin + 1)
        yield random_cotree(n, seed0 + i, join_bias=bias)


def dense_connected_cotree(order: int, min_degree: int, rng: random.Random) -> Cotree:
    """Random connected cograph of the given order with delta >= min_degree;
    falls back to the complete graph if rejection takes too long."""
    for _ in range(60):
        ct = random_cotree(order, rng.randrange(1 << 30), join_bias=1.0)
        if min(degrees(ct).values()) >= min_degree:
            return ct
    return parse_expression(f"K{order}")


def two_component_cograph(k: int, m: int, seed: int) -> Cotree:
    """Random cograph with kappa = k whose primary cocomponent is a union of
    two dense components; the natural domain of the disjoint-pair theorems."""
    rng = random.Random(seed)
    need = (k + 1) // 2 + m - 1
    parts = []
    for _ in range(2):
        order = need + 1 + rng.randint(0, 2)
        parts.append(format_expression(dense_connected_cotree(order, need, rng)))
    join_side = format_expression(random_cotree(k, rng.randrange(1 << 30),
                                                join_bias=0.5))
    return parse_expression(f"(({parts[0]})|({parts[1]}))+({join_side})")


def first_mapping_twice(real):
    """Wrap ``embed._embed_mapping`` so that every call returns the mapping
    of the first call: the two-tree theorems then build an overlapping pair."""
    first = []

    def fake(*args, **kwargs):
        if not first:
            first.append(real(*args, **kwargs))
        return dict(first[0])

    return fake


@pytest.fixture
def cotree_inits(monkeypatch) -> list[Cotree]:
    """Every ``Cotree`` validated while the test runs, in order."""
    built: list[Cotree] = []
    init = Cotree.__init__

    def counting_init(self, root):
        init(self, root)
        built.append(self)

    monkeypatch.setattr(Cotree, "__init__", counting_init)
    return built


def format_by_copies(ct: Cotree) -> str:
    """Reference formatter: each subtree's text is built, then copied into
    its parent's; a union child is parenthesized when its text has a "+"."""
    texts: list[str] = []  # one per finished subtree, siblings in order
    for node in reversed(list(_preorder(ct.root))):
        parts = texts[len(texts) - len(node.children):]
        del texts[len(texts) - len(node.children):]
        order = _complete_order(node)
        if order is not None:
            texts.append(f"K{order}")
        elif node.kind == JOIN:
            texts.append("+".join(parts))
        else:
            texts.append("(" + "|".join(f"({t})" if "+" in t else t
                                        for t in parts) + ")")
    return texts[0]
