"""Shared brute-force oracles and seeded samplers for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

from cographs import (
    Graph,
    TreeShape,
    delete_edges,
    delete_vertices,
    named_tree,
    parse_expression,
    random_cotree,
    random_tree,
)
from cographs.analysis import degrees
from cographs.cotree import Cotree, format_expression


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
