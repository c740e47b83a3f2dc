"""Seeded graph families for the benchmark, built without the library.

The benchmark generates its own inputs so that a refactor of
``cographs.generators`` cannot change what is measured.  A cotree here is a
tuple: ``("L", label)`` for a vertex, ``("U", children)`` for a disjoint
union and ``("J", children)`` for a join.  Every family yields a
:class:`Instance`: the edge-list text the CLI reads plus the invariants the
benchmark needs to admit requests and to check answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property


@dataclass
class Instance:
    """One input graph: its edge-list text and the facts known about it."""

    family: str
    n: int
    text: str
    cograph: bool
    # closed forms below are only meaningful when ``cograph`` is true
    kappa: int = 0
    n_prime: int = 0
    delta: int = 0
    super_edge_connected: bool = False

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Adjacency sets parsed back from the text (used by the checks)."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for line in self.text.splitlines()[1:]:
            u, v = map(int, line.split())
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(a) for a in adj)


# -- cotree shapes -----------------------------------------------------------------

def _node(kind: str, children: list) -> tuple:
    """Canonical internal node: same-kind children are flattened into it."""
    flat = []
    for c in children:
        flat.extend(c[1] if c[0] == kind else [c])
    if len(flat) == 1:
        return flat[0]
    return (kind, flat)


def _order(node) -> int:
    if node[0] == "L":
        return 1
    return sum(_order(c) for c in node[1])


def random_cotree(rng: random.Random, labels: list[int], kind: str = "J") -> tuple:
    """Recursive random composition; the root has the given kind.

    Each internal node splits its labels into 2..len random consecutive
    groups, and kinds alternate below the root (canonical by construction).
    """
    if len(labels) == 1:
        return ("L", labels[0])
    parts = rng.randint(2, len(labels))
    cuts = sorted(rng.sample(range(1, len(labels)), parts - 1))
    bounds = [0] + cuts + [len(labels)]
    child_kind = "U" if kind == "J" else "J"
    children = [random_cotree(rng, labels[a:b], child_kind)
                for a, b in zip(bounds, bounds[1:])]
    return (kind, children)


def threshold_levels(n: int) -> list[list[int]]:
    """Leaf labels per level of the deepest threshold cotree, top first.

    Level 0 is a join and kinds alternate downward; every level holds one
    leaf except the bottom one, which holds two.  The structure depends on
    n alone, so the seed only relabels it.
    """
    return [[v] for v in range(n - 2)] + [[n - 2, n - 1]]


def threshold_cotree(levels: list[list[int]]) -> tuple:
    node = None
    for depth in range(len(levels) - 1, -1, -1):
        kind = "J" if depth % 2 == 0 else "U"
        children = [("L", v) for v in levels[depth]]
        if node is not None:
            children.append(node)
        node = _node(kind, children) if len(children) > 1 else children[0]
    return node


# -- graph facts from a cotree --------------------------------------------------------

def _leaves(node) -> list[int]:
    out, stack = [], [node]
    while stack:
        x = stack.pop()
        if x[0] == "L":
            out.append(x[1])
        else:
            stack.extend(x[1])
    return out


def _edges(node, out: list[tuple[int, int]]) -> None:
    stack = [node]
    while stack:
        x = stack.pop()
        if x[0] == "L":
            continue
        if x[0] == "J":
            groups = [_leaves(c) for c in x[1]]
            for i, a in enumerate(groups):
                for b in groups[i + 1:]:
                    out.extend((u, v) for u in a for v in b)
        stack.extend(x[1])


def _degrees(node) -> dict[int, int]:
    """Degree of every leaf: a join adds the order of its other children."""
    sizes: dict[int, int] = {}
    post, stack = [], [node]
    while stack:
        x = stack.pop()
        post.append(x)
        if x[0] != "L":
            stack.extend(x[1])
    for x in reversed(post):
        sizes[id(x)] = 1 if x[0] == "L" else sum(sizes[id(c)] for c in x[1])
    out: dict[int, int] = {}
    stack = [(node, 0)]
    while stack:
        x, base = stack.pop()
        if x[0] == "L":
            out[x[1]] = base
            continue
        lift = sizes[id(x)] if x[0] == "J" else 0
        for c in x[1]:
            stack.append((c, base + lift - (sizes[id(c)] if lift else 0)))
    return out


def _is_complete(node) -> bool:
    return node[0] == "L" or (node[0] == "J"
                              and all(c[0] == "L" for c in node[1]))


def _super_closed_form(parts, n: int, delta: int, degs) -> bool:
    """Super edge-connectedness of a connected cograph, from its cotree.

    ``parts`` are the root join's children, largest first.  False exactly
    for C4 and for H + K1 where H is disconnected, has order at least 4, no
    isolated vertex, and a component isomorphic to K_delta.
    """
    if n == 4 and all(d == 2 for d in degs.values()):
        return False
    if len(parts) == 2 and _order(parts[1]) == 1 and parts[0][0] == "U":
        H = parts[0]
        if _order(H) >= 4 and min(_degrees(H).values()) >= 1:
            if any(_is_complete(c) and _order(c) == delta for c in H[1]):
                return False
    return True


def instance(family: str, root, rng: random.Random,
             extra_edge: tuple[int, int] | None = None) -> Instance:
    """Relabel ``root``'s leaves at random and emit the edge list.

    ``extra_edge`` adds one pair the cotree does not have; the caller
    guarantees that it creates an induced P4, so the result is no cograph.
    """
    n = _order(root)
    edges: list[tuple[int, int]] = []
    _edges(root, edges)
    if extra_edge is not None:
        edges.append(extra_edge)
    perm = list(range(n))
    rng.shuffle(perm)
    text = "\n".join([str(n)] + [f"{perm[u]} {perm[v]}" for u, v in edges]) + "\n"
    if extra_edge is not None:
        return Instance(family, n, text, cograph=False)
    degs = _degrees(root)
    delta = min(degs.values())
    if root[0] != "J":
        return Instance(family, n, text, cograph=True, n_prime=n, delta=delta)
    parts = sorted(root[1], key=_order, reverse=True)
    n_prime = _order(parts[0])
    return Instance(family, n, text, cograph=True, kappa=n - n_prime,
                    n_prime=n_prime, delta=delta,
                    super_edge_connected=_super_closed_form(parts, n, delta, degs))


# -- the named families ------------------------------------------------------------------

def random_connected(rng: random.Random, n: int) -> Instance:
    """Random cotree with a join root (``join_bias = 1.0``)."""
    return instance("random", random_cotree(rng, list(range(n)), "J"), rng)


def deep_threshold(rng: random.Random, n: int) -> Instance:
    """Threshold cograph whose cotree is a caterpillar of depth n - 1."""
    return instance("threshold", threshold_cotree(threshold_levels(n)), rng)


def near_cograph(rng: random.Random, n: int) -> Instance:
    """Deep threshold cograph plus one edge that creates an induced P4.

    With union levels ``dv < dx < du`` and a join level ``dd`` between
    ``dv`` and ``dx``, leaves x, d, u, v at those depths give the induced
    path x-d-u-v once the edge uv is added.  Choosing ``du >= dv + 4``
    guarantees such x and d exist.
    """
    levels = threshold_levels(n)
    unions = range(1, len(levels), 2)
    pairs = [(dv, du) for dv in unions for du in unions if du >= dv + 4]
    dv, du = rng.choice(pairs)
    u, v = rng.choice(levels[du]), rng.choice(levels[dv])
    return instance("near", threshold_cotree(levels), rng, extra_edge=(u, v))


class Labels:
    """Hands out consecutive fresh labels while a shape is being built."""

    def __init__(self):
        self.next = 0

    def take(self, count: int) -> list[int]:
        out = list(range(self.next, self.next + count))
        self.next += count
        return out

    def clique(self, count: int) -> tuple:
        return _node("J", [("L", v) for v in self.take(count)])

    def union(self, *parts) -> tuple:
        return _node("U", list(parts))

    def join(self, *parts) -> tuple:
        return _node("J", list(parts))

    def random(self, rng: random.Random, count: int, kind: str) -> tuple:
        return random_cotree(rng, self.take(count), kind)
