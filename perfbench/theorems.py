"""The eight keeping-tree theorems as the benchmark sees them.

For each CLI theorem name: what it deletes, the property the residual must
keep, and the closed-form admission rule (the preconditions plus the
minimum-degree bound).  The benchmark admits an
``embed`` request only when this table says the theorem applies, and a
tight request only when the bound misses by exactly one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from families import Instance

EDGE_MODE = {"th3", "th4", "th5"}


@dataclass(frozen=True)
class Tree:
    """A tree spec as the CLI takes it, with the shape facts the bounds use."""

    spec: str
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges) + 1

    @property
    def max_degree(self) -> int:
        deg = [0] * self.m
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg)

    @property
    def beta(self) -> int:
        """Size of the smaller bipartition class."""
        side = {0: 0}
        todo = [0]
        while todo:
            v = todo.pop()
            for a, b in self.edges:
                for x, y in ((a, b), (b, a)):
                    if x == v and y not in side:
                        side[y] = 1 - side[v]
                        todo.append(y)
        ones = sum(side.values())
        return min(ones, self.m - ones)


def tree(spec: str) -> Tree:
    """Decode ``path:m``, ``star:m`` or ``prufer:a,b,...`` independently."""
    head, _, rest = spec.partition(":")
    if head == "path":
        m = int(rest)
        return Tree(spec, tuple((i, i + 1) for i in range(m - 1)))
    if head == "star":
        m = int(rest)
        return Tree(spec, tuple((0, i) for i in range(1, m)))
    seq = [int(x) for x in rest.split(",") if x]
    m = len(seq) + 2
    degree = [1] * m
    for a in seq:
        degree[a] += 1
    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for a in seq:
        v = heapq.heappop(leaves)
        edges.append((v, a))
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, a)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree(spec, tuple(edges))


def _th1_bound(k: int, m: int, n_prime: int) -> int:
    if n_prime == 1:
        return k + m - (1 if k == 1 else 0)
    if n_prime <= k:
        return k + m - 1 + n_prime // 2
    if n_prime < k + m:
        return (3 * k) // 2 + m - 1
    return k + m - 1


def required_delta(theorem: str, g: Instance, t: Tree, k: int | None) -> int | None:
    """Minimum degree the theorem needs, or None when a precondition other
    than the degree bound fails (the request would be refused for that)."""
    m = t.m
    kappa, delta = g.kappa, g.delta
    if theorem == "th1":
        return _th1_bound(k, m, g.n_prime) if kappa >= k else None
    if theorem == "th2":
        return (3 * kappa + 1) // 2 + m - 1 if g.n_prime >= 2 else None
    if theorem == "maxcon":
        if kappa != delta or (g.n == m and g.n_prime == 1):
            return None
        return m - 1
    if theorem == "th3":
        return k + m - 1 if kappa >= k else None
    if theorem == "th4":
        return kappa + m - 1 if g.n_prime >= 2 else None
    if theorem == "th6":
        return k + m - (1 if k == 1 else 0) if delta >= k else None
    if theorem == "superkeep":
        return m + 2 if g.super_edge_connected else None
    return max(k + t.max_degree + t.beta - 1, m - 1) if delta >= k else None


def preserved(theorem: str, g: Instance, k: int | None) -> tuple[str, int | None]:
    """The property tag the residual must satisfy: (kind, parameter)."""
    return {
        "th1": ("k_connected", k),
        "th2": ("exact_kappa", g.kappa),
        "maxcon": ("maximally_connected", None),
        "th3": ("k_connected", k),
        "th4": ("exact_kappa", g.kappa),
        "th6": ("k_edge_connected", k),
        "superkeep": ("super_edge_connected", None),
        "th5": ("k_edge_connected", k),
    }[theorem]
