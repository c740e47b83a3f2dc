"""Extremal example constructions plus seeded random cographs and trees.

The tight examples are the minimum-degree-boundary graphs used to certify
that each keeping-tree bound cannot be lowered; their claimed kappa and
delta values are checked against the closed-form analysis at construction
time.  Random cographs come from recursive random composition (deterministic
per seed, not uniform over cographs) and random trees from uniform Pruefer
sequences.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, product

from .analysis import analyze
from .cotree import (
    Cotree,
    CotreeNode,
    format_expression,
    join,
    leaf,
    parse_expression,
    union,
)
from .errors import (
    BadSpecError,
    ParamViolationError,
    PostconditionFailedError,
    TooLargeError,
)
from .graph import _MAX_ORDER, Graph, TreeShape

__all__ = [
    "TIGHT_KINDS",
    "TightExample",
    "tight_example",
    "random_cotree",
    "random_tree",
    "named_tree",
    "enumerate_cotrees",
]

TIGHT_KINDS = (
    "th1case1",
    "th1case2",
    "th1case3",
    "th1case4",
    "th2tight",
    "maxedgekeeptight",
    "superkeeptight",
)

_NEEDS_K = {"th1case1", "th1case2", "th1case3", "th1case4", "th2tight"}


@dataclass(frozen=True)
class TightExample:
    """A boundary construction with the values it is claimed to attain."""

    kind: str
    k: int | None
    m: int
    cotree: Cotree
    claimed: dict[str, int | bool]

    @property
    def expression(self) -> str:
        return format_expression(self.cotree)


def _check(condition: bool, detail: str) -> None:
    if not condition:
        raise ParamViolationError(detail)


def tight_example(kind: str, k: int | None = None, m: int | None = None) -> TightExample:
    """Build one of the boundary graphs; parameters must meet the kind's
    side conditions.  Claimed (kappa, delta) metadata is checked against
    the analysis module before returning; a mismatch raises
    PostconditionFailedError.
    """
    kind = kind.lower()
    if kind not in TIGHT_KINDS:
        raise ParamViolationError(f"unknown tight kind {kind!r}")
    if m is None or m < 1:
        raise ParamViolationError("m must be a positive integer")
    if kind in _NEEDS_K:
        if k is None or k < 1:
            raise ParamViolationError(f"{kind} needs a positive k")
    elif k is not None:
        raise ParamViolationError(f"{kind} takes only m")
    if max(k or 0, m) > _MAX_ORDER:  # every kind has order >= k and >= m
        raise TooLargeError(f"parameters exceed the vertex limit {_MAX_ORDER}")

    if kind == "th1case1":
        order = k + m - (1 if k == 1 else 0)
        expr = f"K{order}"
        claimed = {"kappa": k + m - 1 - (1 if k == 1 else 0),
                   "delta": k + m - 1 - (1 if k == 1 else 0)}
    elif kind == "th1case2":
        _check(k >= 4, "needs k >= 4")
        _check(m < k // 2, "needs m < floor(k/2)")
        half = f"(K{k // 2}|K{(k + 1) // 2})"
        expr = half + "+" + half + "+K1" * ((m + 1) // 2 - 1)
        claimed = {"kappa": k + (m + 1) // 2 - 1,
                   "delta": 3 * k // 2 + (m + 1) // 2 - 2,
                   "n_prime": k}
    elif kind == "th1case3":
        _check(k % 2 == 0, "needs even k")
        _check(m % 4 == 1, "needs m = 1 (mod 4)")
        _check(5 <= m <= 2 * k, "needs 5 <= m <= 2k")
        a = k // 2 + (m - 1) // 4
        expr = f"(K{a}|K{a})+(K{a}|K{a})"
        claimed = {"kappa": k + (m - 1) // 2,
                   "delta": 3 * k // 2 + 3 * (m - 1) // 4 - 1,
                   "n_prime": k + (m - 1) // 2}
    elif kind == "th1case4":
        _check(m >= 2, "needs m >= 2")
        _check(k <= 2 * m - 3, "needs k <= 2m - 3")
        expr = f"(K{m - 1}|K{m - 1}|K{m - 1})" + "+K1" * k
        claimed = {"kappa": k, "delta": k + m - 2, "n_prime": 3 * (m - 1)}
    elif kind == "th2tight":
        _check(k >= 3 and k % 2 == 1, "needs odd k >= 3")
        # the smallest admissible instance has m = floor(k/2); admitting the
        # boundary keeps the k = 3, m = 1 certificate reachable
        _check(m <= k // 2, "needs m <= floor(k/2)")
        big = k // 2 + m
        expr = f"(K{big}|K{big})+(K{k // 2}|K{(k + 1) // 2})"
        claimed = {"kappa": k, "delta": 3 * k // 2 + m - 1}
    elif kind == "maxedgekeeptight":
        _check(m >= 2, "needs m >= 2")
        expr = f"(K{m - 1}|K{m - 1}|K{m - 1})+K1"
        claimed = {"kappa": 1, "delta": m - 1, "lambda": m - 1}
    else:  # superkeeptight
        _check(m >= 2 and m % 2 == 0, "needs even m >= 2")
        half = "+".join(["(K1|K1)"] * (m // 2 + 1))
        expr = f"(({half})|({half}))+K1"
        claimed = {"kappa": 1, "delta": m + 1, "super_edge_connected": True}

    ct = parse_expression(expr)
    report = analyze(ct).to_dict()
    for key, value in claimed.items():
        if report[key] != value:
            raise PostconditionFailedError(
                f"{kind}: claimed {key}={value} but analysis says {report[key]}")
    return TightExample(kind=kind, k=k if kind in _NEEDS_K else None, m=m,
                        cotree=ct, claimed=dict(claimed))


# -- random cographs ---------------------------------------------------------------

def random_cotree(n: int, seed: int, join_bias: float = 0.5) -> Cotree:
    """Random canonical cotree on labels 0..n-1, deterministic per seed.

    The root is a join with probability ``join_bias`` (biasing the sample
    toward connected cographs); below the root, union and join alternate as
    the canonical form requires.  Not uniform over cographs.  ``build``
    recurses once per level, but each level cuts its labels into a uniform
    random number of parts, so the tree stays shallow: depth at most 9 at
    n = 10**5 over 20 seeds, with either bias.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > _MAX_ORDER:
        raise TooLargeError(f"vertex count {n} exceeds the limit {_MAX_ORDER}")
    rng = random.Random(seed)

    def build(labels: list[int], kind: str) -> CotreeNode:
        if len(labels) == 1:
            return leaf(labels[0])
        parts = rng.randint(2, len(labels))
        cuts = sorted(rng.sample(range(1, len(labels)), parts - 1))
        groups = []
        start = 0
        for cut in cuts + [len(labels)]:
            groups.append(labels[start:cut])
            start = cut
        child_kind = "union" if kind == "join" else "join"
        children = [build(g, child_kind) for g in groups]
        return join(children) if kind == "join" else union(children)

    root_kind = "join" if rng.random() < join_bias else "union"
    return Cotree(build(list(range(n)), root_kind))


# -- trees -----------------------------------------------------------------------------

def _prufer_to_edges(seq: list[int], m: int) -> list[tuple[int, int]]:
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
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def random_tree(m: int, seed: int) -> TreeShape:
    """Uniform random labeled tree on 0..m-1 via a Pruefer sequence."""
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return TreeShape.from_graph(Graph([0], []))
    rng = random.Random(seed)
    seq = [rng.randrange(m) for _ in range(m - 2)]
    return TreeShape.from_graph(Graph.from_edges(m, _prufer_to_edges(seq, m)))


def named_tree(spec: str) -> TreeShape:
    """Tree from a specification string.

    Exact forms: ``path:m`` | ``star:m`` | ``prufer:a1,...,a_{m-2}`` |
    ``edges:u-v,...``.
    """
    head, sep, rest = spec.partition(":")
    if not sep:
        raise BadSpecError(f"missing ':' in tree spec {spec!r}")
    try:
        if head in ("path", "star"):
            m = int(rest)
            if m < 1:
                raise BadSpecError(f"{head} needs m >= 1")
            if m > _MAX_ORDER:
                raise TooLargeError(f"tree order {m} exceeds the limit {_MAX_ORDER}")
            if head == "path":
                return TreeShape.from_graph(Graph.path(m))
            return TreeShape.from_graph(
                Graph.from_edges(m, [(0, i) for i in range(1, m)]))
        if head == "prufer":
            seq = [int(x) for x in rest.split(",") if x != ""]
            m = len(seq) + 2
            if any(a < 0 or a >= m for a in seq):
                raise BadSpecError("prufer entries must be in 0..m-1")
            return TreeShape.from_graph(
                Graph.from_edges(m, _prufer_to_edges(seq, m)))
        if head == "edges":
            edges = []
            for chunk in rest.split(","):
                a, sep2, b = chunk.partition("-")
                if not sep2:
                    raise BadSpecError(f"bad edge {chunk!r}")
                edges.append((int(a), int(b)))
            labels = sorted({v for e in edges for v in e})
            return TreeShape.from_graph(Graph(labels, edges))
    except (BadSpecError, TooLargeError):
        raise
    except Exception as exc:  # int() failures, non-tree graphs
        raise BadSpecError(f"bad tree spec {spec!r}: {exc}") from exc
    raise BadSpecError(f"unknown tree kind {head!r}")


# -- exhaustive shape enumeration -------------------------------------------------------

@lru_cache(maxsize=None)
def _shapes(size: int, excluded_root: str) -> tuple:
    """Canonical cotree shapes of the given order whose root is not the
    excluded operator (children of a join are unions or leaves and dually)."""
    if size == 1:
        return (("leaf",),)
    root = "union" if excluded_root == "join" else "join"
    out = []
    for partition in _partitions(size):
        pools = [list(combinations_with_replacement(_shapes(part, root),
                                                    len(list(run))))
                 for part, run in groupby(partition)]  # equal parts adjoin
        for chosen in product(*pools):
            children = tuple(shape for group in chosen for shape in group)
            out.append((root, children))
    return tuple(out)


@lru_cache(maxsize=None)
def _partitions(size: int) -> tuple[tuple[int, ...], ...]:
    """Integer partitions of ``size`` into at least two parts, descending."""
    out = []

    def rec(remaining: int, most: int, acc: list[int]) -> None:
        if remaining == 0:
            if len(acc) >= 2:
                out.append(tuple(acc))
            return
        for part in range(min(most, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(size, size - 1, [])
    return tuple(out)


def _label_shape(shape, counter: list[int]) -> CotreeNode:
    if shape[0] == "leaf":
        node = leaf(counter[0])
        counter[0] += 1
        return node
    kind, children = shape
    built = [_label_shape(c, counter) for c in children]
    return join(built) if kind == "join" else union(built)


def enumerate_cotrees(n: int) -> list[Cotree]:
    """All cographs of order n, one labeled cotree per isomorphism class.

    The shape helpers recurse once per level; they serve orders of about 10
    or less, where the number of shapes, not the depth, is the limit.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return [Cotree(leaf(0))]
    shapes = _shapes(n, "join") + _shapes(n, "union")
    out = []
    for shape in shapes:
        counter = [0]
        out.append(Cotree(_label_shape(shape, counter)))
    return out
