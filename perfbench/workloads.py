"""The three seeded workloads, built as rounds of requests.

A round has a fixed composition: the same families, the same orders and,
for ``embed``, the same theorems, on every seed and in every round.  The
orders are spread over each family's range.  The seed picks the graphs'
structure, their labels, the trees and the order inside each round, so no
input repeats, while a run that measures whole rounds measures the same mix
whatever its length or seed.

Why each workload exists:

- ``analyze-mix``: recognition plus the closed-form report, today
  dominated by the O(|E|^2) ideal-connectedness scan, with one-P4
  near-cographs on the reject path; flow does nothing.  No input repeats
  within the pool.
- ``embed-all``: the only workload that runs the keeping-tree
  constructions, their postconditions and the residual report.  Each graph
  serves several theorem requests; about 5% are tight refusals.
- ``verify-small``: many tiny max-flow networks and the minimum-cut
  enumeration of the oracle, as in the acceptance suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import families as F
import theorems as TH


@dataclass(frozen=True)
class Request:
    """One ``cli.main`` call: argv, the edge list on stdin, and what to expect."""

    argv: tuple[str, ...]
    graph: F.Instance
    expect_exit: int
    theorem: str | None = None
    k: int | None = None
    trees: tuple[TH.Tree, ...] = field(default=())

    @property
    def verb(self) -> str:
        return self.argv[0]


def _free_of_2k2(root) -> bool:
    """A cograph has an induced 2K2 iff some union node has two non-leaf
    children."""
    stack = [root]
    while stack:
        x = stack.pop()
        if x[0] == "L":
            continue
        if x[0] == "U" and sum(1 for c in x[1] if c[0] != "L") >= 2:
            return False
        stack.extend(x[1])
    return True


def _random_with(rng: random.Random, n: int, free: bool) -> F.Instance:
    """Random connected cotree on n vertices, redrawn until its 2K2-freeness
    matches ``free`` (about half of the draws match either way)."""
    while True:
        root = F.random_cotree(rng, list(range(n)), "J")
        if _free_of_2k2(root) == free:
            return F.instance("random", root, rng)


# -- analyze-mix -----------------------------------------------------------------------

def analyze_round(rng, r):
    """Random cographs come with and without an induced 2K2 (about the
    natural ratio), because the ideal scan stops early only when it finds
    one.  Two threshold slots share an order near the median cost and three
    share the largest, above every other request, so the median and the
    tail (the 11th-largest of about 100) each land inside a cluster whose
    cost depends on n alone."""
    reqs = [Request(("analyze", "-"), F.deep_threshold(rng, n), 0)
            for n in (45, 60, 60, 90, 90, 90)]
    reqs += [Request(("analyze", "-"), _random_with(rng, n, True), 0)
             for n in (50, 60)]
    # the scan's early exit makes these costs heavy-tailed, so they stay
    # small enough not to set the cost of a whole round
    reqs += [Request(("analyze", "-"), _random_with(rng, n, False), 0)
             for n in (45, 55, 65)]
    reqs.append(Request(("analyze", "-"), F.near_cograph(rng, 35), 3))
    return reqs


# -- embed-all --------------------------------------------------------------------------

# One round: every theorem, each k-theorem once per k, then one tight refusal.
EMBED_SLOTS = (
    [("th1", k) for k in (1, 2, 3)] + [("th3", k) for k in (1, 2, 3)]
    + [("th6", k) for k in (1, 2, 3)] + [("th5", k) for k in (1, 2, 3)]
    + [("th2", None)] * 2 + [("th4", None)] * 2 + [("maxcon", None)] * 2
    + [("superkeep", None)]
)
TIGHT_KINDS = ("th1case4", "th2tight", "maxedgekeeptight", "superkeeptight")


def _random_tree_spec(rng: random.Random, m: int) -> str:
    kind = rng.choice(("path", "star", "prufer") if m >= 3 else ("path", "star"))
    if kind == "prufer":
        return "prufer:" + ",".join(str(rng.randrange(m)) for _ in range(m - 2))
    return f"{kind}:{m}"


def _split_primary(rng: random.Random, n: int) -> F.Instance:
    """(A | B) + C with dense random A and B: the primary cocomponent is
    disconnected, which the two-tree theorems need."""
    lab = F.Labels()
    c = rng.randint(2, 6)
    a = (n - c) // 2
    A = lab.random(rng, a, "J")
    B = lab.random(rng, n - c - a, "J")
    C = lab.random(rng, c, "J")
    return F.instance("split", lab.join(lab.union(A, B), C), rng)


def _embed_request(g: F.Instance, theorem: str, k, trees) -> Request:
    argv = ["embed", "-", "--theorem", theorem, "--tree", trees[0].spec]
    if len(trees) == 2:
        argv += ["--tree2", trees[1].spec]
    if k is not None:
        argv += ["-k", str(k)]
    expect = 0 if g.delta >= TH.required_delta(theorem, g, trees[0], k) else 3
    return Request(tuple(argv), g, expect, theorem, k, tuple(trees))


def _admit(rng, g: F.Instance, theorem: str, k) -> Request | None:
    """A request for ``theorem`` on ``g`` with a tree that meets the bound."""
    for _ in range(12):
        m = rng.randint(2, 5)
        t = TH.tree(_random_tree_spec(rng, m))
        need = TH.required_delta(theorem, g, t, k)
        if need is None or g.delta < need:
            continue
        trees = [t]
        if theorem in ("th2", "th4") and rng.random() < 0.5:
            trees.append(TH.tree(_random_tree_spec(rng, m)))
        return _embed_request(g, theorem, k, trees)
    return None


def _tight(rng: random.Random, r: int) -> Request:
    """A boundary example one below its theorem's bound (expects exit 3)."""
    kind = TIGHT_KINDS[r % len(TIGHT_KINDS)]
    lab = F.Labels()
    if kind == "th1case4":
        m = rng.randint(2, 5)
        k = rng.randint(1, 2 * m - 3)
        shape = lab.join(lab.union(*(lab.clique(m - 1) for _ in range(3))),
                         *(lab.clique(1) for _ in range(k)))
        theorem = "th1"
    elif kind == "th2tight":
        k = rng.choice((3, 5, 7))
        m = rng.randint(1, k // 2)
        big = k // 2 + m
        shape = lab.join(lab.union(lab.clique(big), lab.clique(big)),
                         lab.union(lab.clique(k // 2), lab.clique((k + 1) // 2)))
        theorem, k = "th2", None
    elif kind == "maxedgekeeptight":
        m = rng.randint(2, 5)
        shape = lab.join(lab.union(*(lab.clique(m - 1) for _ in range(3))),
                         lab.clique(1))
        theorem, k = "th6", 1
    else:
        m = rng.choice((2, 4))
        half = lambda: lab.join(*(lab.union(lab.clique(1), lab.clique(1))
                                  for _ in range(m // 2 + 1)))
        shape = lab.join(lab.union(half(), half()), lab.clique(1))
        theorem, k = "superkeep", None
    g = F.instance("tight", shape, rng)
    t = TH.tree(_random_tree_spec(rng, m))
    return _embed_request(g, theorem, k, [t])


def embed_round(rng, r):
    """Each graph serves two or three theorem requests: enough sharing to
    leave recognition work to save, and enough graphs that one dense or
    sparse draw does not set the cost of the whole round."""
    graphs = [F.random_connected(rng, n) for n in (20, 24, 28, 32, 36, 40)]
    splits = [_split_primary(rng, n) for n in (26, 34)]
    reqs = []
    for i, (theorem, k) in enumerate(EMBED_SLOTS):
        req = None
        while req is None:
            if theorem in ("th2", "th4"):
                req = _admit(rng, splits[i % 2], theorem, k)
                if req is None:
                    splits[i % 2] = _split_primary(rng, splits[i % 2].n)
            elif theorem == "superkeep":
                # the residual check enumerates cuts, so keep it at <= 16
                m = rng.randint(2, 5)
                g = F.random_connected(rng, 16 + m)
                t = TH.tree(_random_tree_spec(rng, m))
                need = TH.required_delta(theorem, g, t, k)
                if need is not None and g.delta >= need:
                    req = _embed_request(g, theorem, k, [t])
            else:
                g = graphs[i % len(graphs)]
                req = _admit(rng, g, theorem, k)
                if req is None:
                    graphs[i % len(graphs)] = F.random_connected(rng, g.n)
        reqs.append(req)
    reqs.append(_tight(rng, r))
    return reqs


# -- verify-small -------------------------------------------------------------------------

def verify_round(rng, r):
    reqs = []
    for n in range(8, 17):
        g = (F.deep_threshold(rng, n) if (n + r) % 4 == 0
             else F.random_connected(rng, n))
        reqs.append(Request(("verify", "-"), g, 0))
    return reqs


@dataclass(frozen=True)
class Workload:
    name: str
    build_round: object
    pool_rounds: int      # distinct rounds generated at set-up
    trace_rounds: int     # rounds the traced run replays, a fixed prefix


WORKLOADS = {w.name: w for w in (
    Workload("analyze-mix", analyze_round, 12, 2),
    Workload("embed-all", embed_round, 32, 4),
    Workload("verify-small", verify_round, 40, 8),
)}


def build(workload: Workload, seed: int) -> list[list[Request]]:
    """The workload's rounds for ``seed``: same seed, same requests."""
    rng = random.Random(f"{workload.name}/{seed}")
    rounds = []
    for r in range(workload.pool_rounds):
        reqs = workload.build_round(rng, r)
        rng.shuffle(reqs)
        rounds.append(reqs)
    return rounds
