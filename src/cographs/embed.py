"""Constructive extraction of connectivity-keeping trees in cographs.

Each public ``keep_*`` operation realizes one existence theorem: it checks
the theorem's exact minimum-degree bound (never attempting best-effort runs
below it), builds the subtree copy along the proof's case analysis with all
choices smallest-label-first (placements come from the shared search
:func:`cographs.embedding._placements`), and checks every result twice
before returning it: as a copy of the tree (injective, every tree edge on a
graph edge), and on its residual through an independent path (cotree
recomputation for cograph residuals, the flow oracle for edge-deleted
residuals).  A failed check raises
:class:`~cographs.errors.PostconditionFailedError`, which
signals an implementation bug, never bad input.
"""

from __future__ import annotations

from collections import deque

from .analysis import (
    _delta,
    _is_c4_degrees,
    as_cotree,
    as_graph_and_cotree,
    is_connected_cograph,
    is_k_connected_cograph,
    is_k_edge_connected_cograph,
    is_maximally_connected,
    is_super_edge_connected,
    kappa_cograph,
)
from .cotree import LEAF, UNION, Cotree, _complete_order, cocomponents, components
from .embedding import (
    DeleteMode,
    DisjointPair,
    Embedding,
    Preserved,
    _placements,
    exact_kappa,
    k_connected,
    k_edge_connected,
    maximally_connected,
    super_edge_connected,
)
from .errors import (
    BoundViolatedError,
    DegreeTooLowError,
    IsKmError,
    MissingCrossEdgeError,
    NotKConnectedError,
    NotKEdgeConnectedError,
    NotMaximallyConnectedError,
    NotSuperError,
    PartTooSmallError,
    PostconditionFailedError,
)
from .graph import Graph, TreeShape, delete_vertices, induced_subgraph
from .oracle import residual_satisfies

__all__ = [
    "greedy_embed",
    "extend_embedding",
    "embed_across",
    "keep_vertex_connectivity",
    "keep_vertex_connectivity_bound",
    "keep_vertex_connectivity_two",
    "keep_maximal_connectedness",
    "keep_connectivity_edge_delete",
    "keep_connectivity_edge_delete_two",
    "keep_edge_connectivity_vertex_delete",
    "keep_super_edge_connectivity",
    "keep_edge_connectivity_edge_delete",
]


def _require(condition: bool, message: str) -> None:
    """Internal invariant; failure means a bug, not bad input."""
    if not condition:
        raise PostconditionFailedError(message)


# -- generic tree placement -----------------------------------------------------

def _embed_mapping(G: Graph, T: TreeShape, allowed,
                   partial: dict[int, int] | None = None) -> dict[int, int]:
    """First placement of :func:`~cographs.embedding._placements`.

    Under the degree preconditions of the callers the first choice always
    works and no backtracking happens; the search is kept complete so that
    tight instances (star into K_{1,3}) still embed when possible.
    """
    allowed = set(allowed)
    if partial:
        dom = set(partial)
        sub = induced_subgraph(T.tree, dom)
        if len(sub.edges) != len(dom) - 1 or not sub.is_connected():
            raise ValueError("partial embedding domain is not a subtree")
        if len(set(partial.values())) != len(partial):
            raise ValueError("partial embedding is not injective")
        for u, v in sub.edges:
            if not G.has_edge(partial[u], partial[v]):
                raise ValueError("partial embedding does not preserve edges")
        for g in partial.values():
            if g not in allowed:
                raise ValueError("partial embedding leaves the allowed set")
    mapping = next(_placements(G, T, allowed, partial), None)
    if mapping is None:
        raise DegreeTooLowError(
            f"no embedding of a {T.order}-vertex tree into the "
            f"{len(allowed)}-vertex allowed set")
    return mapping


def greedy_embed(G: Graph, T: TreeShape, allowed=None) -> Embedding:
    """Embed T inside ``allowed``, processing each vertex after its parent
    and always taking the smallest-label unused neighbor."""
    if allowed is None:
        allowed = G.vertices
    mapping = _embed_mapping(G, T, allowed)
    return Embedding.from_mapping(T, mapping)


def extend_embedding(G: Graph, partial: Embedding | dict[int, int],
                     T: TreeShape, forbidden=()) -> Embedding:
    """Grow a partial embedding of a subtree of T to all of T, avoiding
    ``forbidden``; attachment order is smallest-label-first."""
    if isinstance(partial, Embedding):
        partial = partial.mapping
    allowed = set(G.vertices) - set(forbidden)
    mapping = _embed_mapping(G, T, allowed, partial=partial)
    return Embedding.from_mapping(T, mapping)


def _across_mapping(T: TreeShape, X, Y, G: Graph) -> dict[int, int]:
    v1, v2 = T.bipartition
    X = sorted(X)
    Y = sorted(Y)
    if len(X) < len(v1) or len(Y) < len(v2):
        raise PartTooSmallError(
            f"need sides of sizes >= ({len(v1)}, {len(v2)}), "
            f"got ({len(X)}, {len(Y)})")
    for x in X:
        for y in Y:
            if not G.has_edge(x, y):
                raise MissingCrossEdgeError(f"({x}, {y}) is not an edge")
    mapping = dict(zip(v1, X))
    mapping.update(zip(v2, Y))
    return mapping


def embed_across(T: TreeShape, X, Y, G: Graph) -> Embedding:
    """Place the bipartition classes of T on two fully joined vertex sets."""
    return Embedding.from_mapping(T, _across_mapping(T, X, Y, G))


# -- shared helpers ----------------------------------------------------------------

def _subtree_shape(T: TreeShape, nodes) -> TreeShape:
    return TreeShape.from_graph(induced_subgraph(T.tree, nodes))


def _bfs_prefix(T: TreeShape, size: int) -> list[int]:
    """First ``size`` vertices of a BFS from the fixed root (smallest leaf)."""
    root = T.root()
    seen = [root]
    seen_set = {root}
    queue = deque([root])
    while queue and len(seen) < size:
        v = queue.popleft()
        for w in sorted(T.tree.neighbors(v)):
            if w not in seen_set and len(seen) < size:
                seen.append(w)
                seen_set.add(w)
                queue.append(w)
    return seen


def _split_primary(ct: Cotree) -> tuple[set[int], list[int], list[Cotree]]:
    """(labels of G1, sorted labels of S, all cocomponents, G1 first)."""
    parts = cocomponents(ct)
    g1 = set(parts[0].labels)
    s = sorted(set(ct.labels) - g1)
    return g1, s, parts


def _inputs(G: Graph | Cotree, k: int = 1,
            trees: tuple[TreeShape, ...] = ()) -> tuple[Graph, Cotree]:
    """Argument checks shared by the ``keep_*`` operations, then the graph
    and its cotree."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if len({T.order for T in trees}) > 1:
        raise ValueError("both trees must have the same order")
    return as_graph_and_cotree(G)


def _delta_at_least(ct: Cotree, bound: int, case: str | None = None,
                    formula: str = "", error=BoundViolatedError) -> int:
    """delta of the cograph, after checking it against a theorem's bound."""
    delta = _delta(ct)
    if delta < bound:
        need = f"case {case} needs" if case else "need"
        message = f"{need} delta >= {formula}{bound}, got {delta}"
        if error is BoundViolatedError:
            raise BoundViolatedError(message, required_delta=bound, case=case)
        raise error(message)
    return delta


def _closed_form_holds(rct: Cotree, prop: Preserved) -> bool:
    """The tagged property of a cograph residual, read off its cotree."""
    if prop.kind == "k_connected":
        return is_k_connected_cograph(rct, prop.k)
    if prop.kind == "k_edge_connected":
        return is_k_edge_connected_cograph(rct, prop.k)
    if prop.kind == "exact_kappa":
        return kappa_cograph(rct) == prop.k
    if prop.kind == "maximally_connected":
        return is_maximally_connected(rct)
    if prop.kind == "super_edge_connected":
        return is_super_edge_connected(rct)
    raise ValueError(f"unknown property kind {prop.kind!r}")


def _verified(G: Graph, result: Embedding | DisjointPair,
              oracle_max_n: int = 0) -> Embedding | DisjointPair:
    """Check that ``result`` is a copy of its tree in G, then re-check the
    property it is tagged with on its residual.

    Every embedding (both of a pair) must pass :meth:`Embedding.check`.  A
    vertex-deleted residual is an induced subgraph, hence a cograph: it is
    recognized once and judged by the closed form, and also by the
    flow/cut oracle when it has at most ``oracle_max_n`` vertices.  An
    edge-deleted residual need not be a cograph, so the oracle judges it.
    """
    embeddings = ((result.first, result.second)
                  if isinstance(result, DisjointPair) else (result,))
    for emb in embeddings:
        try:
            emb.check(G)
        except ValueError as exc:
            raise PostconditionFailedError(
                f"result is not a copy of the tree: {exc}") from exc
    head = embeddings[0]
    prop = head.preserved
    residual = result.residual(G)
    if head.mode is DeleteMode.VERTEX:
        _require(_closed_form_holds(as_cotree(residual), prop),
                 f"residual is not {prop.tag()} (closed form)")
        if residual.n > oracle_max_n:
            return result
    _require(residual_satisfies(G, residual, prop),
             f"residual is not {prop.tag()} (oracle)")
    return result


def _try_embed(fn, *args, **kwargs):
    """Run an internal placement that the theorem proves cannot fail."""
    try:
        return fn(*args, **kwargs)
    except DegreeTooLowError as exc:
        raise PostconditionFailedError(
            f"construction lost a guaranteed embedding: {exc}") from exc


# -- connectivity keeping tree, vertex deletion -----------------------------------

def keep_vertex_connectivity_bound(k: int, m: int, n_prime: int) -> tuple[str, int]:
    """Case tag and minimum-degree bound for the vertex-deletion theorem,
    selected by the primary cocomponent order."""
    if n_prime == 1:
        return "complete", k + m - (1 if k == 1 else 0)
    if n_prime <= k:
        return "small_primary", k + m - 1 + n_prime // 2
    if n_prime < k + m:
        return "medium_primary", (3 * k) // 2 + m - 1
    return "large_primary", k + m - 1


def _keep_vertex_connectivity_mapping(G: Graph, ct: Cotree, T: TreeShape,
                                      k: int) -> dict[int, int]:
    """Case construction shared by the vertex-deletion keeping theorems.

    Preconditions (k-connectivity and the case bound) are the caller's job.
    """
    m = T.order
    g1, s, _ = _split_primary(ct)
    n_prime = len(g1)
    case, _ = keep_vertex_connectivity_bound(k, m, n_prime)

    if case == "complete":
        mapping = _try_embed(_embed_mapping, G, T, G.vertices)
    elif case == "small_primary":
        _require(len(s) >= k + m, "join side too small for the small-primary case")
        mapping = _try_embed(_embed_mapping, G, T, s)
    elif case == "medium_primary":
        p = n_prime - k
        _require(len(s) >= k + m - p, "join side too small for the medium case")
        prefix = _bfs_prefix(T, m - p)
        partial = _try_embed(_embed_mapping, G, _subtree_shape(T, prefix), s)
        spare = [v for v in s if v not in set(partial.values())]
        protected = spare[:k]
        allowed = set(G.vertices) - set(protected)
        mapping = _try_embed(_embed_mapping, G, T, allowed, partial=partial)
    else:
        protected = s[:k]
        allowed = set(G.vertices) - set(protected)
        mapping = _try_embed(_embed_mapping, G, T, allowed)

    image = set(mapping.values())
    if case != "complete":
        _require(len(g1 - image) >= min(k, n_prime),
                 "too few survivors in the primary cocomponent")
        _require(len(set(s) - image) >= k, "too few survivors outside it")
    return mapping


def keep_vertex_connectivity(G: Graph | Cotree, T: TreeShape, k: int) -> Embedding:
    """Subtree copy of T whose vertex deletion leaves G k-connected.

    Requires a k-connected cograph meeting the case bound of
    :func:`keep_vertex_connectivity_bound` for its primary cocomponent order.
    """
    G, ct = _inputs(G, k)
    if not is_k_connected_cograph(ct, k):
        raise NotKConnectedError(f"input is not {k}-connected")
    n_prime = cocomponents(ct)[0].n
    case, bound = keep_vertex_connectivity_bound(k, T.order, n_prime)
    _delta_at_least(ct, bound, case=case)
    mapping = _keep_vertex_connectivity_mapping(G, ct, T, k)
    return _verified(G, Embedding.from_mapping(T, mapping, DeleteMode.VERTEX,
                                               k_connected(k)))


def keep_vertex_connectivity_two(G: Graph | Cotree, T1: TreeShape,
                                 T2: TreeShape) -> DisjointPair:
    """Two disjoint subtree copies whose joint deletion keeps kappa exact.

    Requires a connected cograph with delta >= ceil(3 kappa / 2) + m - 1.
    """
    G, ct = _inputs(G, trees=(T1, T2))
    m = T1.order
    if not is_connected_cograph(ct):
        raise BoundViolatedError("a connected cograph is required")
    kappa = kappa_cograph(ct)
    _delta_at_least(ct, (3 * kappa + 1) // 2 + m - 1,
                    formula="ceil(3 kappa / 2) + m - 1 = ")
    g1, _, parts = _split_primary(ct)
    if len(g1) == 1:
        # Only K1 with m = 1 reaches this point; its single vertex cannot
        # host two disjoint trees.
        raise BoundViolatedError(
            "complete graph cannot host two disjoint keeping trees")
    comps = components(parts[0])
    c1, c2 = comps[0], comps[1]
    map1 = _try_embed(_embed_mapping, G, T1, c1.labels)
    map2 = _try_embed(_embed_mapping, G, T2, c2.labels)
    spare = (kappa + 1) // 2
    _require(c1.n - m >= spare and c2.n - m >= spare,
             "components do not retain ceil(kappa/2) vertices")
    emb1 = Embedding.from_mapping(T1, map1, DeleteMode.VERTEX, exact_kappa(kappa))
    emb2 = Embedding.from_mapping(T2, map2, DeleteMode.VERTEX, exact_kappa(kappa))
    return _verified(G, DisjointPair(emb1, emb2))


# -- maximal connectedness keeping tree ---------------------------------------------

def _primary_with_isolated(ct: Cotree) -> tuple[int, list[Cotree]]:
    """Smallest-label isolated vertex over all maximum-order cocomponents,
    plus the cocomponent list reordered so its host comes first."""
    parts = cocomponents(ct)
    top = parts[0].n
    best: tuple[int, int] | None = None
    for i, part in enumerate(parts):
        if part.n != top:
            break
        node = part.root
        if node.kind == LEAF:
            candidates = [node.label]
        elif node.kind == UNION:
            candidates = [c.label for c in node.children if c.kind == LEAF]
        else:
            candidates = []
        for x in candidates:
            if best is None or x < best[0]:
                best = (x, i)
    _require(best is not None, "no primary cocomponent has an isolated vertex")
    x, idx = best
    ordered = [parts[idx]] + parts[:idx] + parts[idx + 1:]
    return x, ordered


def keep_maximal_connectedness(G: Graph | Cotree, T: TreeShape) -> Embedding:
    """Subtree copy whose deletion leaves the cograph maximally connected.

    Requires a maximally connected cograph other than K_m with
    delta >= m - 1.  The construction shields one isolated vertex of a
    primary cocomponent and re-establishes a primary cocomponent around it.
    """
    G, ct = _inputs(G)
    m = T.order
    if not is_maximally_connected(ct):
        raise NotMaximallyConnectedError("input is not maximally connected")
    if ct.n == m and cocomponents(ct)[0].n == 1:
        raise IsKmError(f"input is the complete graph K_{m}")
    delta = _delta_at_least(ct, m - 1, error=DegreeTooLowError)

    x, parts = _primary_with_isolated(ct)
    g1 = set(parts[0].labels)
    s = sorted(set(ct.labels) - g1)
    kappa = kappa_cograph(ct)
    _require(len(s) == kappa == delta, "maximally connected bookkeeping failed")
    k = delta - (m - 1)

    if m == 1:
        t_root = T.tree.vertices[0]
        if kappa == 0:
            target = min(v for v in ct.labels if v != x)
        else:
            target = s[0]
        mapping = {t_root: target}
    else:
        v1, v2 = T.bipartition
        p = len(g1) - k
        q = len(v1) - len(v2)
        if p >= m - 1 or (p >= 1 and q >= m - p - 1):
            # wide primary: smaller class into G1 - x, larger class into S
            _require(len(s) >= len(v1), "join side smaller than |V1|")
            _require(len(g1) - 1 >= len(v2), "primary cocomponent too small")
            X = s[:len(v1)]
            Y = sorted(g1 - {x})[:len(v2)]
            mapping = _across_mapping(T, X, Y, G)
        elif p <= 0:
            mapping = _try_embed(_embed_mapping, G, T, s)
        else:
            mapping = _keep_maximal_balanced(G, T, x, g1, s, parts, k, p, q)

    emb = Embedding.from_mapping(T, mapping, DeleteMode.VERTEX,
                                 maximally_connected())
    _require(x not in emb.image, "the shielded isolated vertex was deleted")
    return _verified(G, emb)


def _keep_maximal_balanced(G: Graph, T: TreeShape, x: int, g1: set[int],
                           s: list[int], parts: list[Cotree], k: int,
                           p: int, q: int) -> dict[int, int]:
    """The balanced-bipartition case (1 <= p <= m-2, q < m-p-1)."""
    m = T.order
    v1, v2 = T.bipartition
    r = (m - p - q - 1 + 1) // 2  # ceil
    _require(m - 1 == p + q + 2 * r - (1 if p % 2 == 0 else 0),
             "order bookkeeping failed")
    _require(len(v1) == q + r + (p + 1) // 2 and len(v2) == r + (p + 1) // 2,
             "bipartition bookkeeping failed")
    others = parts[1:]
    _require(len(others) >= 2, "need at least three cocomponents here")
    second = others[0]

    if second.n >= len(v2):
        # the second cocomponent alone hosts the smaller class
        s2 = sorted(second.labels)[:len(v2)]
        outside = [v for v in s if v not in set(second.labels)]
        _require(len(outside) >= q + r, "not enough room outside the second part")
        s11 = outside[:q + r]
        _require(len(g1) - 1 >= (p + 1) // 2, "primary cocomponent too small")
        s12 = sorted(g1 - {x})[:(p + 1) // 2]
        return _across_mapping(T, s12 + s11, s2, G)

    # group even-indexed cocomponents until they cover the smaller class
    evens = others[0::2]
    prefix_parts: list[Cotree] = []
    covered = 0
    chosen = None
    for part in evens:
        if covered + part.n >= len(v2):
            chosen = part
            break
        prefix_parts.append(part)
        covered += part.n
    _require(chosen is not None,
             "no prefix of alternate cocomponents covers the smaller class")
    s2_set: set[int] = set()
    for part in prefix_parts:
        s2_set |= set(part.labels)
    s2_set |= set(chosen.labels)
    s1 = [v for v in s if v not in s2_set]
    prefix_labels = sorted(set().union(*[set(part.labels)
                                         for part in prefix_parts])
                           if prefix_parts else set())

    if len(s1) >= len(v1):
        return _across_mapping(T, s1[:len(v1)], sorted(s2_set)[:len(v2)], G)

    ell1 = len(v1) - len(s1)
    ell2 = len(v2) - covered
    _require(ell1 > 0 and ell2 > 0, "overlap sizes must be positive")
    _require(ell1 + ell2 == chosen.n - k + 1, "overlap identity failed")
    _require(max(ell1, ell2) <= chosen.n, "overlap exceeds the chosen part")
    if ell2 >= ell1:
        l2 = sorted(chosen.labels)[:ell2]
        _require(len(g1) - 1 >= ell1, "primary cocomponent too small")
        u1 = sorted(g1 - {x})[:ell1]
        return _across_mapping(T, s1 + u1, prefix_labels + l2, G)
    l1 = sorted(chosen.labels)[:ell1]
    _require(len(g1) - 1 >= ell2, "primary cocomponent too small")
    u2 = sorted(g1 - {x})[:ell2]
    return _across_mapping(T, s1 + l1, prefix_labels + u2, G)


# -- connectivity keeping tree, edge deletion -----------------------------------------

def keep_connectivity_edge_delete(G: Graph | Cotree, T: TreeShape,
                                  k: int) -> Embedding:
    """Subtree copy whose edge deletion leaves G k-connected.

    Requires a k-connected cograph with delta >= k + m - 1.
    """
    G, ct = _inputs(G, k)
    if not is_k_connected_cograph(ct, k):
        raise NotKConnectedError(f"input is not {k}-connected")
    _delta_at_least(ct, k + T.order - 1)
    _, s, _ = _split_primary(ct)
    protected = s[:k]
    allowed = set(G.vertices) - set(protected)
    mapping = _try_embed(_embed_mapping, G, T, allowed)
    return _verified(G, Embedding.from_mapping(T, mapping, DeleteMode.EDGE,
                                               k_connected(k)))


def keep_connectivity_edge_delete_two(G: Graph | Cotree, T1: TreeShape,
                                      T2: TreeShape) -> DisjointPair:
    """Two disjoint subtree copies whose edge deletion keeps kappa exact.

    Requires a connected cograph with delta >= kappa + m - 1.
    """
    G, ct = _inputs(G, trees=(T1, T2))
    m = T1.order
    if not is_connected_cograph(ct):
        raise BoundViolatedError("a connected cograph is required")
    kappa = kappa_cograph(ct)
    _delta_at_least(ct, kappa + m - 1)
    if m == 1:
        if ct.n < 2:
            raise BoundViolatedError(
                "two disjoint trees need at least two vertices")
        map1 = {T1.tree.vertices[0]: ct.labels[0]}
        map2 = {T2.tree.vertices[0]: ct.labels[1]}
    else:
        g1, _, parts = _split_primary(ct)
        _require(len(g1) >= 2, "bound forces a disconnected primary cocomponent")
        comps = components(parts[0])
        map1 = _try_embed(_embed_mapping, G, T1, comps[0].labels)
        map2 = _try_embed(_embed_mapping, G, T2, comps[1].labels)
    emb1 = Embedding.from_mapping(T1, map1, DeleteMode.EDGE, exact_kappa(kappa))
    emb2 = Embedding.from_mapping(T2, map2, DeleteMode.EDGE, exact_kappa(kappa))
    return _verified(G, DisjointPair(emb1, emb2))


# -- edge connectivity keeping tree, vertex deletion ------------------------------------

def keep_edge_connectivity_vertex_delete(G: Graph | Cotree, T: TreeShape,
                                         k: int) -> Embedding:
    """Subtree copy whose vertex deletion leaves G k-edge-connected.

    Requires a k-edge-connected cograph with delta >= k + m - [k = 1].
    For k = 1 this is the connectivity construction; for larger k the
    residual stays connected and connected cographs are maximally
    edge-connected.
    """
    G, ct = _inputs(G, k)
    if not is_k_edge_connected_cograph(ct, k):
        raise NotKEdgeConnectedError(f"input is not {k}-edge-connected")
    _delta_at_least(ct, k + T.order - (1 if k == 1 else 0))
    mapping = _keep_vertex_connectivity_mapping(G, ct, T, 1)
    emb = Embedding.from_mapping(T, mapping, DeleteMode.VERTEX,
                                 k_edge_connected(k))
    return _verified(G, emb, oracle_max_n=G.n)


# -- super edge-connectedness keeping tree ------------------------------------------------

_SUPER_BRUTE_CAP = 12


def keep_super_edge_connectivity(G: Graph | Cotree, T: TreeShape) -> Embedding:
    """Subtree copy whose vertex deletion keeps G super edge-connected.

    Requires a super edge-connected cograph with delta >= m + 2.
    """
    G, ct = _inputs(G)
    if not is_super_edge_connected(ct):
        raise NotSuperError("input is not super edge-connected")
    _delta_at_least(ct, T.order + 2)
    g1, s, parts = _split_primary(ct)

    if len(g1) == 1:
        mapping = _try_embed(_embed_mapping, G, T, G.vertices)
    elif len(s) >= 2:
        mapping = _keep_vertex_connectivity_mapping(G, ct, T, 2)
        image = set(mapping.values())
        residual = delete_vertices(G, image)
        if _is_c4_degrees({v: residual.degree(v) for v in residual.vertices}):
            # swap one leaf into the primary cocomponent to kill the C4
            _require(not (image & g1),
                     "a C4 residual forces the tree outside the primary part")
            mapping = dict(mapping)
            mapping[T.root()] = min(g1 - image)
    else:
        mapping = _super_single_join_vertex(G, ct, T, parts)

    emb = Embedding.from_mapping(T, mapping, DeleteMode.VERTEX,
                                 super_edge_connected())
    return _verified(G, emb, oracle_max_n=_SUPER_BRUTE_CAP)


def _super_single_join_vertex(G: Graph, ct: Cotree, T: TreeShape,
                              parts: list[Cotree]) -> dict[int, int]:
    """The G = H + K1 case: embed inside a non-complete component of H so
    that its residual stays connected but not complete."""
    m = T.order
    comps = components(parts[0])
    non_complete = [c for c in comps if _complete_order(c.root) is None]
    _require(bool(non_complete),
             "a super cograph H + K1 must have a non-complete component")
    target = non_complete[0]
    tlabels = set(target.labels)
    prim = cocomponents(target)[0]
    prim_labels = set(prim.labels)
    sp = sorted(tlabels - prim_labels)
    prim_comps = components(prim)
    _require(len(prim_comps) >= 2, "primary part of the component is connected")
    x1 = prim_comps[0].root.min_label
    y1 = prim_comps[1].root.min_label

    if m == 1:
        t_root = T.tree.vertices[0]
        if len(sp) >= 2:
            return {t_root: sp[0]}
        big = next(c for c in prim_comps if c.n >= 2)
        return {t_root: min(big.labels)}

    leaf_t = T.root()
    (support_t,) = T.tree.neighbors(leaf_t)
    sp_edges = sorted((u, v) for u, v in G.edges if u in sp and v in sp)
    prim_edges = sorted((u, v) for u, v in G.edges
                        if u in prim_labels and v in prim_labels)

    if sp_edges:
        w_img, z_img = sp_edges[0]
        protected = {x1, y1}
        swap_pool = prim_labels
    elif len(sp) >= 2 and prim_edges:
        w_img, z_img = prim_edges[0]
        protected = {sp[0], sp[1]}
        swap_pool = set(sp)
    elif len(sp) >= 2:
        # both sides edgeless: the component is complete bipartite
        v1, v2 = T.bipartition
        _require(len(prim_labels) >= len(v1) + 2 and len(sp) >= len(v2) + 2,
                 "bipartite sides too small")
        return _across_mapping(T, sorted(prim_labels)[:len(v1)],
                               sp[:len(v2)], G)
    else:
        # single hub inside the component: embed within one part of prim
        comp0 = prim_comps[0]
        mapping = _try_embed(_embed_mapping, G, T, comp0.labels)
        _require(len(set(comp0.labels) - set(mapping.values())) >= 1,
                 "no spare vertex left in the host component")
        return mapping

    partial = {support_t: w_img, leaf_t: z_img}
    allowed = tlabels - protected
    mapping = _try_embed(_embed_mapping, G, T, allowed, partial=partial)
    image = set(mapping.values())
    edge_side = set(sp) if sp_edges else prim_labels
    if not (edge_side - image):
        spare = sorted(swap_pool - image - protected)
        _require(bool(spare), "no spare vertex for the leaf swap")
        mapping = dict(mapping)
        mapping[leaf_t] = spare[0]
    return mapping


# -- edge connectivity keeping tree, edge deletion ---------------------------------------

def _smallest_cross_tree_edge(T: TreeShape) -> tuple[int, int]:
    """Smallest tree edge ordered (larger-class endpoint, smaller-class)."""
    v1 = set(T.bipartition[0])
    u, v = min(T.tree.edges)
    return (u, v) if u in v1 else (v, u)


def _class_image(T: TreeShape, mapping: dict[int, int], side: int) -> set[int]:
    return {mapping[t] for t in T.bipartition[side]}


def _keep_edge_conn_mapping(G: Graph, ct: Cotree, T: TreeShape,
                            k: int) -> dict[int, int]:
    """Recursive construction for the edge-deletion keeping theorem."""
    m = T.order
    if m == 1:
        return {T.tree.vertices[0]: min(G.vertices)}
    g1, s, parts = _split_primary(ct)
    if len(g1) == 1:
        return _try_embed(_embed_mapping, G, T, G.vertices)

    mapping = _try_embed(_embed_mapping, G, T, G.vertices)
    v2_img = _class_image(T, mapping, 1)
    if delete_vertices(G, v2_img).is_connected():
        return mapping

    # the smaller class swallowed everything outside one cocomponent
    host = None
    for part in parts:
        if set(ct.labels) - set(part.labels) <= v2_img:
            host = part
            break
    _require(host is not None and host.n >= 2,
             "disconnection without a swallowing cocomponent")
    g1 = set(host.labels)
    s = sorted(set(ct.labels) - g1)

    s_edges = sorted((u, v) for u, v in G.edges if u in s and v in s)
    if s_edges:
        a_t, b_t = _smallest_cross_tree_edge(T)
        u, v = s_edges[0]
        partial = {a_t: u, b_t: v}
        mapping = _try_embed(_embed_mapping, G, T, G.vertices, partial=partial)
        _require(delete_vertices(G, _class_image(T, mapping, 1)).is_connected(),
                 "re-rooted embedding still disconnects the graph")
        return mapping

    if len(s) >= 2:
        leaf_t = T.root()
        (support_t,) = T.tree.neighbors(leaf_t)
        w, z = s[0], s[1]
        rest = _subtree_shape(T, [t for t in T.tree.vertices if t != leaf_t])
        partial = _try_embed(_embed_mapping, G, rest,
                             set(G.vertices) - {w}, partial={support_t: z})
        spare = sorted(g1 - set(partial.values()))
        _require(bool(spare), "no room to finish the tree inside the primary part")
        mapping = dict(partial)
        mapping[leaf_t] = spare[0]
        v2_img = _class_image(T, mapping, 1)
        _require(not (g1 <= v2_img), "the smaller class swallowed the primary part")
        _require(delete_vertices(G, v2_img).is_connected(),
                 "spare-vertex embedding still disconnects the graph")
        return mapping

    # single join vertex: recurse into one component plus the hub
    w = s[0]
    comp = components(host)[0]
    sub = induced_subgraph(G, set(comp.labels) | {w})
    sub_ct = as_cotree(sub)
    _require(_delta(sub_ct) >= _delta(ct),
             "recursion lost the degree bound")
    return _keep_edge_conn_mapping(sub, sub_ct, T, k)


def keep_edge_connectivity_edge_delete(G: Graph | Cotree, T: TreeShape,
                                       k: int) -> Embedding:
    """Subtree copy whose edge deletion leaves G k-edge-connected.

    Requires a k-edge-connected cograph with
    delta >= max(k + Delta(T) + beta(T) - 1, m - 1); this is never larger
    than k + m - 1.
    """
    G, ct = _inputs(G, k)
    if not is_k_edge_connected_cograph(ct, k):
        raise NotKEdgeConnectedError(f"input is not {k}-edge-connected")
    _delta_at_least(ct, max(k + T.max_degree + T.beta - 1, T.order - 1))
    mapping = _keep_edge_conn_mapping(G, ct, T, k)
    return _verified(G, Embedding.from_mapping(T, mapping, DeleteMode.EDGE,
                                               k_edge_connected(k)))
