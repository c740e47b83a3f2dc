"""Constructive extraction of connectivity-keeping trees in cographs.

All eight ``keep_*`` operations, one per existence theorem, take one path.
:func:`_inputs` reads the input once and admits it: six theorems judge the
:class:`~cographs.embedding.Preserved` tag they keep on its ``analyze``
report, and the two pair theorems (:func:`_disjoint_pair`) ask only for a
connected input.  Admission hands each construction the graph, its
cocomponent nodes (``cotree._top``, primary first) and that report.  The
theorem's exact minimum-degree bound is checked next (no best-effort runs
below it), then the proof's case analysis builds the copy from those nodes
and ``G.vertices`` alone: :func:`_split` is its one cut (a cocomponent and
the join side S), :func:`_first_edge` its one edge search.  It places
trees smallest label first with :func:`_place`, the first placement of
:func:`cographs.embedding._placements`.  Last, :func:`_result` checks the
result twice: as a copy of the tree (injective, tree edges on graph edges, a
pair disjoint), and on its residual, built and recognized once, by two
routes that each decide through :meth:`~cographs.embedding.Preserved.holds`:
the closed-form report of a vertex-deleted residual, and
:class:`cographs.oracle._flow_values` of an edge-deleted one.  The result
carries the residual's report, which ``cograph embed`` prints.  A failed
check, or a failed placement that the theorem guarantees, raises
:class:`~cographs.errors.PostconditionFailedError`: a bug, never bad input.
"""

from __future__ import annotations

from dataclasses import replace

from .analysis import (
    AnalysisReport,
    _is_c4_degrees,
    _primary_isolated,
    analyze,
    as_graph_and_cotree,
)
from .cotree import (
    JOIN,
    UNION,
    Cotree,
    CotreeNode,
    _complete_order,
    _top,
    cotree_from_graph,
    join,
    leaf,
)
from .embedding import (
    DeleteMode,
    DisjointPair,
    Embedding,
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
from .graph import (
    Graph,
    TreeShape,
    delete_vertices,
    induced_subgraph,
)
from .oracle import DEFAULT_CUT_CAP, _flow_values

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
        if not sub.is_connected():  # induced in a tree: connected is a subtree
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
    seen = [T.root()]
    for v in seen:  # the list is its own queue
        seen += [w for w in sorted(T.tree.neighbors(v)) if w not in seen]
    return seen[:size]


def _split(G: Graph, part: CotreeNode) -> tuple[set[int], list[int]]:
    """The cut every construction starts from: (labels of ``part``, the
    other vertices of G in ascending order)."""
    inside = set(part.labels())
    return inside, [v for v in G.vertices if v not in inside]


def _first_edge(G: Graph, S) -> tuple[int, int] | None:
    """The smallest edge ``(u, v)``, ``u < v``, with both ends in ``S``."""
    S = set(S)
    for u in sorted(S):
        later = [v for v in G.neighbors(u) & S if v > u]
        if later:
            return u, min(later)
    return None


def _inputs(G: Graph | Cotree, k: int = 1, trees: tuple[TreeShape, ...] = (),
            tag=None) -> tuple[Graph, tuple[CotreeNode, ...], AnalysisReport]:
    """Argument checks shared by the ``keep_*`` operations, then the graph,
    its cocomponent nodes (primary first) and its
    :func:`~cographs.analysis.analyze` report, which must have the property
    ``tag`` when one is given."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if len({T.order for T in trees}) > 1:
        raise ValueError("both trees must have the same order")
    G, ct = as_graph_and_cotree(G)
    report = analyze(ct)
    if tag is not None and not tag.holds(report.to_dict().__getitem__):
        error, text = {
            "k_connected": (NotKConnectedError, f"{tag.k}-connected"),
            "k_edge_connected": (NotKEdgeConnectedError, f"{tag.k}-edge-connected"),
            "maximally_connected": (NotMaximallyConnectedError, "maximally connected"),
            "super_edge_connected": (NotSuperError, "super edge-connected"),
        }[tag.kind]
        raise error(f"input is not {text}")
    return G, _top(ct.root, JOIN), report


def _delta_at_least(report: AnalysisReport, bound: int, case: str | None = None,
                    formula: str = "", error=BoundViolatedError) -> int:
    """delta of the cograph, after checking it against a theorem's bound."""
    delta = report.delta
    if delta < bound:
        need = f"case {case} needs" if case else "need"
        message = f"{need} delta >= {formula}{bound}, got {delta}"
        if error is BoundViolatedError:
            raise BoundViolatedError(message, required_delta=bound, case=case)
        raise error(message)
    return delta


def _verified(G: Graph, *embeddings: Embedding,
              oracle_max_n: int = 0) -> Embedding | DisjointPair:
    """The result made of ``embeddings`` (one, or a disjoint pair), checked
    and carrying its ``residual_report``.

    Each embedding must be a copy of its tree in G.  The residual is built
    and recognized once.  ``Preserved.holds`` judges the ``analyze`` report
    of a vertex-deleted residual (closed form) and the ``_flow_values`` of
    an edge-deleted one or any up to ``oracle_max_n`` vertices (oracle; flow
    when the residual is not a cograph, whose report they then fill).
    """
    head = embeddings[0]
    try:
        for emb in embeddings:
            emb.check(G)
        result = DisjointPair(*embeddings) if len(embeddings) == 2 else head
    except ValueError as exc:
        raise PostconditionFailedError(
            f"result is not a copy of the tree: {exc}") from exc
    prop = head.preserved
    residual = result.residual(G)
    values = _flow_values(residual)
    rct = cotree_from_graph(residual).cotree
    if rct is None:
        report = {"cograph": False, **{key: values[key] for key in
                                       ("n", "delta", "kappa", "lambda")}}
    else:
        report = {"cograph": True, **analyze(rct).to_dict()}
    if head.mode is DeleteMode.VERTEX:
        _require(prop.holds(report.__getitem__),
                 f"residual is not {prop.tag()} (closed form)")
    if head.mode is DeleteMode.EDGE or residual.n <= oracle_max_n:
        route = "flow" if rct is None else "oracle"
        _require(prop.holds(values.__getitem__),
                 f"residual is not {prop.tag()} ({route})")
    return replace(result, residual_report=report)


def _result(G: Graph, mode: DeleteMode, tag, *placed: tuple[TreeShape, dict],
            oracle_max_n: int = 0) -> Embedding | DisjointPair:
    """:func:`_verified` result of one or two ``(tree, mapping)`` items."""
    return _verified(G, *(Embedding.from_mapping(T, mapping, mode, tag)
                          for T, mapping in placed), oracle_max_n=oracle_max_n)


def _place(G: Graph, T: TreeShape, allowed,
           partial: dict[int, int] | None = None) -> dict[int, int]:
    """:func:`_embed_mapping` inside a construction; the theorem guarantees it."""
    try:
        return _embed_mapping(G, T, allowed, partial)
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


def _keep_vertex_connectivity_mapping(G: Graph, parts: tuple[CotreeNode, ...],
                                      T: TreeShape, k: int) -> dict[int, int]:
    """Case construction shared by the vertex-deletion keeping theorems.

    Preconditions (k-connectivity and the case bound) are the caller's job.
    """
    m = T.order
    g1, s = _split(G, parts[0])
    n_prime = len(g1)
    case, _ = keep_vertex_connectivity_bound(k, m, n_prime)

    if case == "complete":
        mapping = _place(G, T, G.vertices)
    elif case == "small_primary":
        _require(len(s) >= k + m, "join side too small for the small-primary case")
        mapping = _place(G, T, s)
    else:
        partial = {}
        if case == "medium_primary":
            p = n_prime - k
            _require(len(s) >= k + m - p, "join side too small for the medium case")
            partial = _place(G, _subtree_shape(T, _bfs_prefix(T, m - p)), s)
        # keep the first k unused join-side vertices, then place the rest
        protected = [v for v in s if v not in partial.values()][:k]
        mapping = _place(G, T, set(G.vertices) - set(protected), partial)

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
    tag = k_connected(k)
    G, parts, report = _inputs(G, k, tag=tag)
    case, bound = keep_vertex_connectivity_bound(k, T.order, report.n_prime)
    _delta_at_least(report, bound, case=case)
    mapping = _keep_vertex_connectivity_mapping(G, parts, T, k)
    return _result(G, DeleteMode.VERTEX, tag, (T, mapping))


def keep_vertex_connectivity_two(G: Graph | Cotree, T1: TreeShape,
                                 T2: TreeShape) -> DisjointPair:
    """Two disjoint subtree copies whose joint deletion keeps kappa exact.

    Requires a connected cograph with delta >= ceil(3 kappa / 2) + m - 1.
    """
    return _disjoint_pair(G, T1, T2, DeleteMode.VERTEX)


def _disjoint_pair(G: Graph | Cotree, T1: TreeShape, T2: TreeShape,
                   mode: DeleteMode) -> DisjointPair:
    """Both pair theorems: T1 and T2 go into the first two components of the
    primary cocomponent, which keep ceil(kappa / 2) spare vertices each under
    vertex deletion; single-vertex trees for edge deletion take the two
    smallest labels."""
    G, parts, report = _inputs(G, trees=(T1, T2))
    m, kappa = T1.order, report.kappa
    vertex = mode is DeleteMode.VERTEX
    if not report.connected:
        raise BoundViolatedError("a connected cograph is required")
    spare = (kappa + 1) // 2 if vertex else 0
    _delta_at_least(report, kappa + spare + m - 1,
                    formula="ceil(3 kappa / 2) + m - 1 = " if vertex else "")
    if G.n == 1:  # K1 meets both bounds with m = 1
        raise BoundViolatedError(
            "complete graph cannot host two disjoint keeping trees" if vertex
            else "two disjoint trees need at least two vertices")
    if m == 1 and not vertex:
        hosts = [G.vertices[:1], G.vertices[1:2]]
    else:
        _require(parts[0].order >= 2,
                 "bound forces a disconnected primary cocomponent")
        hosts = [c.labels() for c in _top(parts[0], UNION)[:2]]
    maps = [_place(G, T, host) for T, host in zip((T1, T2), hosts)]
    _require(all(len(host) - m >= spare for host in hosts),
             "components do not retain ceil(kappa/2) vertices")
    return _result(G, mode, exact_kappa(kappa), *zip((T1, T2), maps))


# -- maximal connectedness keeping tree ---------------------------------------------

def keep_maximal_connectedness(G: Graph | Cotree, T: TreeShape) -> Embedding:
    """Subtree copy whose deletion leaves the cograph maximally connected.

    Requires a maximally connected cograph other than K_m with
    delta >= m - 1.  The construction shields one isolated vertex of a
    primary cocomponent and re-establishes a primary cocomponent around it.
    """
    tag = maximally_connected()
    G, parts, report = _inputs(G, tag=tag)
    m = T.order
    if G.n == m and report.n_prime == 1:
        raise IsKmError(f"input is the complete graph K_{m}")
    delta = _delta_at_least(report, m - 1, error=DegreeTooLowError)

    isolated = _primary_isolated(parts)
    _require(bool(isolated), "no primary cocomponent has an isolated vertex")
    x, idx = min(isolated)
    g1, s = _split(G, parts[idx])
    kappa = report.kappa
    _require(len(s) == kappa == delta, "maximally connected bookkeeping failed")
    k = delta - (m - 1)

    if kappa == 0:  # delta = 0 forces m = 1
        mapping = {T.tree.vertices[0]: min(v for v in G.vertices if v != x)}
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
            mapping = _place(G, T, s)
        else:
            others = parts[:idx] + parts[idx + 1:]
            mapping = _keep_maximal_balanced(G, T, x, g1, s, others, k, p, q)

    _require(x not in mapping.values(), "the shielded isolated vertex was deleted")
    return _result(G, DeleteMode.VERTEX, tag, (T, mapping))


def _keep_maximal_balanced(G: Graph, T: TreeShape, x: int, g1: set[int],
                           s: list[int], others: tuple[CotreeNode, ...],
                           k: int, p: int, q: int) -> dict[int, int]:
    """The balanced-bipartition case (1 <= p <= m-2, q < m-p-1)."""
    m = T.order
    v1, v2 = T.bipartition
    r = (m - p - q - 1 + 1) // 2  # ceil
    _require(m - 1 == p + q + 2 * r - (1 if p % 2 == 0 else 0),
             "order bookkeeping failed")
    _require(len(v1) == q + r + (p + 1) // 2 and len(v2) == r + (p + 1) // 2,
             "bipartition bookkeeping failed")
    _require(len(others) >= 2, "need at least three cocomponents here")
    second = others[0]

    if second.order >= len(v2):
        # the second cocomponent alone hosts the smaller class
        labels2 = set(second.labels())
        s2 = sorted(labels2)[:len(v2)]
        outside = [v for v in s if v not in labels2]
        _require(len(outside) >= q + r, "not enough room outside the second part")
        s11 = outside[:q + r]
        _require(len(g1) - 1 >= (p + 1) // 2, "primary cocomponent too small")
        s12 = sorted(g1 - {x})[:(p + 1) // 2]
        return _across_mapping(T, s12 + s11, s2, G)

    # group even-indexed cocomponents until they cover the smaller class
    evens = others[0::2]
    prefix_parts: list[CotreeNode] = []
    covered = 0
    chosen = None
    for part in evens:
        if covered + part.order >= len(v2):
            chosen = part
            break
        prefix_parts.append(part)
        covered += part.order
    _require(chosen is not None,
             "no prefix of alternate cocomponents covers the smaller class")
    prefix_labels = sorted(v for part in prefix_parts for v in part.labels())
    s2_set = set(prefix_labels) | set(chosen.labels())
    s1 = [v for v in s if v not in s2_set]

    if len(s1) >= len(v1):
        return _across_mapping(T, s1[:len(v1)], sorted(s2_set)[:len(v2)], G)

    ell1 = len(v1) - len(s1)
    ell2 = len(v2) - covered
    _require(ell1 > 0 and ell2 > 0, "overlap sizes must be positive")
    _require(ell1 + ell2 == chosen.order - k + 1, "overlap identity failed")
    _require(max(ell1, ell2) <= chosen.order, "overlap exceeds the chosen part")
    # the larger overlap comes from the chosen part, the smaller from G1 - x
    _require(len(g1) - 1 >= min(ell1, ell2), "primary cocomponent too small")
    big = sorted(chosen.labels())[:max(ell1, ell2)]
    small = sorted(g1 - {x})[:min(ell1, ell2)]
    if ell2 >= ell1:
        return _across_mapping(T, s1 + small, prefix_labels + big, G)
    return _across_mapping(T, s1 + big, prefix_labels + small, G)


# -- connectivity keeping tree, edge deletion -----------------------------------------

def keep_connectivity_edge_delete(G: Graph | Cotree, T: TreeShape,
                                  k: int) -> Embedding:
    """Subtree copy whose edge deletion leaves G k-connected.

    Requires a k-connected cograph with delta >= k + m - 1.
    """
    tag = k_connected(k)
    G, parts, report = _inputs(G, k, tag=tag)
    _delta_at_least(report, k + T.order - 1)
    _, s = _split(G, parts[0])
    mapping = _place(G, T, set(G.vertices) - set(s[:k]))
    return _result(G, DeleteMode.EDGE, tag, (T, mapping))


def keep_connectivity_edge_delete_two(G: Graph | Cotree, T1: TreeShape,
                                      T2: TreeShape) -> DisjointPair:
    """Two disjoint subtree copies whose edge deletion keeps kappa exact.

    Requires a connected cograph with delta >= kappa + m - 1.
    """
    return _disjoint_pair(G, T1, T2, DeleteMode.EDGE)


# -- edge connectivity keeping tree, vertex deletion ------------------------------------

def keep_edge_connectivity_vertex_delete(G: Graph | Cotree, T: TreeShape,
                                         k: int) -> Embedding:
    """Subtree copy whose vertex deletion leaves G k-edge-connected.

    Requires a k-edge-connected cograph with delta >= k + m - [k = 1].
    For k = 1 this is the connectivity construction; for larger k the
    residual stays connected and connected cographs are maximally
    edge-connected.
    """
    tag = k_edge_connected(k)
    G, parts, report = _inputs(G, k, tag=tag)
    _delta_at_least(report, k + T.order - (1 if k == 1 else 0))
    mapping = _keep_vertex_connectivity_mapping(G, parts, T, 1)
    return _result(G, DeleteMode.VERTEX, tag, (T, mapping), oracle_max_n=G.n)


# -- super edge-connectedness keeping tree ------------------------------------------------

def keep_super_edge_connectivity(G: Graph | Cotree, T: TreeShape) -> Embedding:
    """Subtree copy whose vertex deletion keeps G super edge-connected.

    Requires a super edge-connected cograph with delta >= m + 2.
    """
    tag = super_edge_connected()
    G, parts, report = _inputs(G, tag=tag)
    _delta_at_least(report, T.order + 2)
    g1, s = _split(G, parts[0])

    if len(s) >= 2:
        mapping = _keep_vertex_connectivity_mapping(G, parts, T, 2)
        image = set(mapping.values())
        if _is_c4_degrees({v: len(G.neighbors(v) - image)
                           for v in G.vertices if v not in image}):
            # swap one leaf into the primary cocomponent to kill the C4
            _require(not (image & g1),
                     "a C4 residual forces the tree outside the primary part")
            mapping[T.root()] = min(g1 - image)
    else:
        mapping = _super_single_join_vertex(G, T, parts[0])

    return _result(G, DeleteMode.VERTEX, tag, (T, mapping),
                   oracle_max_n=DEFAULT_CUT_CAP)


def _super_single_join_vertex(G: Graph, T: TreeShape,
                              H: CotreeNode) -> dict[int, int]:
    """The G = H + K1 case: embed inside a non-complete component of H so
    that its residual stays connected but not complete."""
    m = T.order
    non_complete = [c for c in _top(H, UNION) if _complete_order(c) is None]
    _require(bool(non_complete),
             "a super cograph H + K1 must have a non-complete component")
    target = non_complete[0]
    tlabels = set(target.labels())
    prim = _top(target, JOIN)[0]
    prim_labels = set(prim.labels())
    sp = sorted(tlabels - prim_labels)
    prim_comps = _top(prim, UNION)
    _require(len(prim_comps) >= 2, "primary part of the component is connected")
    x1 = prim_comps[0].min_label
    y1 = prim_comps[1].min_label

    if m == 1:
        t_root = T.tree.vertices[0]
        if len(sp) >= 2:
            return {t_root: sp[0]}
        big = next(c for c in prim_comps if c.order >= 2)
        return {t_root: big.min_label}

    leaf_t = T.root()
    (support_t,) = T.tree.neighbors(leaf_t)
    sp_edge = _first_edge(G, sp)
    prim_edge = _first_edge(G, prim_labels)

    if sp_edge:
        w_img, z_img = sp_edge
        protected = {x1, y1}
        swap_pool = prim_labels
    elif len(sp) >= 2 and prim_edge:
        w_img, z_img = prim_edge
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
        host = set(prim_comps[0].labels())
        mapping = _place(G, T, host)
        _require(len(host - set(mapping.values())) >= 1,
                 "no spare vertex left in the host component")
        return mapping

    partial = {support_t: w_img, leaf_t: z_img}
    allowed = tlabels - protected
    mapping = _place(G, T, allowed, partial)
    image = set(mapping.values())
    edge_side = set(sp) if sp_edge else prim_labels
    if not (edge_side - image):
        spare = sorted(swap_pool - image - protected)
        _require(bool(spare), "no spare vertex for the leaf swap")
        mapping[leaf_t] = spare[0]
    return mapping


# -- edge connectivity keeping tree, edge deletion ---------------------------------------

def _smallest_cross_tree_edge(T: TreeShape) -> tuple[int, int]:
    """Smallest tree edge ordered (larger-class endpoint, smaller-class)."""
    v1 = set(T.bipartition[0])
    u, v = min(T.tree.edges)
    return (u, v) if u in v1 else (v, u)


def _class_image(T: TreeShape, mapping: dict[int, int]) -> set[int]:
    """Image of the smaller bipartition class."""
    return {mapping[t] for t in T.bipartition[1]}


def _keep_edge_conn_mapping(G: Graph, parts: tuple[CotreeNode, ...],
                            T: TreeShape) -> dict[int, int]:
    """Construction for the edge-deletion keeping theorem; the single-join
    case starts over on a smaller graph with the same tree."""
    while True:
        mapping = _place(G, T, G.vertices)
        v2_img = _class_image(T, mapping)
        if delete_vertices(G, v2_img).is_connected():
            return mapping

        # the smaller class swallowed everything outside one cocomponent
        host = next((part for part in parts
                     if set(_split(G, part)[1]) <= v2_img), None)
        _require(host is not None and host.order >= 2,
                 "disconnection without a swallowing cocomponent")
        g1, s = _split(G, host)

        edge = _first_edge(G, s)
        if edge:
            a_t, b_t = _smallest_cross_tree_edge(T)
            u, v = edge
            mapping = _place(G, T, G.vertices, {a_t: u, b_t: v})
            _require(delete_vertices(G, _class_image(T, mapping)).is_connected(),
                     "re-rooted embedding still disconnects the graph")
            return mapping

        if len(s) >= 2:
            leaf_t = T.root()
            (support_t,) = T.tree.neighbors(leaf_t)
            w, z = s[0], s[1]
            rest = _subtree_shape(T, [t for t in T.tree.vertices if t != leaf_t])
            mapping = _place(G, rest, set(G.vertices) - {w}, {support_t: z})
            spare = sorted(g1 - set(mapping.values()))
            _require(bool(spare), "no room to finish the tree inside the primary part")
            mapping[leaf_t] = spare[0]
            v2_img = _class_image(T, mapping)
            _require(not (g1 <= v2_img), "the smaller class swallowed the primary part")
            _require(delete_vertices(G, v2_img).is_connected(),
                     "spare-vertex embedding still disconnects the graph")
            return mapping

        # single join vertex: start over on one component plus the hub
        w = s[0]
        comp = _top(host, UNION)[0]
        sub = induced_subgraph(G, set(comp.labels()) | {w})
        _require(sub.min_degree() >= G.min_degree(),
                 "recursion lost the degree bound")
        G, parts = sub, join([comp, leaf(w)]).children


def keep_edge_connectivity_edge_delete(G: Graph | Cotree, T: TreeShape,
                                       k: int) -> Embedding:
    """Subtree copy whose edge deletion leaves G k-edge-connected.

    Requires a k-edge-connected cograph with
    delta >= max(k + Delta(T) + beta(T) - 1, m - 1); this is never larger
    than k + m - 1.
    """
    tag = k_edge_connected(k)
    G, parts, report = _inputs(G, k, tag=tag)
    _delta_at_least(report, max(k + T.max_degree + T.beta - 1, T.order - 1))
    mapping = _keep_edge_conn_mapping(G, parts, T)
    return _result(G, DeleteMode.EDGE, tag, (T, mapping))
