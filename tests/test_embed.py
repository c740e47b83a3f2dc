"""Constructive keeping-tree operations: examples, branches, verification."""

import json
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from conftest import first_mapping_twice, tree_for, two_component_cograph
from test_sweeps import TREES as SWEEP_TREES

import cographs.embed as embed_module
import cographs.oracle as oracle_module
from cographs import (
    Graph,
    delete_edges,
    delete_vertices,
    edge_connectivity_flow,
    embed_across,
    enumerate_cotrees,
    extend_embedding,
    greedy_embed,
    induced_subgraph,
    is_k_connected,
    is_k_edge_connected,
    keep_connectivity_edge_delete,
    keep_connectivity_edge_delete_two,
    keep_edge_connectivity_edge_delete,
    keep_edge_connectivity_vertex_delete,
    keep_maximal_connectedness,
    keep_super_edge_connectivity,
    keep_vertex_connectivity,
    keep_vertex_connectivity_bound,
    keep_vertex_connectivity_two,
    materialize,
    named_tree,
    parse_expression,
    random_cotree,
    vertex_connectivity_flow,
)
from cographs.analysis import analyze, degrees, kappa_cograph
from cographs.cli import _THEOREMS, main
from cographs.cotree import cocomponents, cotree_from_graph
from cographs.embedding import (
    DeleteMode,
    DisjointPair,
    Embedding,
    Preserved,
    _placement_order,
    exact_kappa,
    k_connected,
    k_edge_connected,
    super_edge_connected,
)
from cographs.errors import (
    BoundViolatedError,
    CographError,
    DegreeTooLowError,
    IsKmError,
    MissingCrossEdgeError,
    NotKConnectedError,
    NotKEdgeConnectedError,
    NotMaximallyConnectedError,
    NotSuperError,
    PartTooSmallError,
    PostconditionFailedError,
    WouldBeEmptyError,
)
from cographs.oracle import residual_satisfies


def G_of(expr):
    return materialize(parse_expression(expr))


class TestGreedyEmbed:
    def test_path_in_triangle(self):
        emb = greedy_embed(Graph.complete(3), named_tree("path:3"))
        assert emb.mapping == {0: 0, 1: 1, 2: 2}

    def test_star_into_claw_finds_the_center(self):
        G = G_of("(K1|K1|K1)+K1")
        emb = greedy_embed(G, named_tree("star:4"))
        assert emb.mapping[0] == 3  # the unique degree-3 vertex
        emb.check(G)

    def test_single_vertex(self):
        emb = greedy_embed(Graph.complete(3), named_tree("path:1"), {2})
        assert emb.mapping == {0: 2}

    def test_impossible_raises(self):
        with pytest.raises(DegreeTooLowError):
            greedy_embed(Graph.path(3), named_tree("star:4"))

    def test_determinism(self):
        G = G_of("(K2|K2)+(K1|K1)+K2")
        T = named_tree("path:4")
        assert greedy_embed(G, T).pairs == greedy_embed(G, T).pairs


class TestExtendEmbedding:
    def test_extend_edge_to_path(self):
        G = Graph.complete(5)
        T = named_tree("path:4")
        emb = extend_embedding(G, {0: 0, 1: 1}, T)
        emb.check(G)
        assert emb.mapping[0] == 0 and emb.mapping[1] == 1

    def test_designated_leaf_stays_a_leaf(self):
        G = Graph.complete(6)
        T = named_tree("path:4")
        # map the tree leaf 3 and its support 2 onto a fixed edge
        emb = extend_embedding(G, {3: 5, 2: 4}, T)
        emb.check(G)
        image_leaf = emb.mapping[3]
        used = [e for e in emb.graph_edges() if image_leaf in e]
        assert len(used) == 1

    def test_full_partial_returned_unchanged(self):
        G = Graph.complete(4)
        T = named_tree("path:3")
        emb = extend_embedding(G, {0: 1, 1: 2, 2: 3}, T)
        assert emb.mapping == {0: 1, 1: 2, 2: 3}

    def test_forbidden_respected(self):
        G = Graph.complete(6)
        emb = extend_embedding(G, {0: 0}, named_tree("path:3"), forbidden={1, 2})
        assert not (emb.image & {1, 2})

    def test_rejects_invalid_partial(self):
        G = Graph.complete(4)
        with pytest.raises(ValueError):
            extend_embedding(G, {0: 0, 2: 1}, named_tree("path:3"))

    @pytest.mark.parametrize("partial,forbidden,text", [
        ({0: 1, 1: 1}, (), "partial embedding is not injective"),
        ({0: 0}, {0}, "partial embedding leaves the allowed set"),
    ])
    def test_refused_partial_names_its_fault(self, partial, forbidden, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            extend_embedding(Graph.complete(4), partial, named_tree("path:3"),
                             forbidden=forbidden)

    def test_accepts_embedding_typed_partial(self):
        G = Graph.complete(5)
        T = named_tree("path:4")
        partial = greedy_embed(G, named_tree("path:2"))
        emb = extend_embedding(G, partial, T)
        emb.check(G)
        assert emb.mapping[0] == partial.mapping[0]


class TestRecordRefusals:
    def test_unknown_property_kind(self):
        with pytest.raises(ValueError, match="^unknown property kind 'bogus'$"):
            Preserved("bogus").holds({"n": 3, "kappa": 2}.__getitem__)

    def test_check_needs_the_whole_tree(self):
        emb = Embedding.from_mapping(named_tree("path:3"), {0: 0, 1: 1})
        with pytest.raises(ValueError, match="^embedding does not cover the whole tree$"):
            emb.check(Graph.complete(3))

    def test_check_needs_the_image_in_the_graph(self):
        emb = Embedding.from_mapping(named_tree("path:2"), {0: 0, 1: 7})
        with pytest.raises(ValueError, match="^image vertex 7 not in graph$"):
            emb.check(Graph.complete(3))


class TestEmbedAcross:
    def test_path_into_k33(self):
        G = G_of("(K1|K1|K1)+(K1|K1|K1)")
        emb = embed_across(named_tree("path:4"), {0, 1, 2}, {3, 4, 5}, G)
        emb.check(G)

    def test_star_center_lands_on_small_side(self):
        G = G_of("(K1|K1|K1)+(K1|K1|K1)")
        T = named_tree("star:4")
        emb = embed_across(T, {0, 1, 2}, {3, 4, 5}, G)
        assert emb.mapping[0] == 3  # center is the lone V2 vertex

    def test_errors(self):
        G = G_of("(K1|K1|K1)+(K1|K1|K1)")
        with pytest.raises(PartTooSmallError):
            embed_across(named_tree("path:4"), {0}, {3, 4}, G)
        with pytest.raises(MissingCrossEdgeError):
            embed_across(named_tree("path:4"), {0, 1}, {2, 3}, G)


class TestKeepVertexConnectivity:
    def test_complete_case(self):
        G = Graph.complete(6)
        emb = keep_vertex_connectivity(G, named_tree("path:3"), 2)
        residual = emb.residual(G)
        assert residual.is_complete() and residual.n == 3
        assert is_k_connected(residual, 2)

    def test_case4_example(self):
        G = G_of("(K1|K1|K1|K1)+K3")
        emb = keep_vertex_connectivity(G, named_tree("star:2"), 1)
        assert is_k_connected(emb.residual(G), 1)

    def test_small_primary_case(self):
        # n' = 2 <= k = 3 in the cocktail-party graph K_{2,2,2,2,2}
        ct = parse_expression("+".join(["(K1|K1)"] * 5))
        case, bound = keep_vertex_connectivity_bound(3, 3, 2)
        assert case == "small_primary" and bound == 6
        G = materialize(ct)
        emb = keep_vertex_connectivity(G, named_tree("path:3"), 3)
        assert is_k_connected(emb.residual(G), 3)

    def test_medium_primary_case(self):
        ct = parse_expression("(K1|K2)+K1+K1+K1+K1")
        case, _ = keep_vertex_connectivity_bound(2, 2, 3)
        assert case == "medium_primary"
        G = materialize(ct)
        emb = keep_vertex_connectivity(G, named_tree("path:2"), 2)
        assert is_k_connected(emb.residual(G), 2)

    def test_bound_violated(self):
        with pytest.raises(BoundViolatedError) as err:
            keep_vertex_connectivity(Graph.complete(5), named_tree("path:3"), 2)
        assert err.value.required_delta == 5

    # one instance below each case bound: (expr, tree, k, case, bound, delta)
    REFUSALS = [
        ("K3", "path:3", 2, "complete", 5, 2),
        ("(K1|K1)+K3", "path:2", 2, "small_primary", 4, 3),
        ("(K1|K1|K1)+K2", "path:3", 2, "medium_primary", 5, 2),
        ("(K1|K1|K1)+K1", "path:2", 1, "large_primary", 2, 1),
    ]

    @pytest.mark.parametrize("expr,tree,k,case,bound,delta", REFUSALS)
    def test_refusal_names_its_case(self, expr, tree, k, case, bound, delta):
        with pytest.raises(BoundViolatedError) as err:
            keep_vertex_connectivity(G_of(expr), named_tree(tree), k)
        assert (err.value.case, err.value.required_delta) == (case, bound)
        assert str(err.value) == f"case {case} needs delta >= {bound}, got {delta}"

    def test_not_k_connected(self):
        with pytest.raises(NotKConnectedError):
            keep_vertex_connectivity(G_of("K2|K2"), named_tree("path:1"), 1)

    def test_determinism(self):
        G = G_of("(K2|K2|K2)+K3")
        T = named_tree("path:3")
        a = keep_vertex_connectivity(G, T, 2)
        b = keep_vertex_connectivity(G, T, 2)
        assert a.pairs == b.pairs


class TestKeepVertexConnectivityTwo:
    def test_two_triangles_example(self):
        G = G_of("(K3|K3)+(K1|K1)")
        pair = keep_vertex_connectivity_two(G, named_tree("path:1"),
                                            named_tree("path:1"))
        assert vertex_connectivity_flow(pair.residual(G)) == 2

    def test_images_in_distinct_components(self):
        ct = two_component_cograph(2, 2, seed=5)
        G = materialize(ct)
        T = named_tree("path:2")
        pair = keep_vertex_connectivity_two(G, T, T)
        comps = [set(c) for c in
                 materialize(cocomponents(ct)[0]).components()]
        hosts_first = [i for i, c in enumerate(comps) if pair.first.image <= c]
        hosts_second = [i for i, c in enumerate(comps)
                        if pair.second.image <= c]
        assert hosts_first and hosts_second
        assert hosts_first[0] != hosts_second[0]

    def test_bound_violated(self):
        with pytest.raises(BoundViolatedError):
            keep_vertex_connectivity_two(G_of("K4"), named_tree("path:1"),
                                         named_tree("path:1"))

    def test_trivial_graph_rejected(self):
        # K1 satisfies the inequality but cannot host two disjoint trees
        with pytest.raises(BoundViolatedError):
            keep_vertex_connectivity_two(G_of("K1"), named_tree("path:1"),
                                         named_tree("path:1"))


class TestKeepMaximalConnectedness:
    CASES = [
        ("(K1|K1)+K5", "path:3"),                       # p <= 0
        ("(K1|K5)+K1+K1+K1", "path:3"),                 # p >= m-1
        ("(K1|K2)+(K1|K1)+K1+K1+K1", "path:5"),         # balanced, big second part
        ("(K1|K2)+K1+K1+K1+K1+K1", "path:5"),           # balanced, |S1| >= |V1|
        ("(K1|K2)+(K1|K1)+(K1|K1)+(K1|K1)+K1", "path:7"),  # overlap, l2 >= l1
        ("(K1|K1)+(K1|K1)+(K1|K1)+(K1|K1)", "path:7"),  # overlap, l2 < l1
    ]

    @pytest.mark.parametrize("expr,tree", CASES)
    def test_proof_branches(self, expr, tree):
        G = G_of(expr)
        emb = keep_maximal_connectedness(G, named_tree(tree))
        emb.check(G)
        residual = emb.residual(G)
        assert vertex_connectivity_flow(residual) == residual.min_degree()

    # the map of each case, pinned: the sweeps of test_sweeps.py do not run
    # these labeled inputs
    CASE_PAIRS = [
        ((0, 2), (1, 3), (2, 4)),
        ((0, 6), (1, 1), (2, 7)),
        ((0, 1), (1, 3), (2, 5), (3, 4), (4, 6)),
        ((0, 4), (1, 3), (2, 6), (3, 5), (4, 7)),
        ((0, 1), (1, 3), (2, 5), (3, 4), (4, 6), (5, 7), (6, 9)),
        ((0, 4), (1, 1), (2, 5), (3, 2), (4, 6), (5, 3), (6, 7)),
    ]

    @pytest.mark.parametrize("case,pairs", zip(CASES, CASE_PAIRS))
    def test_proof_branch_maps(self, case, pairs):
        expr, tree = case
        emb = keep_maximal_connectedness(G_of(expr), named_tree(tree))
        assert emb.pairs == pairs

    def test_single_vertex_connected(self):
        G = G_of("(K1|K1)+K1")
        emb = keep_maximal_connectedness(G, named_tree("path:1"))
        residual = emb.residual(G)
        assert vertex_connectivity_flow(residual) == residual.min_degree()

    def test_single_vertex_disconnected(self):
        G = G_of("K2|K1")
        emb = keep_maximal_connectedness(G, named_tree("path:1"))
        residual = emb.residual(G)
        assert residual.min_degree() == 0

    def test_km_rejected(self):
        with pytest.raises(IsKmError):
            keep_maximal_connectedness(Graph.complete(3), named_tree("path:3"))

    def test_not_maximally_connected(self):
        with pytest.raises(NotMaximallyConnectedError):
            keep_maximal_connectedness(G_of("(K2|K2)+K1"), named_tree("path:1"))

    def test_degree_too_low(self):
        with pytest.raises(DegreeTooLowError):
            keep_maximal_connectedness(G_of("(K1|K1)+K1"), named_tree("path:4"))


class TestKeepConnectivityEdgeDelete:
    def test_complete_example(self):
        G = Graph.complete(5)
        emb = keep_connectivity_edge_delete(G, named_tree("path:3"), 2)
        assert emb.mode.value == "edge"
        assert is_k_connected(emb.residual(G), 2)

    def test_below_bound_star(self):
        # K_{k+m-1} with a star leaves delta = k-1: the bound refuses upfront
        with pytest.raises(BoundViolatedError):
            keep_connectivity_edge_delete(Graph.complete(4), named_tree("star:3"), 2)

    def test_m1_is_noop(self):
        G = G_of("(K1|K1)+K2")
        emb = keep_connectivity_edge_delete(G, named_tree("path:1"), 1)
        assert emb.residual(G) == G


class TestKeepConnectivityEdgeDeleteTwo:
    def test_m1_two_distinct_vertices(self):
        G = G_of("(K1|K1)+K1")
        pair = keep_connectivity_edge_delete_two(G, named_tree("path:1"),
                                                 named_tree("path:1"))
        assert pair.first.image != pair.second.image
        assert pair.residual(G) == G

    def test_two_triangles(self):
        G = G_of("(K3|K3)+K1")
        pair = keep_connectivity_edge_delete_two(G, named_tree("path:3"),
                                                 named_tree("path:3"))
        residual = pair.residual(G)
        assert vertex_connectivity_flow(residual) == 1
        assert len(residual.edges) == len(G.edges) - 4

    def test_bound_violated(self):
        with pytest.raises(BoundViolatedError):
            keep_connectivity_edge_delete_two(G_of("(K1|K1)+K1"),
                                              named_tree("path:3"),
                                              named_tree("path:3"))


class TestKeepEdgeConnectivityVertexDelete:
    def test_complete_example(self):
        # k = 3, m = 2 forces delta >= 5, so K6; the residual is K4
        G = Graph.complete(6)
        emb = keep_edge_connectivity_vertex_delete(G, named_tree("path:2"), 3)
        residual = emb.residual(G)
        assert residual.n == 4 and is_k_edge_connected(residual, 3)

    def test_k1_m1(self):
        G = G_of("(K1|K1)+K1")
        emb = keep_edge_connectivity_vertex_delete(G, named_tree("path:1"), 1)
        assert is_k_edge_connected(emb.residual(G), 1)

    def test_one_below_bound_rejected(self):
        with pytest.raises(BoundViolatedError):
            keep_edge_connectivity_vertex_delete(Graph.complete(5),
                                                 named_tree("path:2"), 3)

    def test_not_k_edge_connected(self):
        with pytest.raises(NotKEdgeConnectedError):
            keep_edge_connectivity_vertex_delete(G_of("(K1|K1)+K1"),
                                                 named_tree("path:1"), 2)


class TestKeepSuperEdgeConnectivity:
    def test_complete_case(self):
        G = Graph.complete(6)
        emb = keep_super_edge_connectivity(G, named_tree("path:3"))
        assert emb.residual(G).is_complete()

    def test_c4_residual_repair(self):
        # cocktail party K_{2x4}: the first construction leaves a C4, the
        # leaf swap moves one tree vertex into the primary cocomponent
        G = G_of("(K1|K1)+(K1|K1)+(K1|K1)+(K1|K1)")
        emb = keep_super_edge_connectivity(G, named_tree("path:4"))
        assert emb.image & {0, 1}
        assert residual_satisfies(G, emb.residual(G), super_edge_connected())

    SINGLE_JOIN = [
        ("((((K1|K1)+(K1|K1)+(K1|K1))|K7)+K1)", "path:3"),  # edges inside Sp
        ("(((K3|K3)+(K1|K1))|K7)+K1", "path:3"),            # edges inside prim
        ("(((K1|K1|K1|K1)+(K1|K1|K1|K1))|K6)+K1", "path:3"),  # bipartite
        ("(((K3|K3)+K1)|K6)+K1", "path:2"),                 # lone inner hub
        ("(((K2|K2)+K1)|K5)+K1", "path:1"),                 # m = 1
    ]

    @pytest.mark.parametrize("expr,tree", SINGLE_JOIN)
    def test_single_join_vertex_branches(self, expr, tree):
        G = G_of(expr)
        emb = keep_super_edge_connectivity(G, named_tree(tree))
        emb.check(G)
        assert residual_satisfies(G, emb.residual(G), super_edge_connected())

    # the map of each branch, pinned: the sweeps of test_sweeps.py do not
    # run these labeled inputs
    SINGLE_JOIN_PAIRS = [
        ((0, 4), (1, 2), (2, 5)),
        ((0, 1), (1, 0), (2, 2)),
        ((0, 0), (1, 4), (2, 1)),
        ((0, 0), (1, 1)),
        ((0, 0),),
    ]

    @pytest.mark.parametrize("case,pairs", zip(SINGLE_JOIN, SINGLE_JOIN_PAIRS))
    def test_single_join_vertex_maps(self, case, pairs):
        expr, tree = case
        emb = keep_super_edge_connectivity(G_of(expr), named_tree(tree))
        assert emb.pairs == pairs

    @pytest.mark.parametrize("n", range(4, 14))
    def test_complete_input_takes_the_connectivity_construction(self, n):
        # every admitted path:m and star:m (m <= n - 3) lands on 0 .. m-1,
        # the map of the k = 2 vertex-connectivity construction
        G = Graph.complete(n)
        ct = cotree_from_graph(G).cotree
        for m in range(1, n - 2):
            for kind in ("path", "star"):
                T = named_tree(f"{kind}:{m}")
                emb = keep_super_edge_connectivity(G, T)
                assert emb.pairs == tuple((t, t) for t in range(m))
                assert emb.mapping == \
                    embed_module._keep_vertex_connectivity_mapping(G, ct.root.children, T, 2)

    # residual orders 13-16, all within the cut enumeration cap of the oracle
    LARGE_RESIDUALS = [
        ("(K1|K1|K1)+(K2|K1)+(K1|K1)+(K1|K1)+K1+K1+K1+K1+K1+K1", "path:3"),
        ("(K1|K1|K1)+(K2|K1)+(K1|K1)+(K1|K1)+K1+K1+K1+K1+K1+K1", "path:2"),
        ("K17", "path:2"),
        ("K17", "path:1"),
    ]

    @pytest.mark.parametrize("expr,tree", LARGE_RESIDUALS)
    def test_residual_up_to_the_cut_cap_is_enumerated(self, expr, tree,
                                                      monkeypatch):
        orders = []
        real = oracle_module.min_edge_cuts

        def counted(G, *args, **kwargs):
            orders.append(G.n)
            return real(G, *args, **kwargs)

        monkeypatch.setattr(oracle_module, "min_edge_cuts", counted)
        G = G_of(expr)
        emb = keep_super_edge_connectivity(G, named_tree(tree))
        residual_order = G.n - len(emb.image)
        assert 13 <= residual_order <= oracle_module.DEFAULT_CUT_CAP
        assert orders == [residual_order]

    def test_not_super_rejected(self):
        with pytest.raises(NotSuperError):
            keep_super_edge_connectivity(G_of("(K1|K1)+(K1|K1)"),
                                         named_tree("path:1"))

    def test_bound_violated(self):
        with pytest.raises(BoundViolatedError):
            keep_super_edge_connectivity(G_of("K2+K2"), named_tree("path:2"))


class TestKeepEdgeConnectivityEdgeDelete:
    def test_complete_base(self):
        # K6 at the base bound for T = P4 (Delta = 2, beta = 2), k = 2
        G = Graph.complete(6)
        emb = keep_edge_connectivity_edge_delete(G, named_tree("path:4"), 2)
        assert is_k_edge_connected(emb.residual(G), 2)

    def test_m1_vacuous(self):
        G = G_of("(K1|K1)+K1")
        emb = keep_edge_connectivity_edge_delete(G, named_tree("path:1"), 1)
        assert emb.residual(G) == G

    def test_trivial_graph_is_its_own_keeping_tree(self):
        # K1 counts as 1-edge-connected, and deleting no edges keeps it so
        K1 = Graph([0], [])
        emb = keep_edge_connectivity_edge_delete(K1, named_tree("path:1"), 1)
        assert emb.mapping == {0: 0}

    def test_single_join_recursion(self):
        G = G_of("K1+(K3|K3)")
        emb = keep_edge_connectivity_edge_delete(G, named_tree("star:3"), 1)
        assert is_k_edge_connected(emb.residual(G), 1)

    def test_weak_bound_dominated_by_km1(self):
        for seed in range(40):
            m = 2 + seed % 6
            T = tree_for(m, ("path", "star", "random")[seed % 3], seed)
            for k in (1, 2, 3):
                assert k + T.max_degree + T.beta - 1 <= k + m - 1

    def test_seeded_edge_rerooting_branch(self, monkeypatch):
        # Feed the construction a first embedding whose smaller class
        # swallows the two joined hubs, forcing the re-rooting repair.
        G = G_of("(K3|K3)+K1+K1")
        T = named_tree("path:5")
        crafted = {0: 0, 1: 6, 2: 1, 3: 7, 4: 2}
        real = embed_module._embed_mapping
        calls = {"n": 0}

        def fake(graph, shape, allowed, partial=None):
            calls["n"] += 1
            if calls["n"] == 1:
                return dict(crafted)
            return real(graph, shape, allowed, partial=partial)

        monkeypatch.setattr(embed_module, "_embed_mapping", fake)
        emb = keep_edge_connectivity_edge_delete(G, T, 1)
        emb.check(G)
        assert is_k_edge_connected(emb.residual(G), 1)
        assert calls["n"] >= 2

    def test_seeded_leaf_surgery_branch(self, monkeypatch):
        # Same trick with an edgeless join side of size two.
        G = G_of("(K3|K3)+(K1|K1)")
        T = named_tree("path:5")
        crafted = {0: 0, 1: 6, 2: 1, 3: 7, 4: 2}
        real = embed_module._embed_mapping
        calls = {"n": 0}

        def fake(graph, shape, allowed, partial=None):
            calls["n"] += 1
            if calls["n"] == 1:
                return dict(crafted)
            return real(graph, shape, allowed, partial=partial)

        monkeypatch.setattr(embed_module, "_embed_mapping", fake)
        emb = keep_edge_connectivity_edge_delete(G, T, 1)
        emb.check(G)
        assert is_k_edge_connected(emb.residual(G), 1)


class TestStandaloneVertexKeepingLemma:
    def test_induced_union_stays_k_connected(self):
        rng = random.Random(202)
        checked = 0
        for seed in range(250):
            ct = random_cotree(5 + seed % 8, seed, join_bias=0.9)
            k = kappa_cograph(ct)
            if k < 1:
                continue
            G = materialize(ct)
            g1 = set(cocomponents(ct)[0].labels)
            s = sorted(set(ct.labels) - g1)
            low1 = min(k, len(g1))
            if len(s) < k:
                continue
            s1 = set(rng.sample(sorted(g1), rng.randint(low1, len(g1))))
            s2 = set(rng.sample(s, rng.randint(k, len(s))))
            H = induced_subgraph(G, s1 | s2)
            assert is_k_connected(H, k)
            checked += 1
        assert checked >= 60


class TestEmbeddingInvariants:
    def test_every_embedding_is_checked_valid(self):
        for seed in range(15):
            ct = random_cotree(9, seed, join_bias=0.9)
            G = materialize(ct)
            k = kappa_cograph(ct)
            if k < 1:
                continue
            m = 2
            _, bound = keep_vertex_connectivity_bound(
                k, m, cocomponents(ct)[0].n)
            if min(degrees(ct).values()) < bound:
                continue
            emb = keep_vertex_connectivity(G, named_tree("path:2"), k)
            emb.check(G)
            assert len(emb.image) == m


def _reference_report(G, result):
    """The residual report recomputed from scratch: the residual is built,
    recognized, and analyzed by the closed form or measured by flow."""
    residual = result.residual(G)
    recognition = cotree_from_graph(residual)
    if recognition.cotree is not None:
        return {"cograph": True, **analyze(recognition.cotree).to_dict()}
    return {
        "cograph": False,
        "n": residual.n,
        "delta": residual.min_degree(),
        "kappa": vertex_connectivity_flow(residual),
        "lambda": edge_connectivity_flow(residual),
    }


class TestVerifier:
    # Each call succeeds unpatched; together they reach every keep_* return.
    CALLS = [
        (keep_vertex_connectivity, "(K1|K1|K1)+K3", ("star:2", 1)),
        (keep_vertex_connectivity_two, "(K3|K3)+(K1|K1)", ("path:1", "star:1")),
        (keep_maximal_connectedness, "(K1|K2|K1)+(K1|K1)+K1", ("path:2",)),
        (keep_connectivity_edge_delete, "K5", ("path:2", 2)),
        (keep_connectivity_edge_delete_two, "(K3|K3)+K1", ("path:3", "path:3")),
        (keep_connectivity_edge_delete_two, "(K3|K3)+K1", ("path:1", "path:1")),
        (keep_edge_connectivity_vertex_delete, "K5", ("path:2", 2)),
        (keep_super_edge_connectivity, "K6", ("path:3",)),
        (keep_edge_connectivity_edge_delete, "K5", ("path:2", 2)),
        # the edge-deleted residual is not a cograph: judged on its flow values
        (keep_connectivity_edge_delete, "(K1|K1)+K2+(K1|K2)", ("star:3", 2)),
    ]

    @staticmethod
    def call(keep, expr, args):
        args = [named_tree(a) if isinstance(a, str) else a for a in args]
        return keep(G_of(expr), *args)

    @pytest.mark.parametrize("keep,expr,args", CALLS)
    def test_every_result_passes_the_verifier(self, keep, expr, args,
                                              monkeypatch):
        assert self.call(keep, expr, args)
        verified = embed_module._verified

        def refusing_verifier(*a, **kw):
            # the judge says no only inside the verifier: admission asks it too
            with monkeypatch.context() as patch:
                patch.setattr(Preserved, "holds", lambda self, value: False)
                return verified(*a, **kw)

        monkeypatch.setattr(embed_module, "_verified", refusing_verifier)
        with pytest.raises(PostconditionFailedError):
            self.call(keep, expr, args)

    # (K3|K2)+K1 minus the edge 0-5 is not a cograph: kappa 1, lambda 2
    FLOW_TAGS = [(k_connected(1), True), (k_connected(2), False),
                 (k_edge_connected(2), True), (k_edge_connected(3), False),
                 (exact_kappa(1), True), (exact_kappa(2), False)]

    @pytest.mark.parametrize("tag,holds", FLOW_TAGS,
                             ids=[t.tag() for t, _ in FLOW_TAGS])
    def test_flow_route_judges_kappa_and_lambda(self, tag, holds):
        G = G_of("(K3|K2)+K1")
        emb = Embedding.from_mapping(named_tree("path:2"), {0: 0, 1: 5},
                                     DeleteMode.EDGE, tag)
        if not holds:
            with pytest.raises(PostconditionFailedError,
                               match=re.escape(f"{tag.tag()} (flow)")):
                embed_module._verified(G, emb)
            return
        assert embed_module._verified(G, emb).residual_report == {
            "cograph": False, "n": 6, "delta": 2, "kappa": 1, "lambda": 2}

    def test_report_matches_a_fresh_recomputation(self):
        # every cograph of order <= 6, every theorem, trees path:1..3 and
        # star:3, k in {1, 2}; the two-tree theorems take the same tree twice
        trees = [named_tree(s)
                 for s in ("path:1", "path:2", "path:3", "star:3")]
        flow_reports = cograph_reports = 0
        for n in range(1, 7):
            for ct in enumerate_cotrees(n):
                G = materialize(ct)
                for name, takes_k, two_trees in _THEOREMS.values():
                    keep = getattr(embed_module, name)
                    for T in trees:
                        for extra in ([[1], [2]] if takes_k
                                      else [[T]] if two_trees else [[]]):
                            try:
                                result = keep(G, T, *extra)
                            except CographError:
                                continue
                            report = result.residual_report
                            assert report == _reference_report(G, result)
                            if report["cograph"]:
                                cograph_reports += 1
                            else:
                                flow_reports += 1
        assert (cograph_reports, flow_reports) == (904, 49)

    def test_report_leaves_identity_alone(self):
        for keep, expr, args in (self.CALLS[0], self.CALLS[1], self.CALLS[9]):
            result = self.call(keep, expr, args)
            assert result.residual_report is not None
            bare = replace(result, residual_report=None)
            assert result == bare and hash(result) == hash(bare)
            assert repr(result) == repr(bare)
            assert result.to_dict() == bare.to_dict()

    @pytest.mark.parametrize("keep", [keep_vertex_connectivity_two,
                                      keep_connectivity_edge_delete_two])
    def test_overlapping_pair_is_refused(self, keep, monkeypatch):
        monkeypatch.setattr(embed_module, "_embed_mapping",
                            first_mapping_twice(embed_module._embed_mapping))
        T = named_tree("path:2")
        with pytest.raises(PostconditionFailedError,
                           match="not a copy of the tree: .*not vertex-disjoint"):
            keep(G_of("(K3|K3)+(K1|K1)"), T, T)

    PAIR_TREES = (named_tree("path:2"), named_tree("star:3"))

    @pytest.mark.parametrize("mode", list(DeleteMode))
    def test_pair_residual_deletes_both_images(self, mode):
        G = G_of("(K3|K3)+(K1|K1)")
        T1, T2 = self.PAIR_TREES
        pair = DisjointPair(
            Embedding.from_mapping(T1, {0: 0, 1: 1}, mode),
            Embedding.from_mapping(T2, {0: 4, 1: 3, 2: 5}, mode))
        if mode is DeleteMode.VERTEX:
            expected = delete_vertices(G, pair.combined_image())
        else:
            expected = delete_edges(G, pair.first.graph_edges()
                                    + pair.second.graph_edges())
        assert pair.residual(G) == expected

    def test_pair_covering_the_graph_has_no_residual(self):
        G = G_of("(K1|K1)+K3")
        T1, T2 = self.PAIR_TREES
        pair = DisjointPair(Embedding.from_mapping(T1, {0: 0, 1: 2}),
                            Embedding.from_mapping(T2, {0: 3, 1: 1, 2: 4}))
        assert pair.combined_image() == frozenset(G.vertices)
        with pytest.raises(WouldBeEmptyError, match="^cannot delete every vertex$"):
            pair.residual(G)

    def test_pair_constructor_raises_value_error(self):
        emb = greedy_embed(G_of("K3"), named_tree("path:2"))
        with pytest.raises(ValueError, match="not vertex-disjoint") as info:
            DisjointPair(emb, emb)
        assert type(info.value) is ValueError

    def test_vertex_mode_non_keeping_placement(self, monkeypatch):
        # Deleting the K2 side leaves two isolated vertices.
        G = G_of("(K1|K1)+K2")
        T = named_tree("path:2")
        keep_vertex_connectivity(G, T, 1)
        monkeypatch.setattr(embed_module, "_keep_vertex_connectivity_mapping",
                            lambda G, ct, T, k: {0: 2, 1: 3})
        with pytest.raises(PostconditionFailedError,
                           match=r"k_connected\(1\) \(closed form\)"):
            keep_vertex_connectivity(G, T, 1)

    # On (K1|K1)+K2 both maps leave a connected residual, so only the check
    # that the result is a copy of the tree can refuse them.
    NON_COPIES = [({0: 0, 1: 1}, "tree edge"), ({0: 2, 1: 2}, "not injective")]

    @pytest.mark.parametrize("mapping,reason", NON_COPIES)
    def test_non_copy_is_refused(self, monkeypatch, mapping, reason):
        G = G_of("(K1|K1)+K2")
        T = named_tree("path:2")
        monkeypatch.setattr(embed_module, "_keep_vertex_connectivity_mapping",
                            lambda G, ct, T, k: dict(mapping))
        with pytest.raises(PostconditionFailedError,
                           match=f"not a copy of the tree: .*{reason}"):
            keep_vertex_connectivity(G, T, 1)

    def test_oracle_route_refuses_an_overclaiming_tag(self):
        # An exhaustive search over small cographs found no placement that
        # breaks an edge-mode property under its bound, so the oracle route
        # gets a result whose tag overclaims: K4 minus an edge is
        # 2-edge-connected, not 3-edge-connected.
        emb = Embedding.from_mapping(named_tree("path:2"), {0: 0, 1: 1},
                                     DeleteMode.EDGE, k_edge_connected(3))
        with pytest.raises(PostconditionFailedError,
                           match=r"k_edge_connected\(3\) \(oracle\)"):
            embed_module._verified(Graph.complete(4), emb)


class TestFlowValuesOncePerGraph:
    """Each flow and cut value of :class:`cographs.oracle._flow_values` runs
    at most once per graph, however many checks read it."""

    WRAPPED = ("vertex_connectivity_flow", "edge_connectivity_flow",
               "min_edge_cuts")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        graphs = []  # kept alive, so that no two graphs share an id

        def counted(name, real):
            def wrapper(G, *args, **kwargs):
                graphs.append(G)
                counts[name, id(G)] += 1
                return real(G, *args, **kwargs)
            return wrapper

        for name in self.WRAPPED:
            monkeypatch.setattr(oracle_module, name,
                                counted(name, getattr(oracle_module, name)))
        return counts

    def test_verify(self, calls, capsys):
        assert main(["verify", "--expr", "(K2|K2)+K1"]) == 0
        assert json.loads(capsys.readouterr().out)["all_ok"]
        assert sorted(name for name, _ in calls) == sorted(self.WRAPPED)
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("index,wrapped", [
        (9, {"vertex_connectivity_flow", "edge_connectivity_flow"}),  # th3, flow
        (6, {"edge_connectivity_flow"}),                              # th6, oracle
    ])
    def test_keep(self, calls, index, wrapped):
        assert TestVerifier.call(*TestVerifier.CALLS[index])
        assert sorted(name for name, _ in calls) == sorted(wrapped)
        assert set(calls.values()) == {1}


def _no_placements(*args, **kwargs):
    return iter(())


class TestSharedPath:
    @pytest.mark.parametrize("keep,expr,args", TestVerifier.CALLS)
    def test_cotree_input_gives_the_graph_result(self, keep, expr, args):
        trees = [named_tree(a) if isinstance(a, str) else a for a in args]
        from_cotree = keep(parse_expression(expr), *trees)
        from_graph = keep(G_of(expr), *trees)
        assert from_cotree == from_graph
        assert from_cotree.residual_report == from_graph.residual_report

    @pytest.mark.parametrize("keep,expr,args", TestVerifier.CALLS)
    def test_cotree_input_builds_only_recognized_cotrees(
            self, keep, expr, args, cotree_inits, monkeypatch):
        # the constructions read cocomponents and components as nodes
        recognized = []

        def recognize(G):
            result = cotree_from_graph(G)
            recognized.append(result.cotree)
            return result

        monkeypatch.setattr(embed_module, "cotree_from_graph", recognize)
        trees = [named_tree(a) if isinstance(a, str) else a for a in args]
        ct = parse_expression(expr)
        keep(ct, *trees)
        assert cotree_inits == [ct] + [c for c in recognized if c is not None]

    def test_k_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            keep_vertex_connectivity(G_of("K4"), named_tree("path:2"), 0)

    def test_pair_trees_of_different_orders_are_refused(self):
        with pytest.raises(ValueError,
                           match="^both trees must have the same order$"):
            keep_vertex_connectivity_two(G_of("(K3|K3)+(K1|K1)"),
                                         named_tree("path:2"),
                                         named_tree("path:3"))

    def test_cotree_input_result(self):
        result = keep_vertex_connectivity(parse_expression("(K1|K1|K1)+K3"),
                                          named_tree("star:2"), 1)
        assert result.to_dict() == {"mode": "vertex",
                                    "preserved": "k_connected(1)",
                                    "map": [[0, 0], [1, 4]]}
        assert result.residual_report == {
            "cograph": True, "n": 4, "n_prime": 2, "t": 3, "delta": 2,
            "Delta": 3, "kappa": 2, "lambda": 2, "connected": True,
            "maximally_connected": True, "maximally_edge_connected": True,
            "super_edge_connected": True, "ideally_connected": True,
            "dirac": True, "super_by_convention": False}

    LOST = ("construction lost a guaranteed embedding: no embedding of a "
            "2-vertex tree into the 3-vertex allowed set")

    @pytest.mark.parametrize("keep,expr,args", [
        (keep_vertex_connectivity, "K4", ("path:2", 1)),
        (keep_vertex_connectivity_two, "(K3|K3)+K1", ("path:2", "path:2")),
        (keep_connectivity_edge_delete, "K4", ("path:2", 1)),
        (keep_connectivity_edge_delete_two, "(K3|K3)+K1", ("path:2", "path:2")),
        (keep_edge_connectivity_edge_delete, "(K3|K3)+K1", ("path:2", 1)),
    ])
    def test_failed_internal_placement_is_a_bug(self, keep, expr, args,
                                                monkeypatch):
        monkeypatch.setattr(embed_module, "_placements", _no_placements)
        trees = [named_tree(a) if isinstance(a, str) else a for a in args]
        with pytest.raises(PostconditionFailedError) as info:
            keep(G_of(expr), *trees)
        assert str(info.value).startswith(
            "construction lost a guaranteed embedding: no embedding of a ")
        assert type(info.value.__cause__) is DegreeTooLowError

    def test_failed_internal_placement_text(self, monkeypatch):
        monkeypatch.setattr(embed_module, "_placements", _no_placements)
        with pytest.raises(PostconditionFailedError, match=re.escape(self.LOST)):
            keep_connectivity_edge_delete(G_of("K4"), named_tree("path:2"), 1)

    def test_public_placements_keep_their_errors(self, monkeypatch):
        monkeypatch.setattr(embed_module, "_placements", _no_placements)
        G, T = G_of("K4"), named_tree("path:2")
        with pytest.raises(DegreeTooLowError) as info:
            greedy_embed(G, T)
        assert type(info.value) is DegreeTooLowError
        with pytest.raises(DegreeTooLowError):
            extend_embedding(G, {0: 0}, T)

    def test_internal_partial_map_is_still_checked(self):
        G, T = G_of("K1|K3"), named_tree("path:3")
        with pytest.raises(ValueError, match="does not preserve edges"):
            embed_module._place(G, T, G.vertices, {0: 0, 1: 1})


def _greedy_placement(G, T, allowed, partial):
    """The placement that takes the smallest candidate at every step and
    never retreats, or None where it gets stuck."""
    allowed = set(allowed)
    assignment = dict(partial or {})
    used = set(assignment.values())
    for t, parent in _placement_order(T, assignment):
        pool = allowed if parent is None else G.neighbors(assignment[parent])
        options = sorted((set(pool) & allowed) - used)
        if not options:
            return None
        assignment[t] = options[0]
        used.add(options[0])
    return assignment


class TestNoBacktracking:
    """``_embed_mapping`` says that under its callers' preconditions the
    first choice always works: every construction's first placement is the
    greedy one."""

    def test_every_small_cograph_places_greedily(self, monkeypatch):
        real = embed_module._placements
        firsts = []

        def recording(G, T, allowed, partial=None):
            placements = real(G, T, allowed, partial)
            first = next(placements, None)
            firsts.append((first, _greedy_placement(G, T, allowed, partial)))
            if first is not None:
                yield first
                yield from placements

        monkeypatch.setattr(embed_module, "_placements", recording)
        for n in range(1, 7):
            for ct in enumerate_cotrees(n):
                for name, takes_k, two_trees in _THEOREMS.values():
                    keep = getattr(embed_module, name)
                    for tree in SWEEP_TREES:
                        T = named_tree(tree)
                        args = (T, T) if two_trees else (T,)
                        for k in ((1, 2, 3) if takes_k else (None,)):
                            try:
                                keep(ct, *args, *([k] if k else []))
                            except CographError as exc:
                                assert not isinstance(exc, PostconditionFailedError)
        assert len(firsts) == 892  # placements the constructions asked for
        assert [pair for pair in firsts if pair[0] != pair[1]] == []
