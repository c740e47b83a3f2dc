"""Constructive keeping-tree operations: examples, branches, verification."""

import random

import pytest
from conftest import tree_for, two_component_cograph

import cographs.embed as embed_module
from cographs import (
    Graph,
    embed_across,
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
from cographs.analysis import degrees, kappa_cograph
from cographs.cotree import cocomponents
from cographs.embedding import (
    DeleteMode,
    Embedding,
    k_edge_connected,
    super_edge_connected,
)
from cographs.errors import (
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

    def test_accepts_embedding_typed_partial(self):
        G = Graph.complete(5)
        T = named_tree("path:4")
        partial = greedy_embed(G, named_tree("path:2"))
        emb = extend_embedding(G, partial, T)
        emb.check(G)
        assert emb.mapping[0] == partial.mapping[0]


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
    ]

    @staticmethod
    def call(keep, expr, args):
        args = [named_tree(a) if isinstance(a, str) else a for a in args]
        return keep(G_of(expr), *args)

    @pytest.mark.parametrize("keep,expr,args", CALLS)
    def test_every_result_passes_the_verifier(self, keep, expr, args,
                                              monkeypatch):
        assert self.call(keep, expr, args)
        monkeypatch.setattr(embed_module, "_closed_form_holds",
                            lambda rct, prop: False)
        monkeypatch.setattr(embed_module, "residual_satisfies",
                            lambda G, residual, prop: False)
        with pytest.raises(PostconditionFailedError):
            self.call(keep, expr, args)

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
