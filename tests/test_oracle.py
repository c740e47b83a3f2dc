"""Brute-force oracle: enumeration, exhaustive search, cut records."""

import random
from itertools import permutations

import pytest
from conftest import all_graphs, brute_min_edge_cuts, cograph_stream

from cographs import (
    Graph,
    analyze,
    enumerate_cotrees,
    enumerate_subtree_embeddings,
    exhaustive_keeping_search,
    format_expression,
    has_induced_2k2,
    is_k_connected_cograph,
    is_k_edge_connected_cograph,
    is_maximally_connected,
    is_super_edge_connected,
    kappa_cograph,
    materialize,
    min_edge_cuts,
    named_tree,
    parse_expression,
    random_cotree,
    random_tree,
)
from cographs.embedding import (
    DeleteMode,
    Preserved,
    _placements,
    exact_kappa,
    k_connected,
    k_edge_connected,
    maximally_connected,
    super_edge_connected,
)
from cographs.errors import DisconnectedError, TooLargeError
from cographs.oracle import CutRecord, ProvenNone, residual_satisfies


class TestEnumeration:
    def test_edge_count_in_triangle(self):
        embs = list(enumerate_subtree_embeddings(Graph.complete(3),
                                                 named_tree("path:2")))
        assert len(embs) == 3

    def test_p3_in_c4(self):
        embs = list(enumerate_subtree_embeddings(Graph.cycle(4),
                                                 named_tree("path:3")))
        assert len(embs) == 4

    def test_k1_everywhere(self):
        G = materialize(parse_expression("K2|K3"))
        assert len(list(enumerate_subtree_embeddings(G, named_tree("path:1")))) \
            == G.n

    def test_star_automorphisms_collapsed(self):
        # 4 choices of center x 1 leaf set each in K4
        embs = list(enumerate_subtree_embeddings(Graph.complete(4),
                                                 named_tree("star:4")))
        assert len(embs) == 4

    def test_deterministic_stream(self):
        G = Graph.complete(5)
        first = [e.pairs for e in
                 enumerate_subtree_embeddings(G, named_tree("path:3"))]
        second = [e.pairs for e in
                  enumerate_subtree_embeddings(G, named_tree("path:3"))]
        assert first == second

    @pytest.mark.parametrize("spec", [f"{kind}:{m}" for kind in ("path", "star")
                                      for m in range(1, 5)])
    def test_images_match_brute_force(self, spec):
        # The placement search is shared with the constructions, so it is
        # checked here against every injective vertex sequence.
        T = named_tree(spec)
        tree_vertices = sorted(T.tree.vertices)
        for n in range(1, 6):
            for G in all_graphs(n):
                stream = [(emb.image, frozenset(emb.graph_edges()))
                          for emb in enumerate_subtree_embeddings(G, T)]
                brute = set()
                for seq in permutations(G.vertices, T.order):
                    mp = dict(zip(tree_vertices, seq))
                    if all(G.has_edge(mp[u], mp[v]) for u, v in T.tree.edges):
                        brute.add((frozenset(seq), frozenset(
                            (min(mp[u], mp[v]), max(mp[u], mp[v]))
                            for u, v in T.tree.edges)))
                assert len(stream) == len(set(stream))
                assert set(stream) == brute, (spec, G.edges)

    def test_cap(self):
        with pytest.raises(TooLargeError):
            list(enumerate_subtree_embeddings(Graph.complete(15),
                                              named_tree("path:2"), cap=14))
        # env-independent explicit override allows it
        stream = enumerate_subtree_embeddings(Graph.complete(15),
                                              named_tree("path:1"), cap=15)
        assert sum(1 for _ in stream) == 15


class TestExhaustiveSearch:
    def test_found_on_claw_with_k1(self):
        G = materialize(parse_expression("(K1|K1|K1)+K1"))
        result = exhaustive_keeping_search(G, named_tree("path:1"),
                                           Preserved("k_connected", 1))
        assert not isinstance(result, ProvenNone)
        assert result.preserved.kind == "k_connected"

    def test_proven_none_on_claw_with_edge(self):
        G = materialize(parse_expression("(K1|K1|K1)+K1"))
        result = exhaustive_keeping_search(G, named_tree("path:2"),
                                           Preserved("k_connected", 1))
        assert isinstance(result, ProvenNone)
        assert result.examined == 3

    def test_matches_constructive_success(self):
        from conftest import two_component_cograph

        from cographs import keep_vertex_connectivity, keep_vertex_connectivity_bound
        from cographs.analysis import degrees, kappa_cograph
        from cographs.cotree import cocomponents
        hits = 0
        for seed in range(14):
            k = 1 + seed % 3
            ct = two_component_cograph(k, 2, seed)
            if ct.n > 12:
                continue
            assert kappa_cograph(ct) == k
            _, bound = keep_vertex_connectivity_bound(k, 2, cocomponents(ct)[0].n)
            assert min(degrees(ct).values()) >= bound
            G = materialize(ct)
            T = named_tree("path:2")
            keep_vertex_connectivity(G, T, k)  # must not raise
            assert not isinstance(
                exhaustive_keeping_search(G, T, Preserved("k_connected", k)),
                ProvenNone)
            hits += 1
        assert hits >= 8

    def test_edge_mode(self):
        G = Graph.complete(4)
        result = exhaustive_keeping_search(G, named_tree("path:2"),
                                           Preserved("k_connected", 2),
                                           mode=DeleteMode.EDGE)
        assert not isinstance(result, ProvenNone)
        assert result.mode is DeleteMode.EDGE


class TestRecords:
    def test_cut_record_to_dict(self):
        record = CutRecord(side=(0,), size=1, isolates=0)
        assert record.to_dict() == {"side": [0], "size": 1, "isolates": 0}

    def test_proven_none_is_false(self):
        assert bool(ProvenNone(examined=3)) is False

    def test_a_full_partial_placement_is_yielded_once(self):
        G, T = Graph.path(3), named_tree("path:2")
        full_map = {0: 1, 1: 2}
        assert list(_placements(G, T, G.vertices, full_map)) == [full_map]


class TestMinEdgeCuts:
    def test_c4_has_non_isolating_minimum_cut(self):
        cuts = min_edge_cuts(Graph.cycle(4))
        assert all(c.size == 2 for c in cuts)
        assert any(c.isolates is None for c in cuts)
        assert any(c.isolates is not None for c in cuts)

    def test_k4_all_cuts_isolate(self):
        cuts = min_edge_cuts(Graph.complete(4))
        assert all(c.size == 3 and c.isolates is not None for c in cuts)

    def test_cut_sizes_are_exact(self):
        G = materialize(parse_expression("(K2|K2)+K1"))
        for record in min_edge_cuts(G):
            side = set(record.side)
            crossing = [e for e in G.edges if (e[0] in side) != (e[1] in side)]
            assert len(crossing) == record.size

    def test_connected_cograph_min_cut_equals_delta(self):
        for ct in cograph_stream(40, 401, nmax=10):
            if not ct.is_connected() or ct.n == 1:
                continue
            G = materialize(ct)
            assert min_edge_cuts(G)[0].size == G.min_degree()

    def test_trivial_graph_has_no_cuts(self):
        assert min_edge_cuts(Graph([0], [])) == []

    def test_errors(self):
        with pytest.raises(DisconnectedError):
            min_edge_cuts(materialize(parse_expression("K2|K2")))
        with pytest.raises(TooLargeError):
            min_edge_cuts(Graph.complete(17))


def _two_cliques_and_a_bridge(order: int) -> Graph:
    clique = [(u, v) for u in range(order) for v in range(u + 1, order)]
    return Graph.from_edges(2 * order, clique + [(order + u, order + v)
                                                 for u, v in clique]
                            + [(order - 1, order)])


def _grid(rows: int, cols: int) -> Graph:
    return Graph.from_edges(
        rows * cols,
        [(r * cols + c, r * cols + c + 1)
         for r in range(rows) for c in range(cols - 1)]
        + [(r * cols + c, (r + 1) * cols + c)
           for r in range(rows - 1) for c in range(cols)])


HARD_SHAPES = {
    "path": Graph.path(16),
    "cycle": Graph.cycle(16),
    "star": Graph.from_edges(16, [(0, v) for v in range(1, 16)]),
    "K16": Graph.complete(16),
    "two_K8_and_a_bridge": _two_cliques_and_a_bridge(8),
    "grid_4x4": _grid(4, 4),
    "random_tree": random_tree(16, 3).tree,
}


class TestMinEdgeCutsAgainstThePlainLoop:
    """The bounded search returns the plain loop's records, order included."""

    def test_every_connected_graph_of_order_at_most_6(self):
        checked = 0
        for n in range(1, 7):
            for G in all_graphs(n):
                if G.is_connected():
                    assert min_edge_cuts(G) == brute_min_edge_cuts(G), G.edges
                    checked += 1
        assert checked == 1 + 1 + 4 + 38 + 728 + 26704

    def test_random_graphs_up_to_order_13(self):
        rng = random.Random(1301)
        checked = 0
        while checked < 300:
            n = rng.randint(2, 13)
            p = rng.uniform(0.15, 0.9)
            # sparse, shuffled labels: the search works on vertex indices
            labels = rng.sample(range(3 * n), n)
            G = Graph(labels, [(labels[u], labels[v]) for u in range(n)
                               for v in range(u + 1, n) if rng.random() < p])
            if G.is_connected():
                assert min_edge_cuts(G) == brute_min_edge_cuts(G), G.edges
                checked += 1

    def test_random_cographs_up_to_order_16(self):
        checked = 0
        for seed in range(80):
            ct = random_cotree(4 + seed % 13, 1600 + seed,
                               join_bias=0.4 + 0.6 * (seed % 5) / 4)
            G = materialize(ct)
            if G.is_connected():
                assert min_edge_cuts(G) == brute_min_edge_cuts(G), ct
                checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("name", HARD_SHAPES)
    def test_hard_shapes_of_order_16(self, name):
        G = HARD_SHAPES[name]
        assert min_edge_cuts(G) == brute_min_edge_cuts(G)


def _tags_with_classifiers():
    for k in range(4):
        yield k_connected(k), lambda ct, k=k: is_k_connected_cograph(ct, k)
        yield (k_edge_connected(k),
               lambda ct, k=k: is_k_edge_connected_cograph(ct, k))
        yield exact_kappa(k), lambda ct, k=k: kappa_cograph(ct) == k
    yield maximally_connected(), is_maximally_connected
    yield super_edge_connected(), is_super_edge_connected


class TestJudgeParity:
    # Preserved.holds on the closed-form report, the flow/cut oracle and the
    # public classifier agree on every cograph of order <= 8, K1 and the
    # disconnected ones included
    COGRAPHS = [ct for n in range(1, 9) for ct in enumerate_cotrees(n)]
    CASES = list(_tags_with_classifiers())

    def test_every_cograph_is_covered(self):
        assert len(self.COGRAPHS) == 1 + 2 + 4 + 10 + 24 + 66 + 180 + 522
        assert len(self.CASES) == 14

    @pytest.mark.parametrize("tag,classifier", CASES,
                             ids=[tag.tag() for tag, _ in CASES])
    def test_three_answers_agree(self, tag, classifier):
        answers = set()
        for ct in self.COGRAPHS:
            G = materialize(ct)
            expected = classifier(ct)
            where = (format_expression(ct), tag.tag())
            assert tag.holds(analyze(ct).to_dict().__getitem__) == expected, where
            assert residual_satisfies(G, G, tag) == expected, where
            answers.add(expected)
        # every tag is met by some cograph and missed by another, except
        # the two that hold trivially
        trivial = tag in (k_connected(0), k_edge_connected(0))
        assert answers == ({True} if trivial else {True, False})


class TestInduced2K2:
    def test_examples(self):
        assert has_induced_2k2(Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert not has_induced_2k2(Graph.path(4))
        assert not has_induced_2k2(Graph.cycle(4))
        assert has_induced_2k2(Graph.path(5))
        assert not has_induced_2k2(Graph.complete(5))
