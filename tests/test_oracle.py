"""Brute-force oracle: enumeration, exhaustive search, cut records."""

from itertools import permutations

import pytest
from conftest import all_graphs, cograph_stream

from cographs import (
    Graph,
    enumerate_subtree_embeddings,
    exhaustive_keeping_search,
    has_induced_2k2,
    materialize,
    min_edge_cuts,
    named_tree,
    parse_expression,
)
from cographs.embedding import DeleteMode, Preserved
from cographs.errors import DisconnectedError, TooLargeError
from cographs.oracle import ProvenNone


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

    def test_env_cap_override(self, monkeypatch):
        monkeypatch.setenv("COGRAPH_ORACLE_CAP", "4")
        with pytest.raises(TooLargeError):
            min_edge_cuts(Graph.complete(5))
        monkeypatch.setenv("COGRAPH_ORACLE_CAP", "20")
        assert min_edge_cuts(Graph.complete(5))


class TestInduced2K2:
    def test_examples(self):
        assert has_induced_2k2(Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert not has_induced_2k2(Graph.path(4))
        assert not has_induced_2k2(Graph.cycle(4))
        assert has_induced_2k2(Graph.path(5))
        assert not has_induced_2k2(Graph.complete(5))
