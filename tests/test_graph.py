"""Graph core: surgery semantics, flow oracles, conventions, edge-list IO."""

from itertools import combinations
from pathlib import Path

import pytest
from conftest import all_graphs, brute_kappa, brute_lambda

from cographs import (
    Graph,
    TreeShape,
    delete_edges,
    delete_vertices,
    edge_connectivity_flow,
    format_edge_list,
    induced_subgraph,
    internally_disjoint_paths,
    is_k_connected,
    is_k_edge_connected,
    materialize,
    parse_expression,
    read_edge_list,
    vertex_connectivity_flow,
)
from cographs.errors import (
    EdgeListSyntaxError,
    EmptySetError,
    UnknownEdgeError,
    UnknownVertexError,
    WouldBeEmptyError,
)


class TestSurgery:
    def test_induced_subgraph_of_c4_is_path(self):
        H = induced_subgraph(Graph.cycle(4), {0, 1, 2})
        assert H.vertices == (0, 1, 2)
        assert H.edges == frozenset({(0, 1), (1, 2)})

    def test_induced_subgraph_of_k5_is_k3(self):
        H = induced_subgraph(Graph.complete(5), {1, 3, 4})
        assert H.is_complete() and H.n == 3

    def test_induced_subgraph_extracts_primary_cocomponent(self):
        # 7-vertex cograph with n' = 4: its primary cocomponent stands alone
        G = materialize(parse_expression("(K1|K2|K1)+(K1|K1)+K1"))
        H = induced_subgraph(G, {0, 1, 2, 3})
        assert H.edges == frozenset({(1, 2)})

    def test_labels_survive_deletion(self):
        G = delete_vertices(Graph.complete(3), {1})
        assert G.vertices == (0, 2)
        assert G.has_edge(0, 2)

    def test_delete_vertices_equals_induced_complement(self):
        G = materialize(parse_expression("(K1|K2|K1)+(K1|K1)+K1"))
        for S in ({0}, {1, 5}, {2, 3, 6}):
            rest = set(G.vertices) - S
            assert delete_vertices(G, S) == induced_subgraph(G, rest)

    def test_k4_minus_vertex_is_k3(self):
        assert delete_vertices(Graph.complete(4), {2}).is_complete()

    def test_c4_minus_edge_is_p4(self):
        H = delete_edges(Graph.cycle(4), [(0, 3)])
        assert len(H.edges) == 3 and H.is_connected()

    def test_components_on_every_small_graph(self):
        # sorted closures under adjacency, in order of their smallest label
        for n in range(1, 6):
            for G in all_graphs(n):
                comps = []
                for v in G.vertices:
                    if any(v in c for c in comps):
                        continue
                    comp, grown = {v}, True
                    while grown:
                        near = {w for u in comp for w in G.neighbors(u)}
                        grown = not near <= comp
                        comp |= near
                    comps.append(tuple(sorted(comp)))
                assert G.components() == comps

    def test_complete_minus_m_vertices(self):
        # K_{k+m} minus any m vertices is K_k
        H = delete_vertices(Graph.complete(5), {1, 4})
        assert H.is_complete() and H.n == 3

    def test_errors(self):
        G = Graph.cycle(4)
        with pytest.raises(EmptySetError):
            induced_subgraph(G, set())
        with pytest.raises(UnknownVertexError):
            induced_subgraph(G, {0, 9})
        with pytest.raises(WouldBeEmptyError):
            delete_vertices(G, {0, 1, 2, 3})
        with pytest.raises(UnknownEdgeError):
            delete_edges(G, [(0, 2)])
        with pytest.raises(UnknownVertexError):
            internally_disjoint_paths(G, 0, 9)

    def test_refusals_name_their_fault(self):
        G = Graph.cycle(4)
        with pytest.raises(UnknownVertexError, match=r"^vertex 99 not in graph$"):
            delete_vertices(G, {99})
        # an unknown label is named even when the rest would empty the graph
        with pytest.raises(UnknownVertexError, match=r"^vertex 99 not in graph$"):
            delete_vertices(G, {0, 1, 2, 3, 99})
        with pytest.raises(WouldBeEmptyError, match="^cannot delete every vertex$"):
            delete_vertices(G, [3, 2, 1, 0, 0])
        with pytest.raises(UnknownVertexError, match="^endpoints must be distinct$"):
            internally_disjoint_paths(G, 0, 0)

    def test_surgery_matches_validating_constructor(self):
        # surgery builds from adjacency unchecked; it must equal the graph the
        # public constructor builds from the same vertices and edges
        def same(H, vertices, edges):
            want = Graph(vertices, edges)
            assert H == want and H.vertices == want.vertices
            assert H.edges == want.edges
            assert H.is_complete() == want.is_complete()
            assert repr(H) == repr(want) and hash(H) == hash(want)

        for n in range(1, 6):
            subsets = [set(c) for r in range(1, n + 1)
                       for c in combinations(range(n), r)]
            for G in all_graphs(n):
                edges = sorted(G.edges)
                for S in subsets:
                    inside = [(u, v) for u, v in edges if u in S and v in S]
                    same(induced_subgraph(G, S), S, inside)
                    rest = set(G.vertices) - S
                    if rest:
                        outside = [(u, v) for u, v in edges
                                   if u in rest and v in rest]
                        same(delete_vertices(G, S), rest, outside)
                for e in edges:
                    same(delete_edges(G, [e]), G.vertices,
                         [f for f in edges if f != e])
                    same(delete_edges(G, [f for f in edges if f != e]),
                         G.vertices, [e])

    def test_adjacency_format_stays_in_graph_module(self):
        import cographs
        package = Path(cographs.__file__).parent
        for path in sorted(package.glob("*.py")):
            if path.name != "graph.py":
                text = path.read_text()
                assert "._adj" not in text and "Graph._of" not in text, path.name


class TestFlowConnectivity:
    def test_trivial_graph_conventions(self):
        K1 = Graph([0], [])
        assert vertex_connectivity_flow(K1) == 0
        assert edge_connectivity_flow(K1) == 0
        assert is_k_connected(K1, 1) and is_k_edge_connected(K1, 1)
        assert not is_k_connected(K1, 2)

    def test_small_examples(self):
        assert vertex_connectivity_flow(Graph.cycle(4)) == 2
        assert edge_connectivity_flow(Graph.cycle(4)) == 2
        assert edge_connectivity_flow(Graph.path(3)) == 1
        assert vertex_connectivity_flow(Graph.complete(6)) == 5

    def test_disconnected(self):
        G = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert vertex_connectivity_flow(G) == 0
        assert edge_connectivity_flow(G) == 0
        assert not is_k_connected(G, 1)

    def test_disjoint_paths_examples(self):
        K4 = Graph.complete(4)
        assert internally_disjoint_paths(K4, 0, 3) == 3
        P4 = Graph.path(4)
        assert internally_disjoint_paths(P4, 0, 3) == 1

    def test_disjoint_paths_on_2k2_free_cograph(self):
        # K_{3,3} is 2K2-free: every pair gets min(deg, deg) disjoint paths
        G = materialize(parse_expression("(K1|K1|K1)+(K1|K1|K1)"))
        for u in G.vertices:
            for v in G.vertices:
                if u < v:
                    want = min(G.degree(u), G.degree(v))
                    assert internally_disjoint_paths(G, u, v) == want

    def test_flow_matches_brute_force_small(self):
        for n in range(1, 5):
            for G in all_graphs(n):
                assert vertex_connectivity_flow(G) == brute_kappa(G)
                assert edge_connectivity_flow(G) == brute_lambda(G)

    def test_flow_matches_brute_force_sampled(self):
        import random
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(5, 8)
            edges = [e for e in
                     [(i, j) for i in range(n) for j in range(i + 1, n)]
                     if rng.random() < 0.5]
            G = Graph.from_edges(n, edges)
            assert vertex_connectivity_flow(G) == brute_kappa(G)
            assert edge_connectivity_flow(G) == brute_lambda(G)

    def test_kappa_lambda_delta_chain(self):
        import random
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 8)
            edges = [e for e in
                     [(i, j) for i in range(n) for j in range(i + 1, n)]
                     if rng.random() < 0.6]
            G = Graph.from_edges(n, edges)
            assert (vertex_connectivity_flow(G) <= edge_connectivity_flow(G)
                    <= G.min_degree())


class TestEdgeListFormat:
    def test_round_trip(self):
        G = Graph.from_edges(5, [(0, 1), (1, 4), (2, 3)])
        assert read_edge_list(format_edge_list(G)) == G

    def test_comments_and_blanks(self):
        text = "# a triangle plus an isolated vertex\n4\n0 1\n\n1 2  # closing\n0 2\n"
        G = read_edge_list(text)
        assert G.n == 4 and len(G.edges) == 3

    def test_bad_input(self):
        with pytest.raises(ValueError):
            read_edge_list("#only comments\n")
        with pytest.raises(ValueError):
            read_edge_list("3\n0 1 2\n")
        with pytest.raises(EdgeListSyntaxError):
            read_edge_list("x\n")


class TestConstructor:
    def test_negative_label_is_refused(self):
        with pytest.raises(UnknownVertexError,
                           match="^vertex labels must be non-negative$"):
            Graph([-1], [])

    def test_neighbors_of_an_unknown_vertex(self):
        with pytest.raises(UnknownVertexError, match="^vertex 9 not in graph$"):
            Graph.path(2).neighbors(9)

    def test_a_graph_equals_no_other_type(self):
        assert (Graph.path(2) == 1) is False


class TestTreeShape:
    def test_path_bipartition(self):
        T = TreeShape.from_graph(Graph.path(4))
        assert tuple(map(len, T.bipartition)) == (2, 2)
        assert T.beta == 2 and T.max_degree == 2

    def test_star_bipartition(self):
        T = TreeShape.from_graph(
            Graph.from_edges(5, [(0, i) for i in range(1, 5)]))
        assert T.bipartition == ((1, 2, 3, 4), (0,))
        assert T.beta == 1 and T.max_degree == 4

    def test_single_vertex(self):
        T = TreeShape.from_graph(Graph([0], []))
        assert T.order == 1 and T.beta == 0 and T.max_degree == 0

    def test_rejects_non_trees(self):
        with pytest.raises(ValueError):
            TreeShape.from_graph(Graph.cycle(4))
        with pytest.raises(ValueError):
            TreeShape.from_graph(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_every_edge_crosses_bipartition(self):
        from cographs import random_tree
        for seed in range(25):
            T = random_tree(7, seed)
            v1, v2 = map(set, T.bipartition)
            assert len(v1) >= len(v2)
            for u, v in T.tree.edges:
                assert (u in v1) != (v in v1)
