"""The augmenting-path flow routine against networkx (test-only dependency)
and the connectivity loops against the ones they replaced.

``vertex_connectivity_flow``, ``edge_connectivity_flow`` and
``internally_disjoint_paths`` all run on ``graph.maximum_flow``; networkx
computes the same quantities by its own algorithms.  networkx counts
vertex-disjoint paths without the direct edge, so that edge is removed
before asking it and counted as one path afterwards.  ``even_kappa`` and
``one_source_lambda`` (conftest) are the earlier flow loops for kappa and
lambda, which run more flows on the same routine.
"""

import random
from itertools import combinations

import networkx as nx
from conftest import all_graphs, even_kappa, one_source_lambda
from hypothesis import given, settings
from hypothesis import strategies as st

from cographs import (
    Graph,
    cotree_from_graph,
    delete_edges,
    edge_connectivity_flow,
    graph,
    internally_disjoint_paths,
    keep_connectivity_edge_delete,
    materialize,
    named_tree,
    parse_expression,
    random_cotree,
    vertex_connectivity_flow,
)
from cographs.graph import maximum_flow


def as_networkx(G: Graph) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(G.vertices)
    H.add_edges_from(G.edges)
    return H


def networkx_disjoint_paths(H: nx.Graph, u: int, v: int) -> int:
    direct = H.has_edge(u, v)
    if direct:
        H = H.copy()
        H.remove_edge(u, v)
    if not nx.has_path(H, u, v):
        return int(direct)
    return int(direct) + len(list(nx.node_disjoint_paths(H, u, v)))


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    return Graph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p])


def check_global(G: Graph) -> None:
    H = as_networkx(G)
    if G.n == 1:  # networkx has no connectivity convention for K1
        assert vertex_connectivity_flow(G) == edge_connectivity_flow(G) == 0
        return
    assert vertex_connectivity_flow(G) == nx.node_connectivity(H)
    assert edge_connectivity_flow(G) == nx.edge_connectivity(H)


def check_pair(G: Graph, H: nx.Graph, u: int, v: int) -> None:
    paths = internally_disjoint_paths(G, u, v)
    assert paths == networkx_disjoint_paths(H, u, v), (sorted(G.edges), u, v)
    edge_paths = nx.edge_connectivity(H, u, v)
    assert maximum_flow(G, u, v, False, G.n) == edge_paths
    for limit in range(4):
        assert maximum_flow(G, u, v, True, limit) == min(limit, paths)
        assert maximum_flow(G, u, v, False, limit) == min(limit, edge_paths)


class TestAgainstNetworkx:
    def test_every_labeled_graph_up_to_order_5(self):
        for n in range(1, 6):
            for G in all_graphs(n):
                check_global(G)
                H = as_networkx(G)
                for u, v in combinations(G.vertices, 2):
                    check_pair(G, H, u, v)

    def test_seeded_gnp_graphs(self):
        rng = random.Random(2024)
        for _ in range(300):
            G = gnp(rng.randint(2, 14), rng.random(), rng)
            check_global(G)
            H = as_networkx(G)
            for _ in range(3):
                u, v = rng.sample(G.vertices, 2)
                check_pair(G, H, u, v)

    def test_random_cotrees(self):
        rng = random.Random(99)
        for seed in range(120):
            ct = random_cotree(rng.randint(1, 24), seed,
                               join_bias=rng.choice((0.3, 0.6, 1.0)))
            G = materialize(ct)
            check_global(G)
            if G.n > 1:
                H = as_networkx(G)
                for _ in range(3):
                    u, v = rng.sample(G.vertices, 2)
                    check_pair(G, H, u, v)


class TestMaximumFlow:
    def test_direct_edge_counts_once(self):
        K2 = Graph.complete(2)
        assert maximum_flow(K2, 0, 1, True, 5) == 1
        assert maximum_flow(K2, 0, 1, False, 5) == 1
        assert internally_disjoint_paths(Graph.complete(5), 0, 4) == 4

    def test_second_path_reroutes_the_first(self):
        # 0 and 5 share no neighbour, so nothing is seeded; the first BFS
        # path 0-1-3-5 blocks 0-2-3, and only the reverse arc 3 -> 1 turns
        # the pair into 0-1-4-5 and 0-2-3-5
        G = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3),
                                 (3, 5), (4, 5)])
        assert maximum_flow(G, 0, 5, True, 9) == 2
        assert maximum_flow(G, 0, 5, False, 9) == 2

    def test_reroute_goes_back_through_a_used_vertex(self):
        # BFS first takes 0-1-3-6-8; the second path enters 6 from 5 and must
        # walk back through 3 (out-node to in-node) to leave 1 towards 4
        G = Graph.from_edges(9, [(0, 1), (1, 3), (3, 6), (6, 8), (1, 4),
                                 (4, 7), (7, 8), (0, 2), (2, 5), (5, 6)])
        assert maximum_flow(G, 0, 8, True, 9) == 2

    def test_cancelled_edge_is_free_again(self):
        # 0-1-2-11 first, then 0-3-2-1-4-11 cancels edge 1-2, which the
        # third path 0-5-6-7-1-2-8-9-10-11 needs
        G = Graph.from_edges(12, [(0, 1), (1, 2), (2, 11), (0, 3), (3, 2),
                                  (1, 4), (4, 11), (0, 5), (5, 6), (6, 7),
                                  (7, 1), (2, 8), (8, 9), (9, 10), (10, 11)])
        assert maximum_flow(G, 0, 11, False, 12) == 3


class TestSourceBound:
    def test_separator_holds_the_first_vertices(self):
        # K_k on labels 0..k-1 joined to two disjoint cliques: the only
        # minimum separator is {0, ..., k-1}, so the source that finds
        # kappa = k is v_(k+1)
        for k, side in ((1, 2), (2, 3), (3, 4)):
            n = k + 2 * side
            left = range(k, k + side)
            right = range(k + side, n)
            edges = [(u, v) for u, v in combinations(range(n), 2)
                     if u < k or not (u in left and v in right)]
            G = Graph.from_edges(n, edges)
            assert vertex_connectivity_flow(G) == k
            assert G.min_degree() == k + side - 1


def check_against_references(G: Graph) -> None:
    assert vertex_connectivity_flow(G) == even_kappa(G), sorted(G.edges)
    assert edge_connectivity_flow(G) == one_source_lambda(G), sorted(G.edges)


@st.composite
def gnp_graphs(draw):
    n = draw(st.integers(1, 14))
    p = draw(st.floats(0.0, 1.0))
    pairs = list(combinations(range(n), 2))
    coins = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs),
                          max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, c in zip(pairs, coins) if c < p])


class TestReferenceLoops:
    def test_every_labeled_graph_up_to_order_6(self):
        for n in range(1, 7):
            for G in all_graphs(n):
                check_against_references(G)

    @settings(max_examples=300, deadline=None)
    @given(gnp_graphs())
    def test_gnp_graphs(self, G):
        check_against_references(G)

    def test_edge_deleted_cotree_residuals(self):
        # the residuals ``cograph embed`` reports by flow: a cograph less a
        # few of its edges, most often no longer a cograph
        rng = random.Random(12)
        non_cographs = 0
        for seed in range(300):
            G = materialize(random_cotree(rng.randint(4, 20), seed,
                                          join_bias=rng.choice((0.6, 0.8, 1.0))))
            edges = sorted(G.edges)
            R = delete_edges(G, rng.sample(edges, min(len(edges),
                                                      rng.randint(1, 6))))
            non_cographs += not cotree_from_graph(R).is_cograph
            check_against_references(R)
        assert non_cographs > 150


class TestMinimumDegreeVertex:
    def test_pair_in_the_neighbourhood_finds_kappa(self):
        # vertex 0 is joined to two vertices of each of two disjoint K5; it
        # has minimum degree 4 and {0} is the only minimum separator, so
        # each flow to a non-neighbour reads 2 and only the pair (1, 6) of
        # N(0) reads kappa = 1
        left, right = range(1, 6), range(6, 11)
        edges = [(0, 1), (0, 2), (0, 6), (0, 7)]
        edges += list(combinations(left, 2)) + list(combinations(right, 2))
        G = Graph.from_edges(11, edges)
        assert G.min_degree() == G.degree(0) == 4
        assert vertex_connectivity_flow(G) == 1
        assert maximum_flow(G, 0, 3, True, 9) == maximum_flow(G, 0, 8, True, 9) == 2

    def test_non_neighbour_finds_kappa(self):
        # two K5 joined by the edges 3-5 and 4-6: N(0) is a clique, so no
        # pair step runs, and only the flows from 0 across read kappa = 2
        edges = list(combinations(range(5), 2)) + list(combinations(range(5, 10), 2))
        G = Graph.from_edges(10, edges + [(3, 5), (4, 6)])
        assert G.min_degree() == G.degree(0) == 4
        assert vertex_connectivity_flow(G) == 2


class TestDominatingSet:
    def test_a_later_dominator_reaches_the_second_side(self):
        # K6 on 0..5 less the edge 0-5 and K6 on 6..11, joined by 1-6:
        # lambda = 1 < delta = 4.  The greedy set is D = (0, 5, 6); the
        # flow from 0 to 5 stays on 0's side and reads 4, and only the
        # later dominator 6 lies across the cut
        edges = [e for e in combinations(range(6), 2) if e != (0, 5)]
        edges += list(combinations(range(6, 12), 2)) + [(1, 6)]
        G = Graph.from_edges(12, edges)
        assert G.min_degree() == 4
        assert maximum_flow(G, 0, 5, False, 9) == 4
        assert edge_connectivity_flow(G) == 1


class TestFlowCount:
    def test_th3_residual_takes_fewer_flows_than_the_references(self, monkeypatch):
        # the residual of the th3 case of ``TestEmbedGolden`` (test_cli.py),
        # which ``cograph embed`` reports by flow: kappa = lambda = 3
        G = materialize(parse_expression("(K1|K1)+K2+(K1|K2)"))
        R = keep_connectivity_edge_delete(G, named_tree("star:3"), 2).residual(G)
        assert not cotree_from_graph(R).is_cograph
        calls = []

        def counting(*args):
            calls.append(args)
            return maximum_flow(*args)

        monkeypatch.setattr(graph, "maximum_flow", counting)
        assert (vertex_connectivity_flow(R), edge_connectivity_flow(R)) == (3, 3)
        new = len(calls)
        assert (even_kappa(R), one_source_lambda(R)) == (3, 3)
        assert new < len(calls) - new
