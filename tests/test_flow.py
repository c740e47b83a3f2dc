"""The augmenting-path flow routine against networkx (test-only dependency).

``vertex_connectivity_flow``, ``edge_connectivity_flow`` and
``internally_disjoint_paths`` all run on ``graph.maximum_flow``; networkx
computes the same quantities by its own algorithms.  networkx counts
vertex-disjoint paths without the direct edge, so that edge is removed
before asking it and counted as one path afterwards.
"""

import random
from itertools import combinations

import networkx as nx
from conftest import all_graphs

from cographs import (
    Graph,
    edge_connectivity_flow,
    internally_disjoint_paths,
    materialize,
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
