"""Tight constructions, random cotrees/trees, and shape enumeration."""

import pytest

from cographs import (
    Graph,
    analyze,
    enumerate_cotrees,
    materialize,
    named_tree,
    random_cotree,
    random_tree,
    tight_example,
)
from cographs.analysis import degrees
from cographs.cotree import cotree_from_graph, format_expression
from cographs.errors import (
    BadSpecError,
    ParamViolationError,
    PostconditionFailedError,
)


class TestTightExamples:
    def test_case1(self):
        ex = tight_example("th1case1", k=2, m=3)
        assert ex.expression == "K5"
        assert ex.claimed == {"kappa": 4, "delta": 4}

    def test_case1_with_k1(self):
        ex = tight_example("th1case1", k=1, m=2)
        assert ex.expression == "K2"

    def test_case4(self):
        ex = tight_example("th1case4", k=1, m=2)
        rep = analyze(ex.cotree)
        assert rep.delta == 1 and rep.kappa == 1 and rep.n_prime == 3

    def test_case2_smallest_instance(self):
        ex = tight_example("th1case2", k=4, m=1)
        rep = analyze(ex.cotree)
        assert rep.n_prime == 4 and rep.kappa == 4 and rep.delta == 5

    def test_case3_smallest_instance(self):
        ex = tight_example("th1case3", k=6, m=5)
        rep = analyze(ex.cotree)
        assert rep.kappa == rep.n_prime == 8 and rep.delta == 11

    def test_th2_tight(self):
        ex = tight_example("th2tight", k=3, m=1)
        rep = analyze(ex.cotree)
        assert rep.kappa == 3 and rep.delta == 4

    def test_max_edge_keep_tight(self):
        ex = tight_example("maxedgekeeptight", m=3)
        rep = analyze(ex.cotree)
        assert rep.delta == rep.lambda_ == 2 and rep.maximally_edge_connected

    def test_super_keep_tight(self):
        ex = tight_example("superkeeptight", m=2)
        rep = analyze(ex.cotree)
        assert rep.delta == 3 and rep.super_edge_connected

    @pytest.mark.parametrize("kind,k,m", [
        ("th1case2", 3, 2),       # needs k >= 4
        ("th1case2", 4, 2),       # needs m < floor(k/2)
        ("th1case3", 5, 5),       # needs even k
        ("th1case3", 6, 4),       # needs m = 1 mod 4
        ("th1case4", 4, 3),       # needs k <= 2m - 3
        ("th2tight", 2, 1),       # needs odd k
        ("th2tight", 3, 2),       # needs m <= floor(k/2)
        ("superkeeptight", None, 3),  # needs even m
        ("maxedgekeeptight", None, 1),  # needs m >= 2
    ])
    def test_param_violations(self, kind, k, m):
        with pytest.raises(ParamViolationError):
            tight_example(kind, k=k, m=m)

    def test_claim_mismatch_raises(self, monkeypatch):
        import dataclasses

        import cographs.generators as generators_module

        def off_by_one(ct):
            report = analyze(ct)
            return dataclasses.replace(report, kappa=report.kappa + 1)

        monkeypatch.setattr(generators_module, "analyze", off_by_one)
        with pytest.raises(PostconditionFailedError, match="claimed kappa"):
            tight_example("th1case1", k=2, m=3)

    def test_unknown_kind(self):
        with pytest.raises(ParamViolationError):
            tight_example("bogus", k=1, m=1)

    def test_k_rejected_for_m_only_kinds(self):
        with pytest.raises(ParamViolationError):
            tight_example("superkeeptight", k=2, m=2)


class TestTightnessCertificates:
    """One below each bound, exhaustive search finds no keeping tree."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_complete_case_grid(self, k, m):
        from cographs import exhaustive_keeping_search, materialize, named_tree
        from cographs.embedding import Preserved
        from cographs.oracle import ProvenNone
        G = materialize(tight_example("th1case1", k=k, m=m).cotree)
        result = exhaustive_keeping_search(G, named_tree(f"path:{m}"),
                                           Preserved("k_connected", k))
        assert isinstance(result, ProvenNone)

    @pytest.mark.parametrize("m", [2, 3])
    def test_large_primary_case_grid(self, m):
        from cographs import exhaustive_keeping_search, materialize, named_tree
        from cographs.embedding import Preserved
        from cographs.oracle import ProvenNone
        G = materialize(tight_example("th1case4", k=1, m=m).cotree)
        for shape in (f"path:{m}", f"star:{m}"):
            result = exhaustive_keeping_search(G, named_tree(shape),
                                               Preserved("k_connected", 1))
            assert isinstance(result, ProvenNone)

    def test_disjoint_pair_case(self):
        # no pair of disjoint vertices keeps kappa exactly 3
        from cographs import delete_vertices, materialize, vertex_connectivity_flow
        G = materialize(tight_example("th2tight", k=3, m=1).cotree)
        pairs = [(a, b) for a in G.vertices for b in G.vertices if a < b]
        assert all(vertex_connectivity_flow(delete_vertices(G, {a, b})) != 3
                   for a, b in pairs)

    # every admissible (k, m) up to the oracle's cap -> copies of path:m;
    # (6, 1) and (6, 2) build the same graph, (K3|K3)+(K3|K3)
    SMALL_PRIMARY = {(4, 1): 8, (5, 1): 10, (6, 1): 12, (6, 2): 48,
                     (7, 1): 14, (7, 2): 67}

    def test_small_primary_pairs_within_the_cap(self):
        from cographs.oracle import DEFAULT_EMBED_CAP
        admissible = set()
        for k in range(1, DEFAULT_EMBED_CAP + 1):
            for m in range(1, DEFAULT_EMBED_CAP + 1):
                try:
                    ex = tight_example("th1case2", k=k, m=m)
                except ParamViolationError:
                    continue
                if materialize(ex.cotree).n <= DEFAULT_EMBED_CAP:
                    admissible.add((k, m))
        assert admissible == set(self.SMALL_PRIMARY)

    @pytest.mark.parametrize("k,m", sorted(SMALL_PRIMARY))
    def test_small_primary_case_grid(self, k, m):
        from cographs import exhaustive_keeping_search, keep_vertex_connectivity_bound
        from cographs.embedding import Preserved
        from cographs.oracle import ProvenNone
        ex = tight_example("th1case2", k=k, m=m)
        assert keep_vertex_connectivity_bound(k, m, ex.claimed["n_prime"])[0] \
            == "small_primary"
        G = materialize(ex.cotree)
        for shape in (f"path:{m}", f"star:{m}"):
            result = exhaustive_keeping_search(G, named_tree(shape),
                                               Preserved("k_connected", k))
            assert isinstance(result, ProvenNone)
            assert result.examined == self.SMALL_PRIMARY[k, m]

    def test_max_edge_keep_case(self):
        # any deletion of a tree of order m disconnects the graph
        from cographs import exhaustive_keeping_search, materialize, named_tree
        from cographs.embedding import Preserved
        from cographs.oracle import ProvenNone
        G = materialize(tight_example("maxedgekeeptight", m=3).cotree)
        result = exhaustive_keeping_search(G, named_tree("path:3"),
                                           Preserved("k_connected", 1))
        assert isinstance(result, ProvenNone)


class TestRandomCotree:
    def test_trivial(self):
        assert random_cotree(1, 0).n == 1

    @pytest.mark.parametrize("make,message", [
        (lambda: random_cotree(0, 1), "n must be positive"),
        (lambda: enumerate_cotrees(0), "n must be positive"),
        (lambda: random_tree(0, 1), "m must be positive"),
    ])
    def test_order_zero_is_refused(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_deterministic(self):
        a = format_expression(random_cotree(9, 42))
        b = format_expression(random_cotree(9, 42))
        assert a == b

    def test_validity_and_round_trip(self):
        for seed in range(200):
            ct = random_cotree(10, seed)
            G = materialize(ct)
            result = cotree_from_graph(G)
            assert result.is_cograph
            assert materialize(result.cotree) == G

    def test_join_bias_extremes(self):
        assert random_cotree(6, 1, join_bias=1.0).is_connected()
        assert not random_cotree(6, 1, join_bias=0.0).is_connected()


class TestTrees:
    def test_star_spec(self):
        T = named_tree("star:5")
        assert T.max_degree == 4 and T.beta == 1
        assert named_tree("star:4").m == 4

    def test_path_spec(self):
        T = named_tree("path:4")
        assert tuple(map(len, T.bipartition)) == (2, 2) and T.beta == 2

    def test_prufer_spec(self):
        T = named_tree("prufer:0,0")
        assert T.order == 4 and T.max_degree == 3  # star centered at 0

    def test_edges_spec(self):
        T = named_tree("edges:0-1,1-2,1-3")
        assert T.order == 4 and T.max_degree == 3

    def test_random_tree_shape(self):
        for seed in range(50):
            T = random_tree(7, seed)
            assert T.order == 7
            assert len(T.tree.edges) == 6 and T.tree.is_connected()

    def test_random_tree_deterministic(self):
        assert random_tree(8, 5).tree == random_tree(8, 5).tree

    @pytest.mark.parametrize("spec", [
        "path", "path:0", "loop:3", "prufer:0,9", "edges:0-1,2-3", "edges:0",
    ])
    def test_bad_specs(self, spec):
        with pytest.raises(BadSpecError):
            named_tree(spec)


class TestEnumerateCotrees:
    def test_known_counts(self):
        # isomorphism classes of cographs by order
        assert [len(enumerate_cotrees(n)) for n in range(1, 8)] \
            == [1, 2, 4, 10, 24, 66, 180]

    def test_all_distinct_and_valid(self):
        seen = set()
        for ct in enumerate_cotrees(6):
            expr = format_expression(ct)
            assert expr not in seen
            seen.add(expr)
            assert ct.n == 6
            assert cotree_from_graph(materialize(ct)).is_cograph

    def test_deltas_consistent(self):
        for ct in enumerate_cotrees(5):
            G = materialize(ct)
            assert min(degrees(ct).values()) == G.min_degree()


class TestRandomTreeOfOrderTwo:
    def test_every_seed_gives_the_single_edge(self):
        # the empty Pruefer sequence decodes to the edge (0, 1)
        for seed in range(20):
            assert random_tree(2, seed).tree == Graph.from_edges(2, [(0, 1)])
