"""Closed-form invariants and classifiers against the flow/brute oracles."""

import random
from dataclasses import fields

import pytest
from conftest import all_graphs, cograph_stream, has_induced_p4_scan

from cographs import (
    Graph,
    analyze,
    delete_edges,
    edge_connectivity_flow,
    enumerate_cotrees,
    has_induced_2k2,
    internally_disjoint_paths,
    is_ideally_connected,
    is_maximally_connected,
    is_super_edge_connected,
    kappa_cograph,
    lambda_cograph,
    materialize,
    min_edge_cuts,
    parse_expression,
    vertex_connectivity_flow,
)
from cographs.analysis import _is_c4_degrees, as_cotree, degrees
from cographs.cotree import cocomponents, format_expression
from cographs.errors import NotACographError


class TestKappaLambda:
    def test_seven_vertex_example(self):
        assert kappa_cograph(parse_expression("(K1|K2|K1)+(K1|K1)+K1")) == 3

    def test_complete(self):
        assert kappa_cograph(parse_expression("K6")) == 5

    def test_kappa_matches_flow(self):
        for ct in cograph_stream(80, 2, nmax=12):
            assert kappa_cograph(ct) == vertex_connectivity_flow(materialize(ct))

    def test_lambda_examples(self):
        assert lambda_cograph(parse_expression("(K1|K1)+(K1|K1)")) == 2
        assert lambda_cograph(parse_expression("K2|K2")) == 0

    def test_lambda_matches_flow(self):
        for ct in cograph_stream(60, 9, nmax=12):
            assert lambda_cograph(ct) == edge_connectivity_flow(materialize(ct))


class TestMaximallyConnected:
    def test_examples(self):
        assert is_maximally_connected(parse_expression("(K1|K2|K1)+(K1|K1)+K1"))
        assert is_maximally_connected(parse_expression("K5"))
        assert not is_maximally_connected(parse_expression("(K2|K2)+K1"))

    def test_all_primary_ties_are_checked(self):
        # two maximum-order cocomponents; only the second has an isolated vertex
        ct = parse_expression("(K2|K2)+(K1|K3)")
        first, second = cocomponents(ct)[:2]
        assert first.n == second.n == 4
        assert is_maximally_connected(ct)

    def test_matches_flow_definition(self):
        for ct in cograph_stream(80, 21, nmax=11):
            G = materialize(ct)
            truth = vertex_connectivity_flow(G) == G.min_degree()
            assert is_maximally_connected(ct) == truth


class TestSuperEdgeConnected:
    def test_c4_is_not_super(self):
        assert not is_super_edge_connected(parse_expression("(K1|K1)+(K1|K1)"))

    def test_pendant_clique_shape_is_not_super(self):
        # (K2|K2)+K1: a minimum cut detaches one K2 without isolating anything
        ct = parse_expression("(K2|K2)+K1")
        assert not is_super_edge_connected(ct)
        cuts = min_edge_cuts(materialize(ct))
        assert cuts[0].size == 2
        assert any(c.isolates is None for c in cuts)

    def test_two_connected_noncomplete_examples_are_super(self):
        for expr in ("(K1|K1)+(K1|K1)+K1", "(K2|K2)+(K1|K1)", "K4", "K2+K2"):
            ct = parse_expression(expr)
            if kappa_cograph(ct) >= 2 and materialize(ct) != Graph.cycle(4):
                assert is_super_edge_connected(ct), expr

    def test_matches_cut_enumeration(self):
        for ct in cograph_stream(60, 33, nmax=10):
            if not ct.is_connected():
                continue
            G = materialize(ct)
            truth = all(c.isolates is not None for c in min_edge_cuts(G))
            assert is_super_edge_connected(ct) == truth

    def test_c4_degree_rule_picks_out_only_c4(self):
        # four vertices of degree 2: among all cographs of order <= 8 the
        # rule holds for the 4-cycle alone
        hits = [format_expression(ct)
                for n in range(1, 9) for ct in enumerate_cotrees(n)
                if _is_c4_degrees(degrees(ct))]
        assert hits == ["(K1|K1)+(K1|K1)"]

    def test_disconnected_convention(self):
        # exactly one isolated vertex: super by convention
        assert is_super_edge_connected(parse_expression("K2|K1"))
        assert not is_super_edge_connected(parse_expression("K1|K1"))
        assert not is_super_edge_connected(parse_expression("K2|K2"))
        assert analyze(parse_expression("K2|K1")).super_by_convention


class TestIdeallyConnected:
    def test_examples(self):
        assert is_ideally_connected(parse_expression("(K1|K1|K1)+(K1|K1|K1)"))
        assert not is_ideally_connected(parse_expression("(K2|K2)+K1"))

    def test_matches_disjoint_path_oracle(self):
        for ct in cograph_stream(40, 47, nmax=8):
            G = materialize(ct)
            truth = all(
                internally_disjoint_paths(G, u, v)
                >= min(G.degree(u), G.degree(v))
                for i, u in enumerate(G.vertices) for v in G.vertices[i + 1:])
            assert is_ideally_connected(ct) == truth

    def test_matches_2k2_scan_on_every_small_cograph(self):
        # every cograph through order 9 up to isomorphism, then every
        # labeled cograph through order 6
        for n in range(1, 10):
            for ct in enumerate_cotrees(n):
                assert is_ideally_connected(ct) == (
                    not has_induced_2k2(materialize(ct)))
        for n in range(1, 7):
            for G in all_graphs(n):
                if not has_induced_p4_scan(G):
                    assert is_ideally_connected(as_cotree(G)) == (
                        not has_induced_2k2(G))


class TestAnalyze:
    def test_c4_report(self):
        rep = analyze(parse_expression("(K1|K1)+(K1|K1)")).to_dict()
        assert rep == {
            "n": 4, "n_prime": 2, "t": 2, "delta": 2, "Delta": 2,
            "kappa": 2, "lambda": 2, "connected": True,
            "maximally_connected": True, "maximally_edge_connected": True,
            "super_edge_connected": False, "ideally_connected": True,
            "dirac": True, "super_by_convention": False,
        }

    def test_trivial_graph(self):
        rep = analyze(Graph([0], []))
        assert rep.n == 1 and rep.kappa == 0 and rep.lambda_ == 0
        assert rep.connected and not rep.dirac

    def test_p4_raises_with_witness(self):
        with pytest.raises(NotACographError) as err:
            analyze(Graph.path(4))
        assert err.value.witness == (0, 1, 2, 3)

    def test_cross_field_invariants(self):
        for ct in cograph_stream(80, 61, nmax=11):
            rep = analyze(ct)
            assert rep.kappa == rep.n - rep.n_prime
            assert rep.kappa <= rep.lambda_ <= rep.delta
            if rep.connected:
                # implication chain (connected case; C4 exempt from super)
                if rep.ideally_connected:
                    assert rep.maximally_connected
                if rep.maximally_connected and rep.n != 4:
                    assert rep.super_edge_connected
                assert rep.maximally_edge_connected

    def test_degrees_match_materialized(self):
        for ct in cograph_stream(30, 71, nmax=10):
            G = materialize(ct)
            assert degrees(ct) == {v: G.degree(v) for v in G.vertices}
            assert list(degrees(ct)) == ct.root.labels()  # leaf order


class TestEdgeDeletionLemma:
    def test_kappa_survives_internal_edge_deletion(self):
        rng = random.Random(99)
        checked = 0
        for ct in cograph_stream(160, 101, nmax=12):
            parts = cocomponents(ct)
            if len(parts) < 2:
                continue
            G = materialize(ct)
            internal = [e for part in parts
                        for e in G.edges
                        if e[0] in set(part.labels) and e[1] in set(part.labels)]
            if not internal:
                continue
            F = rng.sample(internal, rng.randint(1, len(internal)))
            assert vertex_connectivity_flow(delete_edges(G, F)) \
                == kappa_cograph(ct)
            checked += 1
        assert checked >= 30


class TestReportDict:
    def test_keys_follow_the_field_order(self):
        rep = analyze(parse_expression("(K3|K2)+K4"))
        assert list(rep.to_dict()) == [
            "n", "n_prime", "t", "delta", "Delta", "kappa", "lambda",
            "connected", "maximally_connected", "maximally_edge_connected",
            "super_edge_connected", "ideally_connected", "dirac",
            "super_by_convention"]
        assert list(rep.to_dict().values()) \
            == [getattr(rep, f.name) for f in fields(rep)]


class TestReadsCotreeNodes:
    """``analyze`` reads the cocomponents and components of a cotree as the
    nodes they are; it validates no ``Cotree`` of its own."""

    @pytest.mark.parametrize("expr", [
        "(K1|K2|K1)+(K1|K1)+K1",  # t = 3, isolated vertices in G1
        "(K2|K2)+K1",             # the H + K1 clause of the super rule
        "(K2|K2)+(K1|K3)+K2",     # tied primary cocomponents
        "K6",                     # t = n
    ])
    def test_analyze_on_a_cotree_builds_none(self, expr, cotree_inits):
        ct = parse_expression(expr)
        assert analyze(ct).t >= 2
        assert cotree_inits == [ct]
