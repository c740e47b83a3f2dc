"""Cotree parsing, formatting, recognition, and decomposition views."""

import pytest
from conftest import (
    RecursiveParser,
    all_graphs,
    cograph_stream,
    format_by_copies,
    has_induced_p4_scan,
    parse_outcome,
    recognition_outcome,
    recursive_recognize,
)

from cographs import (
    Graph,
    cocomponents,
    components,
    cotree_from_graph,
    delete_vertices,
    enumerate_cotrees,
    find_induced_p4,
    format_expression,
    materialize,
    parse_expression,
    random_cotree,
)
from cographs.cotree import JOIN, UNION, Cotree, join, leaf, union
from cographs.errors import (
    ArityError,
    ExpressionSyntaxError,
    PostconditionFailedError,
)


class TestParsing:
    def test_c4(self):
        G = materialize(parse_expression("(K1|K1)+(K1|K1)"))
        assert G == Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])

    def test_k5_shorthand(self):
        ct = parse_expression("K5")
        assert ct.root.kind == JOIN and ct.n == 5
        assert materialize(ct).is_complete()

    def test_seven_vertex_example(self):
        ct = parse_expression("((K1|K2|K1)+(K1|K1)+K1)")
        parts = cocomponents(ct)
        assert [p.n for p in parts] == [4, 2, 1]

    def test_precedence_union_binds_tighter(self):
        # a|b+c|d reads as (a|b)+(c|d)
        assert materialize(parse_expression("K1|K1+K1|K1")) \
            == materialize(parse_expression("(K1|K1)+(K1|K1)"))

    def test_whitespace_insignificant(self):
        a = materialize(parse_expression(" ( K1 | K1 ) + K2 "))
        b = materialize(parse_expression("(K1|K1)+K2"))
        assert a == b

    def test_syntax_error_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("(K1|K1")
        assert err.value.position == 6  # end of input, where ')' was due
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("K1+")
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("Kx")

    def test_k0_rejected(self):
        with pytest.raises(ArityError):
            parse_expression("K0")


class TestMaterialize:
    def test_join_of_leaves_is_complete(self):
        assert materialize(parse_expression("K1+K1+K1+K1")).is_complete()

    def test_union_of_leaves_is_edgeless(self):
        G = materialize(parse_expression("K1|K1|K1"))
        assert not G.edges and G.n == 3

    def test_star(self):
        G = materialize(parse_expression("(K1|K1|K1)+K1"))
        assert sorted(G.degree(v) for v in G.vertices) == [1, 1, 1, 3]


class TestRecognition:
    def test_p4_witness(self):
        result = cotree_from_graph(Graph.path(4))
        assert not result.is_cograph
        a, b, c, d = result.witness
        assert a == 0 and {a, b, c, d} == {0, 1, 2, 3}

    def test_c4_recognized(self):
        result = cotree_from_graph(Graph.cycle(4))
        assert result.is_cograph
        assert format_expression(result.cotree) == "(K1|K1)+(K1|K1)"

    def test_round_trip_labels_exact(self):
        for seed in range(40):
            ct = random_cotree(4 + seed % 17, seed)
            G = materialize(ct)
            result = cotree_from_graph(G)
            assert result.is_cograph
            assert materialize(result.cotree) == G

    def test_recognition_matches_p4_scan_exhaustively(self):
        for n in range(1, 6):
            for G in all_graphs(n):
                result = cotree_from_graph(G)
                assert result.is_cograph == (not has_induced_p4_scan(G))

    def test_witness_always_induces_p4(self):
        import random
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(4, 8)
            edges = [e for e in
                     [(i, j) for i in range(n) for j in range(i + 1, n)]
                     if rng.random() < 0.5]
            G = Graph.from_edges(n, edges)
            result = cotree_from_graph(G)
            assert result.is_cograph == (not has_induced_p4_scan(G))
            if result.is_cograph:
                continue
            a, b, c, d = result.witness
            assert G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(c, d)
            assert not (G.has_edge(a, c) or G.has_edge(a, d)
                        or G.has_edge(b, d))

    def test_prime_graph_without_p4_is_a_postcondition_failure(self,
                                                               monkeypatch):
        import cographs.cotree as cotree_module

        monkeypatch.setattr(cotree_module, "find_induced_p4", lambda G: None)
        with pytest.raises(PostconditionFailedError):
            cotree_from_graph(Graph.path(4))

    def test_find_induced_p4_none_on_cograph(self):
        assert find_induced_p4(Graph.cycle(4)) is None

    def test_closure_under_vertex_deletion(self):
        import random
        rng = random.Random(5)
        for seed in range(30):
            G = materialize(random_cotree(9, seed))
            S = set(rng.sample(G.vertices, rng.randint(1, 8)))
            if len(S) == G.n:
                S.pop()
            assert cotree_from_graph(delete_vertices(G, S)).is_cograph


class TestReferenceWalks:
    """The explicit-stack parser and recognizer against the recursive ones
    they replaced (kept in conftest)."""

    CORPUS = [
        "", " ", "K", "K0", "K00", "Kx", "K 1", "K1 2", "K12", "K1", " K3 ",
        "(", ")", "()", "(K1", "(K1 ", "(K1 x", "(K1))", "((K1)", "K1)",
        "K1 x", "x", "+K1", "|K1", "K1+", "K1|", "K1||K1", "K1++K1",
        "K1|+K1", "(K1)(K1)", "((K3))", "(K1|K1)+(K1|K1)", "K1|K1+K1|K1",
        " ( K1 | K1 ) + K2 ", "K10+K2|(K1|K1)", "(K1|(K1|K1))+(K1+K1)",
        "((K1|K2|K1)+(K1|K1)+K1)", "(K2+(K1|K3))|K1+K0", "(K1|K1)x",
        "(K1+(K2|(K1+K1) x", "((((K1))))", "K2|(K1+K1)|K2+K3|K1",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_parser_matches_the_recursive_one(self, text):
        assert parse_outcome(parse_expression, text) \
            == parse_outcome(lambda t: RecursiveParser(t).parse(), text)

    def test_recognition_matches_the_recursive_one_exhaustively(self):
        for n in range(1, 7):
            for G in all_graphs(n):
                assert recognition_outcome(cotree_from_graph, G) \
                    == recognition_outcome(recursive_recognize, G)


class TestCanonicality:
    def _check(self, node):
        for child in node.children:
            assert child.kind != node.kind
            self._check(child)
        if node.children:
            orders = [c.order for c in node.children]
            assert orders == sorted(orders, reverse=True)
            assert len(node.children) >= 2

    def test_no_nested_same_operator(self):
        for seed in range(30):
            self._check(random_cotree(10, seed).root)
        for ct in cograph_stream(20, 77):
            self._check(cotree_from_graph(materialize(ct)).cotree.root)
        # textual nesting flattens too
        ct = parse_expression("(K1|(K1|K1))+(K1+K1)")
        self._check(ct.root)

    def test_format_round_trip_isomorphic(self):
        for seed in range(40):
            ct = random_cotree(3 + seed % 10, seed)
            again = parse_expression(format_expression(ct))
            # same canonical shape witnesses isomorphism
            assert format_expression(again) == format_expression(ct)
            assert again.n == ct.n

    def test_format_leaf(self):
        assert format_expression(parse_expression("K1")) == "K1"


class TestDecompositionViews:
    def test_c4_cocomponents(self):
        parts = cocomponents(parse_expression("(K1|K1)+(K1|K1)"))
        assert [p.n for p in parts] == [2, 2]

    def test_disconnected_is_its_own_primary(self):
        ct = parse_expression("K2|K2")
        assert len(cocomponents(ct)) == 1
        assert cocomponents(ct)[0].n == 4
        assert [c.n for c in components(ct)] == [2, 2]

    def test_primary_tie_break_smallest_label(self):
        ct = parse_expression("(K1|K1)+(K1|K1)")
        assert cocomponents(ct)[0].labels == (0, 1)

    def test_connected_flag(self):
        assert parse_expression("K1").is_connected()
        assert parse_expression("K2+K1").is_connected()
        assert not parse_expression("K2|K2").is_connected()

    def test_a_single_part_view_is_the_argument_itself(self):
        connected = parse_expression("K2+K1")
        (part,) = components(connected)
        assert part is connected
        disconnected = parse_expression("K2|K2")
        (part,) = cocomponents(disconnected)
        assert part is disconnected

    def test_duplicate_leaf_labels_are_refused(self):
        with pytest.raises(ValueError, match="^duplicate leaf labels in cotree$"):
            Cotree(union([leaf(0), leaf(0)]))

    def test_one_child_node_is_refused(self):
        with pytest.raises(ArityError, match="^union node needs at least two"):
            union([leaf(0)])


class TestFormatterAgainstCopies:
    """The one-pass formatter writes the text of the formatter that copies
    each subtree's text into its parent's (``conftest.format_by_copies``)."""

    def test_every_cotree_of_order_at_most_8(self):
        count = 0
        for n in range(1, 9):
            for ct in enumerate_cotrees(n):
                assert format_expression(ct) == format_by_copies(ct)
                count += 1
        assert count == 809

    def test_seeded_random_cotrees(self):
        for seed in range(300):
            ct = random_cotree(1 + seed % 60, seed, join_bias=(seed % 3) / 2)
            assert format_expression(ct) == format_by_copies(ct)

    def test_threshold_cotree_nested_10_to_the_5_deep(self):
        node = leaf(0)
        for i in range(1, 100_001):
            node = (union if i % 2 else join)([node, leaf(i)])
        ct = Cotree(node)
        text = format_expression(ct)
        assert text == format_by_copies(ct)
        assert text.startswith("(" * 50_000) and len(text) == 500_000
