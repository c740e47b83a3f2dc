"""Property-based tests of recognition and of the cut oracle (hypothesis)."""

from itertools import combinations

from conftest import brute_min_edge_cuts
from hypothesis import given, settings
from hypothesis import strategies as st

from cographs import (
    Graph,
    cotree_from_graph,
    format_expression,
    materialize,
    min_edge_cuts,
    random_cotree,
)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def random_cographs(draw):
    n = draw(st.integers(1, 40))
    return random_cotree(n, draw(st.integers(0, 2**32 - 1)),
                         join_bias=draw(st.floats(0.0, 1.0)))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(1, 10))
    # a random spanning tree keeps the graph connected; a mask adds the rest
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(
        n, tree | {e for i, e in enumerate(pairs) if mask >> i & 1})


@SETTINGS
@given(random_cographs(), st.randoms(use_true_random=False))
def test_recognition_recovers_the_expression(ct, rng):
    G = materialize(ct)
    result = cotree_from_graph(G)
    assert result.is_cograph
    assert format_expression(result.cotree) == format_expression(ct)
    # under new labels the sibling order may change, the graph may not
    perm = list(range(ct.n))
    rng.shuffle(perm)
    H = Graph.from_edges(ct.n, [(perm[u], perm[v]) for u, v in G.edges])
    assert materialize(cotree_from_graph(H).cotree) == H


@SETTINGS
@given(small_graphs())
def test_recognition_gives_a_cotree_or_a_p4(G):
    result = cotree_from_graph(G)
    if result.is_cograph:
        assert materialize(result.cotree) == G
        return
    a, b, c, d = result.witness
    assert len({a, b, c, d}) == 4
    assert G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(c, d)
    assert not (G.has_edge(a, c) or G.has_edge(a, d) or G.has_edge(b, d))


@SETTINGS
@given(connected_graphs())
def test_min_edge_cuts_match_the_plain_loop(G):
    assert min_edge_cuts(G) == brute_min_edge_cuts(G)
