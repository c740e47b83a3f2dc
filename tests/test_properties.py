"""Property-based tests of parsing, recognition, the cut oracle and the
constructions (hypothesis)."""

import contextlib
import io
import json
import re
import sys
from itertools import combinations

from conftest import (
    RecursiveParser,
    brute_min_edge_cuts,
    parse_outcome,
    recognition_outcome,
    recursive_recognize,
    two_component_cograph,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cographs import (
    Graph,
    analyze,
    cotree_from_graph,
    embed,
    format_expression,
    is_k_connected,
    is_k_edge_connected,
    keep_vertex_connectivity_bound,
    materialize,
    min_edge_cuts,
    parse_expression,
    random_cotree,
    random_tree,
    vertex_connectivity_flow,
)
from cographs.cli import _THEOREMS, main
from cographs.errors import (
    BoundViolatedError,
    CographError,
    DegreeTooLowError,
    IsKmError,
    NotKConnectedError,
    NotKEdgeConnectedError,
    NotMaximallyConnectedError,
    NotSuperError,
)
from cographs.graph import _MAX_ORDER
from cographs.oracle import DEFAULT_CUT_CAP, _flow_values

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


DSL_ALPHABET = "K0123456789()|+ x"
_well_formed = st.recursive(
    st.sampled_from(["K1", "K2", "K3", " K1 ", "K10"]),
    lambda inner: st.builds(lambda a, op, b, wrap: f"({a}{op}{b})" if wrap
                            else f"{a}{op}{b}",
                            inner, st.sampled_from(["|", "+", " | "]), inner,
                            st.booleans()),
    max_leaves=12)


@st.composite
def dsl_texts(draw):
    """Well-formed expressions, some with one character replaced, and
    arbitrary strings over the DSL's characters; digit runs are cut to
    three, so the reference parser never builds a huge K<n>."""
    if draw(st.booleans()):
        text = draw(st.text(alphabet=DSL_ALPHABET, max_size=40))
    else:
        text = draw(_well_formed)
        if draw(st.booleans()):
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(DSL_ALPHABET)) + text[i + 1:]
    return re.sub(r"[0-9]{4,}", lambda run: run.group()[:3], text)


@SETTINGS
@given(dsl_texts())
def test_parser_matches_the_recursive_one(text):
    assert parse_outcome(parse_expression, text) \
        == parse_outcome(lambda t: RecursiveParser(t).parse(), text)


@st.composite
def near_cographs(draw):
    """A random cograph with one to three vertex pairs toggled and its
    labels shuffled: mostly not a cograph, with a prime part of any size."""
    ct = draw(random_cographs())
    G = materialize(ct)
    edges = set(G.edges)
    if G.n >= 2:
        pairs = list(combinations(range(G.n), 2))
        for _ in range(draw(st.integers(1, 3))):
            edges ^= {pairs[draw(st.integers(0, len(pairs) - 1))]}
    perm = draw(st.permutations(range(G.n)))
    return Graph.from_edges(G.n, [(perm[u], perm[v]) for u, v in edges])


@SETTINGS
@given(near_cographs())
def test_recognition_matches_the_recursive_one(G):
    assert recognition_outcome(cotree_from_graph, G) \
        == recognition_outcome(recursive_recognize, G)


# vertex counts around both limits: K1415 is the smallest complete graph
# over the edge limit, and int() refuses strings of more than 4300 digits
_COUNTS = st.one_of(st.integers(0, 30).map(str),
                    st.integers(_MAX_ORDER + 1, 10**30).map(str),
                    st.sampled_from(["1415", str(_MAX_ORDER), "1" * 5000]))


@st.composite
def deep_or_huge_requests(draw):
    """argv and stdin for one ``cograph`` call: nested parentheses, long
    union/join chains, huge ``K<n>``, a huge edge-list header, or a huge
    tree or generator parameter."""
    shape = draw(st.sampled_from(["nest", "chain", "K", "header", "param"]))
    verb = draw(st.sampled_from(["recognize", "analyze"]))
    if shape == "nest":
        depth = draw(st.integers(0, 3000))
        core = draw(st.sampled_from(["K1", "K3|K1", "K2+K2"]))
        return [verb, "--expr", "(" * depth + core + ")" * depth], ""
    if shape == "chain":
        ops = draw(st.lists(st.sampled_from("|+"), max_size=3000))
        return [verb, "--expr", "K1" + "".join(op + "K1" for op in ops)], ""
    if shape == "K":
        return [verb, "--expr", "K" + draw(_COUNTS)], ""
    if shape == "header":
        return [verb, "-"], draw(_COUNTS) + "\n0 1\n"
    n = draw(_COUNTS)
    return draw(st.sampled_from([
        ["embed", "--theorem", "maxcon", "--tree", f"star:{n}", "--expr", "K3"],
        ["gen", "--random", f"{n},1"],
        ["gen", "--tight", f"th1case1:{n},{n}"],
        ["gen", "--tight", f"superkeeptight:{n}"]])), ""


@settings(max_examples=60, deadline=None)
@given(deep_or_huge_requests())
def test_deep_or_huge_input_gets_an_answer_or_exit_3(request):
    argv, stdin = request
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # anything outside CographError propagates
    finally:
        sys.stdin = saved
    if code == 1:  # gen parameters of 0 or over 4300 digits: a usage error
        assert argv[0] == "gen" and err.getvalue().startswith("usage error")
        return
    assert code in (0, 3)
    json.loads(out.getvalue())


@st.composite
def construction_inputs(draw):
    """A random cograph (n <= 24, mostly connected), two random trees of one
    order m <= 5 and k <= 5."""
    ct = random_cotree(draw(st.integers(1, 24)), draw(st.integers(0, 2**32 - 1)),
                       join_bias=draw(st.floats(0.5, 1.0)))
    m = draw(st.integers(1, 5))
    trees = tuple(random_tree(m, draw(st.integers(0, 2**32 - 1)))
                  for _ in range(2))
    return ct, trees, draw(st.integers(1, 5))


@st.composite
def pair_inputs(draw):
    """The natural domain of the two disjoint-pair theorems."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ct = two_component_cograph(k, m, draw(st.integers(0, 2**32 - 1)))
    T = random_tree(m, draw(st.integers(0, 2**32 - 1)))
    return ct, (T, T), k


def _refusal_confirmed(exc: CographError, G: Graph, m: int, k: int) -> bool:
    """Whether a second route agrees with a ``keep_*`` refusal."""
    if isinstance(exc, NotKConnectedError):
        return not is_k_connected(G, k)
    if isinstance(exc, NotKEdgeConnectedError):
        return not is_k_edge_connected(G, k)
    if isinstance(exc, BoundViolatedError):
        if exc.required_delta is not None:
            return G.min_degree() < exc.required_delta
        return G.n == 1 or not G.is_connected()
    if isinstance(exc, DegreeTooLowError):
        return G.min_degree() < m - 1
    if isinstance(exc, IsKmError):
        return G.n == m and G.is_complete()
    if isinstance(exc, NotMaximallyConnectedError):
        return vertex_connectivity_flow(G) != G.min_degree()
    if isinstance(exc, NotSuperError):
        return G.n > DEFAULT_CUT_CAP or not _flow_values(G)["super_edge_connected"]
    return False


def _call_every_theorem(ct, trees, k):
    G = materialize(ct)
    for name, takes_k, two_trees in _THEOREMS.values():
        args = trees if two_trees else trees[:1]
        try:
            result = getattr(embed, name)(ct, *args, *([k] if takes_k else []))
        except CographError as exc:
            assert _refusal_confirmed(exc, G, trees[0].order, k), (name, exc)
            continue
        # a copy that is returned keeps its property by flow
        residual = result.residual(G)
        prop = (result.first if two_trees else result).preserved
        if residual.n <= DEFAULT_CUT_CAP or prop.kind != "super_edge_connected":
            assert prop.holds(_flow_values(residual).__getitem__), name


@SETTINGS
@given(construction_inputs())
def test_constructions_return_or_refuse_for_a_reason(inputs):
    _call_every_theorem(*inputs)


@SETTINGS
@given(pair_inputs())
def test_pair_constructions_return_or_refuse_for_a_reason(inputs):
    _call_every_theorem(*inputs)


# the delta each single-tree theorem's abstract asks for, as a function of
# (k, m); th5 and th6 keep lambda, th1 and th3 keep kappa
_FLOORS = {
    "keep_vertex_connectivity": lambda k, m: 3 * k // 2 + m - 1,
    "keep_connectivity_edge_delete": lambda k, m: k + m - 1,
    "keep_edge_connectivity_edge_delete": lambda k, m: k + m - 1,
    "keep_edge_connectivity_vertex_delete": lambda k, m: k + m - (k == 1),
}


@SETTINGS
@given(construction_inputs())
def test_constructions_never_refuse_above_the_floor(inputs):
    ct, (T, _), k = inputs
    report = analyze(ct)
    for name, floor in _FLOORS.items():
        # joining K_c adds c to kappa, lambda and delta
        c = max(0, k - report.kappa, floor(k, T.order) - report.delta)
        lifted = parse_expression(format_expression(ct) + (f"+K{c}" if c else ""))
        getattr(embed, name)(lifted, T, k)


def test_vertex_connectivity_bound_never_exceeds_the_floor():
    for k in range(1, 31):
        for m in range(1, 31):
            for n_prime in range(1, 61):
                _, bound = keep_vertex_connectivity_bound(k, m, n_prime)
                assert bound <= 3 * k // 2 + m - 1, (k, m, n_prime)
