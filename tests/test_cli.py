"""Command-line surface: verbs, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from conftest import first_mapping_twice

from cographs.cli import main
from cographs.cotree import format_expression, materialize, parse_expression
from cographs.graph import Graph, format_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestAnalyze:
    def test_c4(self, capsys):
        code, payload = run_json(capsys, "analyze", "--expr", "(K1|K1)+(K1|K1)")
        assert code == 0
        assert payload["kappa"] == 2 and payload["super_edge_connected"] is False

    def test_stdin_edge_list(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("3\n0 1\n0 2\n1 2\n"))
        code, payload = run_json(capsys, "analyze", "-")
        assert code == 0 and payload["kappa"] == 2

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("4\n0 2\n0 3\n1 2\n1 3\n")
        code, payload = run_json(capsys, "analyze", "--file", str(path))
        assert code == 0 and payload["n"] == 4 and payload["kappa"] == 2

    def test_file_not_utf8_exits_3(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(b"\xff\xfe\n")
        code, payload = run_json(capsys, "analyze", "--file", str(path))
        assert code == 3 and payload["type"] == "EdgeListSyntaxError"

    def test_missing_file_is_io_error(self, capsys):
        code = main(["analyze", "--file", "/nonexistent/g.edges"])
        assert code == 2

    def test_not_a_cograph(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("4\n0 1\n1 2\n2 3\n"))
        code, payload = run_json(capsys, "analyze", "-")
        assert code == 3 and payload["witness"] == [0, 1, 2, 3]


class TestRecognize:
    def test_cograph_prints_expression(self, capsys):
        code, payload = run_json(capsys, "recognize", "--expr", "K3")
        assert code == 0 and payload == {"cograph": True, "expression": "K3"}

    def test_p4_exits_3(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("4\n0 1\n1 2\n2 3\n"))
        code, payload = run_json(capsys, "recognize", "-")
        assert code == 3 and payload["witness"] == [0, 1, 2, 3]


class TestEmbed:
    def test_th1_example(self, capsys):
        code, payload = run_json(
            capsys, "embed", "--theorem", "th1", "-k", "1",
            "--tree", "star:2", "--expr", "(K1|K1|K1)+K3")
        assert code == 0
        assert payload["preserved"] == "k_connected(1)"
        assert payload["residual"]["cograph"] is True
        assert payload["residual"]["kappa"] >= 1

    def test_th2_with_second_tree(self, capsys):
        code, payload = run_json(
            capsys, "embed", "--theorem", "th2",
            "--tree", "path:1", "--tree2", "star:1",
            "--expr", "(K3|K3)+(K1|K1)")
        assert code == 0
        assert payload["first"]["preserved"] == "exact_kappa(2)"
        assert payload["residual"]["kappa"] == 2

    def test_th4_residual_not_cograph_reported_by_flow(self, capsys):
        code, payload = run_json(
            capsys, "embed", "--theorem", "th4",
            "--tree", "path:3", "--expr", "(K3|K3)+K1")
        assert code == 0
        assert payload["first"]["mode"] == "edge"
        assert payload["residual"]["kappa"] == 1

    def test_bound_violation_exits_3(self, capsys):
        code, payload = run_json(
            capsys, "embed", "--theorem", "th1", "-k", "2",
            "--tree", "path:3", "--expr", "K5")
        assert code == 3 and payload["type"] == "BoundViolatedError"

    def test_k_required(self, capsys):
        code = main(["embed", "--theorem", "th1", "--tree", "path:2",
                     "--expr", "K5"])
        assert code == 1

    def test_k_rejected_for_parameterless_theorems(self, capsys):
        code = main(["embed", "--theorem", "maxcon", "-k", "2",
                     "--tree", "path:2", "--expr", "K5"])
        assert code == 1


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, payload = run_json(capsys, "verify", "--expr", "(K2|K2)+K1")
        assert code == 0 and payload["all_ok"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "closed_form_kappa_vs_flow" in names
        assert "super_vs_min_cut_enumeration" in names

    def test_oracle_cap_variable_is_ignored(self, capsys, monkeypatch):
        monkeypatch.delenv("COGRAPH_ORACLE_CAP", raising=False)
        unset = run(capsys, "verify", "--expr", "K3")
        monkeypatch.setenv("COGRAPH_ORACLE_CAP", "x")
        assert run(capsys, "verify", "--expr", "K3") == unset
        assert unset[0] == 0


class TestGen:
    def test_tight(self, capsys):
        code, payload = run_json(capsys, "gen", "--tight", "th1case1:2,3")
        assert code == 0 and payload["expression"] == "K5"

    def test_tight_m_only(self, capsys):
        code, payload = run_json(capsys, "gen", "--tight", "superkeeptight:2")
        assert code == 0 and payload["claimed"]["delta"] == 3

    def test_tight_param_violation_exits_3(self, capsys):
        code, payload = run_json(capsys, "gen", "--tight", "th1case2:3,2")
        assert code == 3 and payload["type"] == "ParamViolationError"

    def test_random(self, capsys):
        code, payload = run_json(capsys, "gen", "--random", "8,5")
        assert code == 0 and payload["n"] == 8

    def test_gen_needs_exactly_one_mode(self, capsys):
        assert main(["gen"]) == 1
        assert main(["gen", "--tight", "th1case1:1,1",
                     "--random", "3,1"]) == 1


class TestDeterminismAndFlags:
    def test_byte_identical_output(self, capsys):
        _, first = run(capsys, "analyze", "--expr", "(K1|K2|K1)+(K1|K1)+K1")
        _, second = run(capsys, "analyze", "--expr", "(K1|K2|K1)+(K1|K1)+K1")
        assert first == second

    def test_pretty_is_valid_json(self, capsys):
        code, out = run(capsys, "--pretty", "analyze", "--expr", "K4")
        assert code == 0 and json.loads(out)["kappa"] == 3 and "\n" in out

    def test_shared_parser_keeps_no_state(self, capsys):
        # main reuses one parser; each call must print what a fresh
        # process prints, after a usage error and after --pretty too
        from cographs.cli import _build_parser
        assert _build_parser() is _build_parser()
        calls = [["embed", "--theorem", "th9", "--tree", "path:2",
                  "--expr", "K3"],
                 ["--pretty", "analyze", "--expr", "K4"],
                 ["analyze", "--expr", "K4"]]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "cographs.cli", *argv], env=env,
                capture_output=True, text=True, timeout=120)
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv

    def test_exactly_one_input_source(self, capsys):
        assert main(["analyze", "--expr", "K3", "--file", "x"]) == 1
        assert main(["analyze"]) == 1

    def test_dsl_syntax_error_exits_3(self, capsys):
        code, payload = run_json(capsys, "analyze", "--expr", "(K1|K1")
        assert code == 3 and payload["type"] == "ExpressionSyntaxError"


class TestRejectedArguments:
    def test_k_below_one_is_usage_error(self, capsys):
        assert main(["embed", "--theorem", "th1", "-k", "0",
                     "--tree", "path:2", "--expr", "K5"]) == 1

    def test_tree_orders_must_match(self, capsys):
        assert main(["embed", "--theorem", "th2", "--tree", "path:2",
                     "--tree2", "path:3", "--expr", "(K3|K3)+(K1|K1)"]) == 1

    def test_random_order_below_one_is_usage_error(self, capsys):
        assert main(["gen", "--random", "0,1"]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("text", ["x\n", "3\n0 1 2\n"])
    def test_malformed_edge_list_exits_3(self, capsys, monkeypatch, text):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, payload = run_json(capsys, "analyze", "-")
        assert code == 3 and payload["type"] == "EdgeListSyntaxError"

    def test_postcondition_failure_exits_4(self, capsys, monkeypatch):
        import cographs.embed as embed_module
        monkeypatch.setattr(embed_module, "_keep_vertex_connectivity_mapping",
                            lambda G, ct, T, k: {0: 2, 1: 3})
        code, payload = run_json(
            capsys, "embed", "--theorem", "th1", "-k", "1",
            "--tree", "path:2", "--expr", "(K1|K1)+K2")
        assert code == 4 and payload["type"] == "PostconditionFailedError"

    @pytest.mark.parametrize("mapping", [{0: 0, 1: 1}, {0: 2, 1: 2}])
    def test_non_copy_exits_4(self, capsys, monkeypatch, mapping):
        # no tree edge on a graph edge, then a map that is not injective
        import cographs.embed as embed_module
        monkeypatch.setattr(embed_module, "_keep_vertex_connectivity_mapping",
                            lambda G, ct, T, k: dict(mapping))
        code, payload = run_json(
            capsys, "embed", "--theorem", "th1", "-k", "1",
            "--tree", "path:2", "--expr", "(K1|K1)+K2")
        assert code == 4 and payload["type"] == "PostconditionFailedError"
        assert payload["error"].startswith("result is not a copy of the tree")

    def test_overlapping_pair_exits_4(self, capsys, monkeypatch):
        import cographs.embed as embed_module
        monkeypatch.setattr(embed_module, "_embed_mapping",
                            first_mapping_twice(embed_module._embed_mapping))
        code, payload = run_json(capsys, *OVERLAPPING_PAIR)
        assert code == 4 and payload["type"] == "PostconditionFailedError"
        assert payload["error"].endswith("embeddings are not vertex-disjoint")

    def test_overlapping_pair_exits_4_under_python_O(self):
        # the refusal must not rest on assert statements
        tests = Path(__file__).resolve().parent
        script = (
            "import sys\n"
            "from conftest import first_mapping_twice\n"
            "import cographs.embed as e\n"
            "from cographs.cli import main\n"
            "e._embed_mapping = first_mapping_twice(e._embed_mapping)\n"
            f"sys.exit(main({list(OVERLAPPING_PAIR)!r}))\n")
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
        done = subprocess.run([sys.executable, "-O", "-c", script],
                              cwd=tests, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 4, done.stderr
        assert json.loads(done.stdout)["type"] == "PostconditionFailedError"

    def test_judge_refusal_exits_4_under_python_O(self):
        # a residual the judge refuses (two isolated vertices left) is refused
        # by the closed form without assert statements
        tests = Path(__file__).resolve().parent
        script = (
            "import sys\n"
            "import cographs.embed as e\n"
            "from cographs.cli import main\n"
            "e._keep_vertex_connectivity_mapping = lambda G, ct, T, k: {0: 2, 1: 3}\n"
            "sys.exit(main(['embed', '--theorem', 'th1', '-k', '1',"
            " '--tree', 'path:2', '--expr', '(K1|K1)+K2']))\n")
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
        done = subprocess.run([sys.executable, "-O", "-c", script],
                              cwd=tests, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 4, done.stderr
        payload = json.loads(done.stdout)
        assert payload["type"] == "PostconditionFailedError"
        assert payload["error"].endswith("(closed form)")


class TestDeepInputs:
    """A deep cotree costs memory, not a refusal: no walk from text to
    cotree to graph recurses once per level."""

    def test_deep_edge_list_recognized(self, capsys, monkeypatch):
        # 700-vertex threshold graph: each even vertex dominates the ones
        # before it, so the cotree is 700 levels deep
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(_threshold_edge_list(700)))
        code, payload = run_json(capsys, "recognize", "-")
        expected = format_expression(parse_expression(_threshold(700)))
        assert code == 0
        assert payload == {"cograph": True, "expression": expected}

    def test_deep_expression_analyzes_as_k1(self, capsys):
        expr = "(" * 600 + "K1" + ")" * 600
        assert run_json(capsys, "analyze", "--expr", expr) \
            == run_json(capsys, "analyze", "--expr", "K1")

    def test_no_recursion_on_the_cli_path(self, tmp_path):
        # inputs a few hundred levels deep under a recursion limit of 150:
        # a walk that recursed once per level, directly or through a
        # helper, would stop with a RecursionError
        deep_list = tmp_path / "threshold.txt"
        deep_list.write_text(_threshold_edge_list(300))
        hubs = "(K2|K2)"
        for depth in range(301):
            hubs = f"(K2+{hubs})" if depth % 2 == 0 else f"(K2|{hubs})"
        argvs = [["recognize", "--file", str(deep_list)],
                 ["analyze", "--file", str(deep_list)],
                 ["analyze", "--expr", hubs],
                 ["embed", "--theorem", "th5", "-k", "1", "--tree", "path:3",
                  "--expr", hubs],
                 ["gen", "--random", "3000,1"]]
        script = ("import sys\n"
                  "from cographs.cli import main\n"
                  "sys.setrecursionlimit(150)\n"
                  f"for argv in {argvs!r}:\n"
                  "    print(main(argv), file=sys.stderr)\n")
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
        done = subprocess.run([sys.executable, "-c", script], cwd=tests,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stderr.split() == ["0"] * len(argvs), done.stderr
        assert len(done.stdout.splitlines()) == len(argvs)


class TestSizeLimits:
    """Over the order or edge limit, the input is refused with exit 3
    before anything of its size is built."""

    def test_huge_complete_graph(self, capsys):
        code, payload = run_json(capsys, "analyze", "--expr", "K1000000000000")
        assert code == 3 and payload == {
            "error": "expression has more than 200000 vertices",
            "type": "TooLargeError"}

    def test_huge_edge_list_header(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("1000000000000\n0 1\n"))
        code, payload = run_json(capsys, "recognize", "-")
        assert code == 3 and payload == {
            "error": "vertex count 1000000000000 exceeds the limit 200000",
            "type": "TooLargeError"}

    def test_too_many_edges_to_materialize(self, capsys):
        # 2000 vertices are within the order limit; K2000 has 1999000 edges
        code, payload = run_json(capsys, "recognize", "--expr", "K1000+K1000")
        assert code == 3 and payload == {
            "error": "edge count 1999000 exceeds the limit 1000000",
            "type": "TooLargeError"}

    @pytest.mark.parametrize("argv", [
        ("embed", "--theorem", "maxcon", "--tree", "path:1000000000000",
         "--expr", "K3"),
        ("embed", "--theorem", "maxcon", "--tree", "star:1000000000000",
         "--expr", "K3"),
        ("gen", "--random", "1000000000000,1"),
        ("gen", "--tight", "th1case4:1000000000000,1000000000000"),
        ("gen", "--tight", "superkeeptight:1000000000000"),
    ])
    def test_huge_tree_or_generator_parameters(self, capsys, argv):
        code, payload = run_json(capsys, *argv)
        assert code == 3 and payload["type"] == "TooLargeError"

    @pytest.mark.parametrize("count, kind", [
        ("0" * 5000, "ArityError"),
        ("1" * 5000, "TooLargeError"),
    ])
    def test_count_longer_than_int_parses(self, capsys, count, kind):
        # int() refuses strings of more than 4300 digits
        code, payload = run_json(capsys, "analyze", "--expr", "K" + count)
        assert code == 3 and payload["type"] == kind

    @pytest.mark.parametrize("expr, error", [
        ("K\u00b2", "expected an integer after 'K' (at position 1)"),
        ("K1\u00b2", "unexpected '\u00b2' (at position 2)"),
    ])
    def test_digit_that_is_not_decimal(self, capsys, expr, error):
        code, payload = run_json(capsys, "analyze", "--expr", expr)
        assert code == 3 and payload["error"] == error

    def test_decimal_digits_of_any_script(self, capsys):
        # U+0663 is ARABIC-INDIC DIGIT THREE, which int() reads as 3
        assert run_json(capsys, "analyze", "--expr", "K\u0663") \
            == run_json(capsys, "analyze", "--expr", "K3")

    def test_limits_are_inclusive(self, capsys, monkeypatch):
        import io

        import cographs.cotree as cotree_module
        import cographs.graph as graph_module
        monkeypatch.setattr(cotree_module, "_MAX_ORDER", 5)
        monkeypatch.setattr(cotree_module, "_MAX_EDGES", 4)
        monkeypatch.setattr(graph_module, "_MAX_ORDER", 5)
        for expr, ok in [("((K1|K1)+(K1|K1))|K1", True),  # 5 vertices, 4 edges
                         ("(K1|K1)+(K1|K2)", False),  # 5 vertices, 7 edges
                         ("K1|K1|K1|K1|K1|K1", False)]:  # 6 vertices
            code, payload = run_json(capsys, "recognize", "--expr", expr)
            assert (code, payload.get("type")) \
                == ((0, None) if ok else (3, "TooLargeError"))
        for text, ok in [("5\n0 1\n", True), ("6\n0 1\n", False)]:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, payload = run_json(capsys, "recognize", "-")
            assert (code, payload.get("type")) \
                == ((0, None) if ok else (3, "TooLargeError"))

    def test_edge_count_is_exact(self, monkeypatch):
        import cographs.cotree as cotree_module
        from cographs import random_cotree
        from cographs.analysis import degrees
        from cographs.errors import TooLargeError
        for seed in range(40):
            ct = random_cotree(3 + seed % 12, seed, join_bias=0.7)
            m = sum(degrees(ct).values()) // 2
            monkeypatch.setattr(cotree_module, "_MAX_EDGES", m)
            materialize(ct)
            monkeypatch.setattr(cotree_module, "_MAX_EDGES", m - 1)
            with pytest.raises(TooLargeError):
                materialize(ct)


class TestRuntimeDependencies:
    def test_cli_imports_neither_numpy_nor_scipy(self):
        tests = Path(__file__).resolve().parent
        script = ("import sys\n"
                  "import cographs.cli\n"
                  "print(sorted(m for m in ('numpy', 'scipy') "
                  "if m in sys.modules))\n")
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
        done = subprocess.run([sys.executable, "-c", script], cwd=tests,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


OVERLAPPING_PAIR = ("embed", "--theorem", "th2", "--tree", "path:2",
                    "--expr", "(K3|K3)+(K1|K1)")


def _threshold(n):
    """Deepest threshold cograph: join and union alternate, one leaf a level."""
    text = "(K1|K1)"
    for depth in range(n - 2):
        text = f"(K1+{text})" if depth % 2 == 0 else f"(K1|{text})"
    return text


def _threshold_edge_list(n):
    """The threshold graph in which each even vertex i >= 2 is adjacent to
    every vertex before it: its cotree is that of ``_threshold(n)``."""
    lines = [str(n)] + [f"{j} {i}" for i in range(2, n, 2) for j in range(i)]
    return "\n".join(lines) + "\n"


def _near_cograph(expr, seed, toggles):
    """The cograph of ``expr`` with some pairs toggled, labels shuffled."""
    G = materialize(parse_expression(expr))
    edges = set(G.edges)
    for u, v in toggles:
        edges ^= {(u, v)}
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(G.n, [(perm[u], perm[v]) for u, v in edges])


class TestRecognizeGolden:
    """Pinned witnesses: the failing part of the decomposition and the scan
    order inside it decide which P4 is reported.  In the last two cases two
    parts hold a P4 and the reported one is not the first in a full scan."""

    @pytest.mark.parametrize("expr, seed, toggles, witness", [
        (_threshold(24), 1, [(2, 20)], [0, 6, 8, 23]),
        (_threshold(31), 2, [(5, 27)], [25, 1, 2, 27]),
        ("((K2|K3)+(K1|(K2+(K1|K1|K2))))"
         "|((K3|K1)+K2+(K1|(K2+(K1|(K1+(K1|K2))))))", 3, [(13, 22)],
         [8, 3, 4, 20]),
        ("((K1|K2)+(K1|K1|(K1+(K1|K2|(K1+(K1|K1))))))"
         "+(K2|(K1+(K1|(K3+(K1|K1)))))+(K1|K1|K1)", 5, [(6, 20)],
         [1, 4, 0, 20]),
        ("(K2+(K1|K3|(K1+(K1|K2))))|(K1+(K2|(K1+(K1|K1))))"
         "|((K1|K1)+(K1|(K2+(K1|K1|K1))))", 66, [(11, 14), (18, 21)],
         [15, 20, 23, 19]),
        ("((K2+(K1|K3|(K1+(K1|K2))))|K1|K2)+((K1+(K2|(K1+(K1|K1))))|K1)"
         "+(K1|K1)", 78, [(14, 19), (6, 10)], [2, 11, 18, 20]),
    ])
    def test_witness(self, capsys, monkeypatch, expr, seed, toggles, witness):
        import io
        text = format_edge_list(_near_cograph(expr, seed, toggles))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out = run(capsys, "recognize", "-")
        assert code == 3
        assert out == json.dumps({"cograph": False, "witness": witness}) + "\n"


def _two_hubs(adjacent):
    """(K3|K3)+K1+K1, or +(K1|K1) when the hubs are not adjacent, labeled so
    that the first greedy path:5 puts its smaller class on the two hubs
    (labels 1 and 3), whose deletion disconnects the graph."""
    A, B, hubs = [0, 6, 7], [2, 4, 5], [1, 3]
    edges = [(a, b) for part in (A, B) for a, b in combinations(part, 2)]
    edges += [(h, v) for h in hubs for v in A + B]
    if adjacent:
        edges.append((1, 3))
    return format_edge_list(Graph.from_edges(8, edges))


def _two_triangles(A, B, hubs, adjacent):
    """Triangles A and B, both joined to the two hubs; the hubs are adjacent
    when ``adjacent``."""
    edges = [(a, b) for part in (A, B) for a, b in combinations(part, 2)]
    edges += [(h, v) for h in hubs for v in A + B]
    if adjacent:
        edges.append(tuple(hubs))
    return format_edge_list(Graph.from_edges(8, edges))


class TestTh5RepairsUnpatched:
    """th5's two repairs of a first placement that disconnects the graph,
    reached by plain inputs; ``partials`` are the partial maps the
    placements start from, the second one naming the repair."""

    CASES = [
        # re-rooting: the tree edge 0-1 goes on the hub edge 1-3
        (([0, 2, 5], [4, 6, 7], [1, 3], True),
         [None, {0: 1, 1: 3}], [[0, 1], [1, 3], [2, 0], [3, 2], [4, 5]]),
        # leaf surgery: the rest of the tree hangs from hub 2
        (([0, 3, 4], [5, 6, 7], [1, 2], False),
         [None, {1: 2}], [[0, 5], [1, 2], [2, 0], [3, 3], [4, 4]]),
    ]

    @pytest.mark.parametrize("graph,partials,mapping", CASES)
    def test_stdout(self, capsys, monkeypatch, graph, partials, mapping):
        import io

        import cographs.embed as embed_module
        seen = []
        real = embed_module._embed_mapping

        def spy(G, T, allowed, partial=None):
            seen.append(partial)
            return real(G, T, allowed, partial)

        monkeypatch.setattr(embed_module, "_embed_mapping", spy)
        monkeypatch.setattr("sys.stdin", io.StringIO(_two_triangles(*graph)))
        out = json.dumps({
            "mode": "edge", "preserved": "k_edge_connected(1)", "map": mapping,
            "residual": {"cograph": False, "n": 8, "delta": 2, "kappa": 2,
                         "lambda": 2}}) + "\n"
        assert run(capsys, "embed", "--theorem", "th5", "-k", "1",
                   "--tree", "path:5", "-") == (0, out)
        assert seen == partials


class TestEmbedGolden:
    """Pinned stdout of ``cograph embed``: every theorem, the flow branch of
    the residual report, both leaf swaps of superkeep, both repairs of th5,
    the K1 and K2 conventions and one refusal.  ``hubs`` selects a :func:`_two_hubs` edge list on
    stdin in place of ``--expr``."""

    CASES = [
        # th1, medium primary case
        ('--theorem th1 -k 2 --tree path:3 --expr (K2|K2|K1)+K2+K3', None, 0,
         '{"mode": "vertex", "preserved": "k_connected(2)", '
         '"map": [[0, 0], [1, 1], [2, 7]], '
         '"residual": {"cograph": true, "n": 7, "n_prime": 3, "t": 5, '
         '"delta": 4, "Delta": 6, "kappa": 4, "lambda": 4, '
         '"connected": true, "maximally_connected": true, '
         '"maximally_edge_connected": true, '
         '"super_edge_connected": true, "ideally_connected": true, '
         '"dirac": true, "super_by_convention": false}}\n'),
        # th2
        ('--theorem th2 --tree path:2 --tree2 star:2 --expr (K3|K3)+(K1|K1)', None, 0,
         '{"first": {"mode": "vertex", "preserved": "exact_kappa(2)", '
         '"map": [[0, 0], [1, 1]]}, "second": {"mode": "vertex", '
         '"preserved": "exact_kappa(2)", "map": [[0, 3], [1, 4]]}, '
         '"residual": {"cograph": true, "n": 4, "n_prime": 2, "t": 2, '
         '"delta": 2, "Delta": 2, "kappa": 2, "lambda": 2, '
         '"connected": true, "maximally_connected": true, '
         '"maximally_edge_connected": true, '
         '"super_edge_connected": false, "ideally_connected": true, '
         '"dirac": true, "super_by_convention": false}}\n'),
        # maxcon
        ('--theorem maxcon --tree path:2 --expr (K1|K2|K1)+(K1|K1)+K1', None, 0,
         '{"mode": "vertex", "preserved": "maximally_connected", '
         '"map": [[0, 4], [1, 1]], "residual": {"cograph": true, '
         '"n": 5, "n_prime": 3, "t": 3, "delta": 2, "Delta": 4, '
         '"kappa": 2, "lambda": 2, "connected": true, '
         '"maximally_connected": true, '
         '"maximally_edge_connected": true, '
         '"super_edge_connected": true, "ideally_connected": true, '
         '"dirac": false, "super_by_convention": false}}\n'),
        # th3, residual not a cograph
        ('--theorem th3 -k 2 --tree star:3 --expr (K1|K1)+K2+(K1|K2)', None, 0,
         '{"mode": "edge", "preserved": "k_connected(2)", '
         '"map": [[0, 2], [1, 3], [2, 4]], '
         '"residual": {"cograph": false, "n": 7, "delta": 3, '
         '"kappa": 3, "lambda": 3}}\n'),
        # th4
        ('--theorem th4 --tree path:3 --expr (K3|K3)+K1', None, 0,
         '{"first": {"mode": "edge", "preserved": "exact_kappa(1)", '
         '"map": [[0, 0], [1, 1], [2, 2]]}, "second": {"mode": "edge", '
         '"preserved": "exact_kappa(1)", '
         '"map": [[0, 3], [1, 4], [2, 5]]}, '
         '"residual": {"cograph": true, "n": 7, "n_prime": 6, "t": 2, '
         '"delta": 1, "Delta": 6, "kappa": 1, "lambda": 1, '
         '"connected": true, "maximally_connected": true, '
         '"maximally_edge_connected": true, '
         '"super_edge_connected": true, "ideally_connected": false, '
         '"dirac": false, "super_by_convention": false}}\n'),
        # th6
        ('--theorem th6 -k 2 --tree path:3 --expr (K1|K2)+K5', None, 0,
         '{"mode": "vertex", "preserved": "k_edge_connected(2)", '
         '"map": [[0, 3], [1, 0], [2, 5]], '
         '"residual": {"cograph": true, "n": 5, "n_prime": 1, "t": 5, '
         '"delta": 4, "Delta": 4, "kappa": 4, "lambda": 4, '
         '"connected": true, "maximally_connected": true, '
         '"maximally_edge_connected": true, '
         '"super_edge_connected": true, "ideally_connected": true, '
         '"dirac": true, "super_by_convention": false}}\n'),
        # superkeep, C4 leaf swap
        ('--theorem superkeep --tree path:4 '
         '--expr (K1|K1)+(K1|K1)+(K1|K1)+(K1|K1)', None, 0,
         '{"mode": "vertex", "preserved": "super_edge_connected", '
         '"map": [[0, 0], [1, 4], [2, 3], [3, 5]], '
         '"residual": {"cograph": true, "n": 4, "n_prime": 2, "t": 3, '
         '"delta": 2, "Delta": 3, "kappa": 2, "lambda": 2, '
         '"connected": true, "maximally_connected": true, '
         '"maximally_edge_connected": true, '
         '"super_edge_connected": true, "ideally_connected": true, '
         '"dirac": true, "super_by_convention": false}}\n'),
        # superkeep, H + K1 leaf swap
        ('--theorem superkeep --tree path:2 --expr (((K2|K2)+K1+K1)|K5)+K1', None, 0,
         '{"mode": "vertex", "preserved": "super_edge_connected", '
         '"map": [[0, 1], [1, 4]], "residual": {"cograph": true, '
         '"n": 10, "n_prime": 9, "t": 2, "delta": 2, "Delta": 9, '
         '"kappa": 1, "lambda": 2, "connected": true, '
         '"maximally_connected": false, '
         '"maximally_edge_connected": true, '
         '"super_edge_connected": true, "ideally_connected": false, '
         '"dirac": false, "super_by_convention": false}}\n'),
        # th5, re-rooting (adjacent hubs)
        ('--theorem th5 -k 1 --tree path:5 -', True, 0,
         '{"mode": "edge", "preserved": "k_edge_connected(1)", '
         '"map": [[0, 1], [1, 3], [2, 0], [3, 6], [4, 7]], '
         '"residual": {"cograph": false, "n": 8, "delta": 2, '
         '"kappa": 2, "lambda": 2}}\n'),
        # th5, leaf surgery (nonadjacent hubs)
        ('--theorem th5 -k 1 --tree path:5 -', False, 0,
         '{"mode": "edge", "preserved": "k_edge_connected(1)", '
         '"map": [[0, 2], [1, 3], [2, 0], [3, 6], [4, 7]], '
         '"residual": {"cograph": false, "n": 8, "delta": 2, '
         '"kappa": 2, "lambda": 2}}\n'),
        # th5, single-join-vertex recursion (7 -> 4 vertices); the residual
        # is not a cograph, so kappa and lambda come from the flow routine
        ('--theorem th5 -k 1 --tree star:3 --expr K1+(K3|K3)', None, 0,
         '{"mode": "edge", "preserved": "k_edge_connected(1)", '
         '"map": [[0, 0], [1, 1], [2, 2]], '
         '"residual": {"cograph": false, "n": 7, "delta": 2, '
         '"kappa": 1, "lambda": 1}}\n'),
        # refusal below the bound
        ('--theorem th1 -k 2 --tree path:3 --expr (K1|K1)+K2', None, 3,
         '{"error": "case small_primary needs delta >= 5, got 2", '
         '"type": "BoundViolatedError"}\n'),
        # K1 and K2 residuals, where conventions decide: lambda(K1) = 0 by
        # flow, yet K1 counts as 1-edge-connected; K2 has no nonadjacent
        # pair, so its kappa of 1 is the complete-graph convention
        ('--theorem th5 -k 1 --tree path:1 --expr K1', None, 0,
         '{"mode": "edge", "preserved": "k_edge_connected(1)", '
         '"map": [[0, 0]], "residual": {"cograph": true, "n": 1, '
         '"n_prime": 1, "t": 1, "delta": 0, "Delta": 0, "kappa": 0, '
         '"lambda": 0, "connected": true, "maximally_connected": true, '
         '"maximally_edge_connected": true, '
         '"super_edge_connected": true, "ideally_connected": true, '
         '"dirac": false, "super_by_convention": false}}\n'),
        ('--theorem th4 --tree path:1 --expr K2', None, 0,
         '{"first": {"mode": "edge", "preserved": "exact_kappa(1)", '
         '"map": [[0, 0]]}, "second": {"mode": "edge", '
         '"preserved": "exact_kappa(1)", "map": [[0, 1]]}, '
         '"residual": {"cograph": true, "n": 2, "n_prime": 1, "t": 2, '
         '"delta": 1, "Delta": 1, "kappa": 1, "lambda": 1, '
         '"connected": true, "maximally_connected": true, '
         '"maximally_edge_connected": true, '
         '"super_edge_connected": true, "ideally_connected": true, '
         '"dirac": false, "super_by_convention": false}}\n'),
    ]

    @pytest.mark.parametrize("argv, hubs, code, out", CASES)
    def test_stdout(self, capsys, monkeypatch, argv, hubs, code, out):
        import io
        if hubs is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(_two_hubs(hubs)))
        assert run(capsys, "embed", *argv.split()) == (code, out)


class TestAdmissionGolden:
    """Pinned refusals of inputs that lack the property a theorem keeps (or,
    for th2 and th4, are disconnected); the two K1 cases show that K1
    counts as 1-connected but not 2-connected."""

    CASES = [
        ("--theorem th1 -k 2 --tree path:1 --expr K2|K2",
         "input is not 2-connected", "NotKConnectedError"),
        ("--theorem th3 -k 2 --tree path:2 --expr (K2|K2)+K1",
         "input is not 2-connected", "NotKConnectedError"),
        ("--theorem th5 -k 3 --tree path:2 --expr (K1|K1)+K2",
         "input is not 3-edge-connected", "NotKEdgeConnectedError"),
        ("--theorem th6 -k 2 --tree path:2 --expr K2|K1",
         "input is not 2-edge-connected", "NotKEdgeConnectedError"),
        ("--theorem maxcon --tree path:2 --expr (K2|K2)+K1",
         "input is not maximally connected", "NotMaximallyConnectedError"),
        ("--theorem superkeep --tree path:1 --expr (K1|K1)+(K1|K1)",
         "input is not super edge-connected", "NotSuperError"),
        ("--theorem th2 --tree path:1 --tree2 path:1 --expr K2|K2",
         "a connected cograph is required", "BoundViolatedError"),
        ("--theorem th4 --tree path:1 --tree2 path:1 --expr K2|K2",
         "a connected cograph is required", "BoundViolatedError"),
        # K1 is admitted as 1-connected, then fails the complete-graph bound
        ("--theorem th1 -k 1 --tree path:1 --expr K1",
         "case complete needs delta >= 1, got 0", "BoundViolatedError"),
        ("--theorem th1 -k 2 --tree path:1 --expr K1",
         "input is not 2-connected", "NotKConnectedError"),
    ]

    @pytest.mark.parametrize("argv, error, kind", CASES)
    def test_stdout(self, capsys, argv, error, kind):
        out = json.dumps({"error": error, "type": kind}) + "\n"
        assert run(capsys, "embed", *argv.split()) == (3, out)


def _verify_stdout(kappa, ideal_skipped):
    ideal = {"name": "ideal_vs_disjoint_paths", "ok": True}
    if ideal_skipped:
        ideal["skipped"] = True
    return json.dumps({"checks": [
        {"name": "closed_form_kappa_vs_flow", "ok": True,
         "closed_form": kappa, "flow": kappa},
        {"name": "closed_form_lambda_vs_flow", "ok": True,
         "closed_form": kappa, "flow": kappa},
        {"name": "maximally_connected_vs_flow", "ok": True},
        {"name": "super_vs_min_cut_enumeration", "ok": True, "skipped": True},
        ideal], "all_ok": True}) + "\n"


class TestRarePaths:
    """Branches of the CLI and of the constructions that no other test
    takes; the expected output is the parent implementation's."""

    @pytest.mark.parametrize("expr,kappa,ideal_skipped", [
        ("K17", 16, True),                # over the cut cap: both skipped
        ("(K1|K1|K1)+K14", 14, True),
        ("K3|K2", 0, False),              # disconnected: no cut enumeration
    ])
    def test_verify_skipped_checks(self, capsys, expr, kappa, ideal_skipped):
        assert run(capsys, "verify", "--expr", expr) \
            == (0, _verify_stdout(kappa, ideal_skipped))

    @pytest.mark.parametrize("argv,message", [
        (("embed", "--expr", "K4", "--theorem", "th1", "--tree", "path:2",
          "--tree2", "path:2", "-k", "1"),
         "--theorem th1 does not take --tree2"),
        (("gen", "--tight", "th1case1"), "--tight takes kind:k,m or kind:m"),
        (("gen", "--tight", "th1case1:1,2,3"),
         "--tight takes at most two parameters"),
        (("gen", "--tight", "th1case1:a,b"), "bad --tight parameters 'a,b'"),
        (("gen", "--random", "5"), "--random takes n,seed"),
    ])
    def test_usage_errors(self, capsys, argv, message):
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"usage error: {message}\n")

    @pytest.mark.parametrize("text,error,kind", [
        ("2\n0 0", "self-loop on vertex 0", "UnknownEdgeError"),
        ("2\n0 5", "edge (0, 5) uses an unknown vertex", "UnknownVertexError"),
        ("3 1\n0 1", "first data line must be the vertex count",
         "EdgeListSyntaxError"),
    ])
    def test_edge_list_refusals(self, capsys, monkeypatch, text, error, kind):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(capsys, "analyze", "-") \
            == (3, json.dumps({"error": error, "type": kind}) + "\n")

    @pytest.mark.parametrize("argv,text,error,kind", [
        (("gen", "--tight", "th1case1:0"), "", "m must be a positive integer",
         "ParamViolationError"),
        (("gen", "--tight", "th1case1:3"), "", "th1case1 needs a positive k",
         "ParamViolationError"),
        (("analyze", "-"), "0\n", "a graph needs at least one vertex",
         "EmptySetError"),
    ])
    def test_domain_refusals(self, capsys, monkeypatch, argv, text, error, kind):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(list(argv)) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) \
            == (json.dumps({"error": error, "type": kind}) + "\n", "")

    def test_superkeep_single_vertex_on_the_join_side(self, capsys):
        # G = H + K1; the host component's primary part leaves two vertices
        residual = {"cograph": True, "n": 8, "n_prime": 7, "t": 2, "delta": 2,
                    "Delta": 7, "kappa": 1, "lambda": 2, "connected": True,
                    "maximally_connected": False,
                    "maximally_edge_connected": True,
                    "super_edge_connected": True, "ideally_connected": False,
                    "dirac": False, "super_by_convention": False}
        out = json.dumps({"mode": "vertex", "preserved": "super_edge_connected",
                          "map": [[0, 2]], "residual": residual}) + "\n"
        assert run(capsys, "embed", "--expr", "(((K1|K1)+(K1|K1))|K4)+K1",
                   "--theorem", "superkeep", "--tree", "path:1") == (0, out)

    @pytest.mark.parametrize("argv", [
        ("--expr", "K4", "--theorem", "th3", "--tree", "path:2", "-k", "1"),
        ("--expr", "(K3|K3)+K1", "--theorem", "th4", "--tree", "path:2"),
    ])
    def test_failed_internal_placement_exits_4(self, capsys, monkeypatch, argv):
        import cographs.embed as embed_module
        monkeypatch.setattr(embed_module, "_placements",
                            lambda *args, **kwargs: iter(()))
        out = json.dumps({
            "error": "construction lost a guaranteed embedding: no embedding "
                     "of a 2-vertex tree into the 3-vertex allowed set",
            "type": "PostconditionFailedError"}) + "\n"
        assert run(capsys, "embed", *argv) == (4, out)
