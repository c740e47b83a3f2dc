"""Command-line surface: verbs, exit codes, determinism."""

import json
import random
from itertools import combinations

import pytest

from cographs.cli import main
from cographs.cotree import materialize, parse_expression
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

    def test_deep_edge_list_exits_3(self, capsys, monkeypatch):
        # 700-vertex threshold graph: each even vertex dominates the ones
        # before it, so the cotree is 700 levels deep
        import io
        n = 700
        lines = [str(n)] + [f"{j} {i}" for i in range(2, n, 2)
                            for j in range(i)]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code, payload = run_json(capsys, "recognize", "-")
        assert code == 3 and payload["type"] == "RecursionError"

    def test_deep_expression_exits_3(self, capsys):
        expr = "(" * 600 + "K1" + ")" * 600
        code, payload = run_json(capsys, "analyze", "--expr", expr)
        assert code == 3 and payload["type"] == "RecursionError"


def _threshold(n):
    """Deepest threshold cograph: join and union alternate, one leaf a level."""
    text = "(K1|K1)"
    for depth in range(n - 2):
        text = f"(K1+{text})" if depth % 2 == 0 else f"(K1|{text})"
    return text


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


class TestEmbedGolden:
    """Pinned stdout of ``cograph embed``: every theorem, the flow branch of
    the residual report, both leaf swaps of superkeep, both repairs of th5
    and one refusal.  ``hubs`` selects a :func:`_two_hubs` edge list on
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
        # refusal below the bound
        ('--theorem th1 -k 2 --tree path:3 --expr (K1|K1)+K2', None, 3,
         '{"error": "case small_primary needs delta >= 5, got 2", '
         '"type": "BoundViolatedError"}\n'),
    ]

    @pytest.mark.parametrize("argv, hubs, code, out", CASES)
    def test_stdout(self, capsys, monkeypatch, argv, hubs, code, out):
        import io
        if hubs is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(_two_hubs(hubs)))
        assert run(capsys, "embed", *argv.split()) == (code, out)
