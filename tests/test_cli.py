"""Command-line surface: verbs, exit codes, determinism."""

import json
import random

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
