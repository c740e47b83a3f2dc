"""Batch command-line surface over the library.

One JSON object per invocation on standard output (``--pretty`` indents it);
identical inputs produce byte-identical output.  Exit codes: 0 success,
1 usage, 2 I/O, 3 domain error (not a cograph, bound violated, input over
the size limits, ...), 4 postcondition failure.  Under ``"residual"``,
``embed`` prints the report its verifier made (``residual_report``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import embed
from .analysis import analyze
from .cotree import cotree_from_graph, format_expression, materialize, parse_expression
from .errors import CographError, PostconditionFailedError
from .generators import named_tree, random_cotree, tight_example
from .graph import Graph, read_edge_list
from .oracle import DEFAULT_CUT_CAP, _flow_values

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DOMAIN = 3
EXIT_POSTCONDITION = 4

# CLI name -> (name of the ``embed.keep_*`` operation, takes -k, takes --tree2).
# The operation is looked up on the module at call time, never stored here.
_THEOREMS = {
    "th1": ("keep_vertex_connectivity", True, False),
    "th2": ("keep_vertex_connectivity_two", False, True),
    "maxcon": ("keep_maximal_connectedness", False, False),
    "th3": ("keep_connectivity_edge_delete", True, False),
    "th4": ("keep_connectivity_edge_delete_two", False, True),
    "th6": ("keep_edge_connectivity_vertex_delete", True, False),
    "superkeep": ("keep_super_edge_connectivity", False, False),
    "th5": ("keep_edge_connectivity_edge_delete", True, False),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise _UsageError(message)


@functools.cache  # built once per process; parse_args keeps no state in it
def _build_parser() -> _Parser:
    parser = _Parser(prog="cograph", description=__doc__)
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_input(p):
        p.add_argument("--expr", help="inline cograph expression")
        p.add_argument("--file", help="path to an edge-list file")
        p.add_argument("stdin", nargs="?", choices=["-"],
                       help="read an edge list from standard input")

    add_input(sub.add_parser("recognize", help="cotree or P4 witness"))
    add_input(sub.add_parser("analyze", help="full invariant report"))

    p_embed = sub.add_parser("embed", help="extract a keeping tree")
    add_input(p_embed)
    p_embed.add_argument("--theorem", required=True, choices=_THEOREMS)
    p_embed.add_argument("--tree", required=True,
                         help="tree spec, e.g. path:3, star:4, prufer:0,0")
    p_embed.add_argument("--tree2",
                         help="second tree spec for the two-tree theorems "
                              "(defaults to --tree)")
    p_embed.add_argument("-k", type=int, help="connectivity parameter")

    add_input(sub.add_parser("verify", help="oracle cross-checks"))

    p_gen = sub.add_parser("gen", help="emit an expression")
    p_gen.add_argument("--tight",
                       help="kind:k,m (or kind:m), e.g. th1case1:2,3")
    p_gen.add_argument("--random", dest="random_spec",
                       help="n,seed for a random cotree")
    return parser


def _load_graph(args) -> Graph:
    sources = [s for s in ("expr", "file", "stdin") if getattr(args, s, None)]
    if len(sources) != 1:
        raise _UsageError("exactly one of --expr, --file, or '-' is required")
    if args.expr:
        return materialize(parse_expression(args.expr))
    if args.file:
        # bytes that are not UTF-8 reach the parser as lone surrogates, as
        # they do on stdin, and are reported as an EdgeListSyntaxError
        with open(args.file, "r", encoding="utf-8",
                  errors="surrogateescape") as handle:
            return read_edge_list(handle.read())
    return read_edge_list(sys.stdin.read())


def _run_recognize(args) -> tuple[dict, int]:
    G = _load_graph(args)
    result = cotree_from_graph(G)
    if result.cotree is not None:
        return {"cograph": True,
                "expression": format_expression(result.cotree)}, EXIT_OK
    return {"cograph": False, "witness": list(result.witness)}, EXIT_DOMAIN


def _run_analyze(args) -> tuple[dict, int]:
    G = _load_graph(args)
    return analyze(G).to_dict(), EXIT_OK


def _run_embed(args) -> tuple[dict, int]:
    G = _load_graph(args)
    T = named_tree(args.tree)
    theorem = args.theorem
    name, takes_k, two_trees = _THEOREMS[theorem]
    extra = []
    if takes_k:
        if args.k is None:
            raise _UsageError(f"--theorem {theorem} requires -k")
        if args.k < 1:
            raise _UsageError("-k must be at least 1")
        extra = [args.k]
    elif args.k is not None:
        raise _UsageError(f"--theorem {theorem} does not take -k")
    if two_trees:
        T2 = named_tree(args.tree2) if args.tree2 else T
        if T2.order != T.order:
            raise _UsageError("--tree and --tree2 must have the same order")
        extra = [T2]
    elif args.tree2 is not None:
        raise _UsageError(f"--theorem {theorem} does not take --tree2")
    result = getattr(embed, name)(G, T, *extra)
    return {**result.to_dict(), "residual": result.residual_report}, EXIT_OK


def _run_verify(args) -> tuple[dict, int]:
    G = _load_graph(args)
    report = analyze(G)
    flow = _flow_values(G)
    skipped = {"ok": True, "skipped": True}
    checks = [
        {"name": "closed_form_kappa_vs_flow",
         "ok": report.kappa == flow["kappa"],
         "closed_form": report.kappa, "flow": flow["kappa"]},
        {"name": "closed_form_lambda_vs_flow",
         "ok": report.lambda_ == flow["lambda"],
         "closed_form": report.lambda_, "flow": flow["lambda"]},
        {"name": "maximally_connected_vs_flow",
         "ok": report.maximally_connected == flow["maximally_connected"]},
    ]
    if report.connected and G.n <= DEFAULT_CUT_CAP:
        cuts = flow["min_edge_cuts"]
        checks.append({"name": "super_vs_min_cut_enumeration",
                       "ok": report.super_edge_connected
                       == flow["super_edge_connected"],
                       "minimum_cut_size": cuts[0].size if cuts else None})
    else:
        checks.append({"name": "super_vs_min_cut_enumeration", **skipped})
    if G.n <= DEFAULT_CUT_CAP:
        checks.append({"name": "ideal_vs_disjoint_paths",
                       "ok": report.ideally_connected
                       == flow["ideally_connected"]})
    else:
        checks.append({"name": "ideal_vs_disjoint_paths", **skipped})

    all_ok = all(c["ok"] for c in checks)
    return ({"checks": checks, "all_ok": all_ok},
            EXIT_OK if all_ok else EXIT_POSTCONDITION)


def _run_gen(args) -> tuple[dict, int]:
    if bool(args.tight) == bool(args.random_spec):
        raise _UsageError("gen needs exactly one of --tight or --random")
    if args.tight:
        kind, sep, params = args.tight.partition(":")
        if not sep:
            raise _UsageError("--tight takes kind:k,m or kind:m")
        try:
            numbers = [int(x) for x in params.split(",")]
        except ValueError:
            raise _UsageError(f"bad --tight parameters {params!r}") from None
        if len(numbers) == 1:
            example = tight_example(kind, m=numbers[0])
        elif len(numbers) == 2:
            example = tight_example(kind, k=numbers[0], m=numbers[1])
        else:
            raise _UsageError("--tight takes at most two parameters")
        payload = {"expression": example.expression, "kind": example.kind,
                   "claimed": example.claimed}
        if example.k is not None:
            payload["k"] = example.k
        payload["m"] = example.m
        return payload, EXIT_OK
    try:
        n_text, seed_text = args.random_spec.split(",")
        n, seed = int(n_text), int(seed_text)
    except ValueError:
        raise _UsageError("--random takes n,seed") from None
    if n < 1:
        raise _UsageError("--random needs n >= 1")
    ct = random_cotree(n, seed)
    return {"expression": format_expression(ct), "n": n, "seed": seed}, EXIT_OK


_RUNNERS = {
    "recognize": _run_recognize,
    "analyze": _run_analyze,
    "embed": _run_embed,
    "verify": _run_verify,
    "gen": _run_gen,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload, code = _RUNNERS[args.verb](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CographError as exc:
        payload = {"error": str(exc), "type": type(exc).__name__}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            payload["witness"] = list(witness)
        code = (EXIT_POSTCONDITION if isinstance(exc, PostconditionFailedError)
                else EXIT_DOMAIN)
    indent = 2 if args.pretty else None
    print(json.dumps(payload, indent=indent))
    return code


if __name__ == "__main__":
    sys.exit(main())
