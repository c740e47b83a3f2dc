"""Independent checks of each CLI answer, run outside the timed interval.

Graph facts come from the benchmark's own adjacency sets and expression
arithmetic, never from the library's parser, recognizer or classifiers.
The one library call is ``oracle.residual_satisfies`` on an embedding's
residual, the flow and cut-enumeration route the oracle exists for.
"""

from __future__ import annotations

import json

import theorems as TH
from workloads import Request


def _is_p4(adj, quad) -> bool:
    """True when the four vertices induce the path quad[0]-...-quad[3]."""
    if len(quad) != 4 or len(set(quad)) != 4:
        return False
    if any(not (isinstance(v, int) and 0 <= v < len(adj)) for v in quad):
        return False
    path = {(0, 1), (1, 2), (2, 3)}
    return all((quad[j] in adj[quad[i]]) == ((i, j) in path)
               for i in range(4) for j in range(i + 1, 4))


def _expression_degrees(text: str) -> list[int] | None:
    """Degree multiset of the cograph an expression denotes, or None when
    the text is malformed.  ``|`` binds tighter than ``+``."""

    def combine(op, parts):
        if op == "|":
            return [d for p in parts for d in p]
        total = sum(len(p) for p in parts)
        return [d + total - len(p) for p in parts for d in p]

    # each frame: ([joined terms], [atoms of the current union term])
    stack: list[tuple[list, list]] = [([], [])]
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "K":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                return None
            c = int(text[i + 1:j])
            stack[-1][1].append([c - 1] * c)
            i = j
            continue
        if ch == "(":
            stack.append(([], []))
        elif ch in "|+":
            if not stack[-1][1]:
                return None
            if ch == "+":
                terms, atoms = stack[-1]
                terms.append(combine("|", atoms))
                stack[-1] = (terms, [])
        elif ch == ")":
            if len(stack) < 2 or not stack[-1][1]:
                return None
            terms, atoms = stack.pop()
            stack[-1][1].append(combine("+", terms + [combine("|", atoms)]))
        elif not ch.isspace():
            return None
        i += 1
    if len(stack) != 1 or not stack[0][1]:
        return None
    terms, atoms = stack[0]
    return combine("+", terms + [combine("|", atoms)])


def _connected(adj) -> bool:
    seen = {0}
    todo = [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(adj)


def _check_recognize(req: Request, code: int, out: dict) -> bool:
    adj = req.graph.adj
    if req.expect_exit == 3:
        return code == 3 and out.get("cograph") is False and _is_p4(adj, out.get("witness", []))
    if code != 0 or out.get("cograph") is not True:
        return False
    degs = _expression_degrees(out.get("expression", ""))
    return degs is not None and sorted(degs) == sorted(len(a) for a in adj)


def _check_refusal(req: Request, code: int, out: dict) -> bool:
    """analyze on a near-cograph must refuse with a verified P4 witness."""
    return (code == 3 and out.get("type") == "NotACographError"
            and _is_p4(req.graph.adj, out.get("witness", [])))


def _check_analyze(req: Request, code: int, out: dict) -> bool:
    if req.expect_exit == 3:
        return _check_refusal(req, code, out)
    adj = req.graph.adj
    degs = [len(a) for a in adj]
    return (code == 0 and out.get("n") == len(adj)
            and out.get("delta") == min(degs) and out.get("Delta") == max(degs)
            and out.get("connected") == _connected(adj))


def _placement(part: dict, t: TH.Tree, adj, mode: str, tag: str) -> dict | None:
    """Tree-to-graph map of one embedding if it is a valid copy of ``t``."""
    if part.get("mode") != mode or part.get("preserved") != tag:
        return None
    pairs = part.get("map", [])
    mapping = {p[0]: p[1] for p in pairs}
    if sorted(mapping) != list(range(t.m)) or len(pairs) != t.m:
        return None
    image = set(mapping.values())
    if len(image) != t.m or any(not (0 <= g < len(adj)) for g in image):
        return None
    if any(mapping[v] not in adj[mapping[u]] for u, v in t.edges):
        return None
    return mapping


def _check_embed(req: Request, code: int, out: dict, library) -> bool:
    g = req.graph
    if req.expect_exit == 3:
        need = TH.required_delta(req.theorem, g, req.trees[0], req.k)
        return (code == 3 and out.get("type") == "BoundViolatedError"
                and min(len(a) for a in g.adj) < need)
    kind, param = TH.preserved(req.theorem, g, req.k)
    tag = f"{kind}({param})" if param is not None else kind
    mode = "edge" if req.theorem in TH.EDGE_MODE else "vertex"
    if req.theorem in ("th2", "th4"):
        parts = [out.get("first") or {}, out.get("second") or {}]
        trees = [req.trees[0], req.trees[-1]]
    else:
        parts, trees = [out], [req.trees[0]]
    placed = []
    for part, t in zip(parts, trees):
        mapping = _placement(part, t, g.adj, mode, tag)
        if mapping is None:
            return False
        placed.append((t, mapping))
    images = [set(mp.values()) for _, mp in placed]
    if len(images) == 2 and images[0] & images[1]:
        return False
    Graph, Preserved, residual_satisfies = library
    edges = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
    if mode == "vertex":
        gone = set().union(*images)
        if len(gone) >= g.n:
            return False
        residual = Graph([v for v in range(g.n) if v not in gone],
                         [(u, v) for u, v in edges if u not in gone and v not in gone])
    else:
        gone = {tuple(sorted((mp[a], mp[b]))) for t, mp in placed for a, b in t.edges}
        residual = Graph(range(g.n), [e for e in edges if e not in gone])
    return residual_satisfies(Graph(range(g.n), edges), residual, Preserved(kind, param))


def check(req: Request, code, text: str, library) -> bool:
    """Whether one request's exit code and JSON output are right."""
    if code != req.expect_exit:
        return False
    try:
        out = json.loads(text)
    except ValueError:
        return False
    if not isinstance(out, dict):
        return False
    verb = req.verb
    if verb == "recognize":
        return _check_recognize(req, code, out)
    if verb == "analyze":
        return _check_analyze(req, code, out)
    if verb == "embed":
        return _check_embed(req, code, out, library)
    return code == 0 and out.get("all_ok") is True
