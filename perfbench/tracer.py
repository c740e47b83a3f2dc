"""Span tracing by wrapping the library's public functions from outside.

Every public function defined in a layer module (``cli``, ``graph``,
``cotree``, ``analysis``, ``embed``, ``oracle``) is replaced, in every
``cographs`` module namespace that binds it, by a wrapper that records a
span.  Module globals are looked up at call time, so calls between the
library's own functions are caught too (``analyze`` calling
``is_ideally_connected``, ``keep_*`` calling ``vertex_connectivity_flow``).
SciPy's ``maximum_flow`` is wrapped where ``cographs.graph`` binds it.
Private names are never touched, so internal refactors do not break this.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "graph", "cotree", "analysis", "embed", "oracle")
# Node constructors run once per cotree node; a span each would measure the
# tracer, not the layer.  The request span stands for ``cli.main``.
SKIP = {"cotree.leaf", "cotree.union", "cotree.join", "cli.main"}
REQUEST = "cli.request"


class Tracer:
    """Spans in memory: (name, start, end, parent index, request id)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._request = -1
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._request)

        return wrapper

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"cographs.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                targets[id(obj)] = (obj, self._wrap(name, obj))
        graph = sys.modules["cographs.graph"]
        flow = graph.maximum_flow
        targets[id(flow)] = (flow, self._wrap("graph.maximum_flow", flow))
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("cographs"):
                continue
            for attr, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def request(self, rid: int, call):
        """Run ``call`` inside a request span."""
        self._request = rid
        return self._wrap(REQUEST, call)()

    def write(self, path) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, rid in self.spans:
                handle.write(json.dumps([name, round((start - base) * 1e6, 1),
                                         round((end - base) * 1e6, 1),
                                         parent, rid]) + "\n")


# -- per-layer metrics from spans ------------------------------------------------------

FLOW = {"graph.vertex_connectivity_flow", "graph.edge_connectivity_flow",
        "graph.internally_disjoint_paths"}
SURGERY = {"graph.delete_vertices", "graph.delete_edges", "graph.induced_subgraph"}
RECOGNIZE = "cotree.cotree_from_graph"
POSTCONDITION = FLOW | {"graph.maximum_flow", "oracle.min_edge_cuts", RECOGNIZE}


def _is_keep(name: str) -> bool:
    return (name.startswith("embed.keep_")
            and name != "embed.keep_vertex_connectivity_bound")


def layer_metrics(spans, requests: int) -> dict[str, tuple[float, str]]:
    """Per-request times (ms) and call counts, from one traced replay."""
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    self_time = list(dur)
    children: list[list[int]] = [[] for _ in spans]
    for i, p in enumerate(parents):
        if p >= 0:
            self_time[p] -= dur[i]
            children[p].append(i)

    def has_ancestor_in(i: int, group, stop: int = -1) -> bool:
        p = parents[i]
        while p != stop and p >= 0:
            if names[p] in group:
                return True
            p = parents[p]
        return False

    def inclusive(group) -> float:
        return sum(dur[i] for i, n in enumerate(names)
                   if n in group and not has_ancestor_in(i, group))

    def self_of(pred) -> float:
        return sum(self_time[i] for i, n in enumerate(names) if pred(n))

    def count(name) -> int:
        return sum(1 for n in names if n == name)

    post = 0.0
    keep_names = {n for n in names if _is_keep(n)}
    keeps = [i for i, n in enumerate(names)
             if n in keep_names and not has_ancestor_in(i, keep_names)]
    for k in keeps:
        inside, todo = [], list(children[k])
        while todo:
            j = todo.pop()
            inside.append(j)
            todo.extend(children[j])
        recs = sorted((spans[j][1], j) for j in inside if names[j] == RECOGNIZE)
        after = spans[recs[0][1]][2] if recs else spans[k][1]
        post += sum(dur[j] for j in inside
                    if names[j] in POSTCONDITION and spans[j][1] >= after
                    and not has_ancestor_in(j, POSTCONDITION, stop=k))

    per = 1.0 / requests
    ms = 1000.0 * per
    return {
        "cli.self_ms": (self_of(lambda n: n == REQUEST) * ms, "ms"),
        "graph.read_ms": (inclusive({"graph.read_edge_list"}) * ms, "ms"),
        "graph.surgery_ms": (inclusive(SURGERY) * ms, "ms"),
        "graph.flow_ms": (self_of(lambda n: n in FLOW) * ms, "ms"),
        "graph.maxflow_ms": (inclusive({"graph.maximum_flow"}) * ms, "ms"),
        "graph.maxflow_calls": (count("graph.maximum_flow") * per, "count"),
        "cotree.recognize_ms": (inclusive({RECOGNIZE}) * ms, "ms"),
        "cotree.recognize_calls": (count(RECOGNIZE) * per, "count"),
        "cotree.p4_search_ms": (inclusive({"cotree.find_induced_p4"}) * ms, "ms"),
        "cotree.parse_ms": (inclusive({"cotree.parse_expression"}) * ms, "ms"),
        "cotree.materialize_ms": (inclusive({"cotree.materialize"}) * ms, "ms"),
        "cotree.format_ms": (inclusive({"cotree.format_expression"}) * ms, "ms"),
        "analysis.analyze_ms": (inclusive({"analysis.analyze"}) * ms, "ms"),
        "analysis.ideal_ms": (inclusive({"analysis.is_ideally_connected"}) * ms, "ms"),
        "analysis.degrees_calls": (count("analysis.degrees") * per, "count"),
        "analysis.cocomponents_calls": (count("cotree.cocomponents") * per, "count"),
        "embed.keep_ms": (self_of(_is_keep) * ms, "ms"),
        "embed.postcondition_ms": (post * ms, "ms"),
        "oracle.cuts_ms": (inclusive({"oracle.min_edge_cuts"}) * ms, "ms"),
        "oracle.cuts_calls": (count("oracle.min_edge_cuts") * per, "count"),
    }
