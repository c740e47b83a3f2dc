"""A fixed pure-Python reference kernel that request times are divided by.

The host this benchmark was written on changes its CPU speed in phases of a
few seconds, by up to 1.9x: the same round of requests replayed in one
process took 360 ms in one phase and 700 ms in the next, and a fixed loop's
CPU time followed its wall time, so the swings are not scheduling delays.
Timing the kernel below right before and right after every request, and
dividing the request's time by the mean of the two, cancels most of that.

The kernel is part of the benchmark, not of the program, so an optimisation
of the program moves the ratio and nothing else does.  It does the kind of
interpreter work the library does: adjacency sets, a graph search, set
intersections, sorting, small tuples and string formatting.
"""

from __future__ import annotations

import gc
from time import perf_counter

ORDER = 120
PROBE_RUNS = 3


def kernel() -> int:
    """One fixed unit of work (about 0.3 ms on a 2.1 GHz Xeon vCPU)."""
    adj = {v: {(v * 7 + j * j) % ORDER for j in range(1, 9)} - {v}
           for v in range(ORDER)}
    for v in range(ORDER):
        for u in adj[v]:
            adj[u].add(v)
    seen, order, stack = set(), [], [0]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            order.append(x)
            stack.extend(sorted(adj[x], reverse=True))
    pairs = [(len(adj[x] & adj[y]), x, y) for x, y in zip(order, order[1:])]
    pairs.sort()
    text = "\n".join(f"{x} {y}" for _, x, y in pairs[:64])
    return len(text) + sum(c for c, _, _ in pairs)


def probe() -> float:
    """Median time of a few kernel runs, in seconds.

    The cyclic garbage collector is off while the kernel runs, so a large
    heap left by the program cannot slow the kernel down and flatter the
    ratio; the kernel makes no cycles, so nothing is left for it to collect.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBE_RUNS):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]
