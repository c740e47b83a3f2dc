"""Seeded end-to-end benchmark of the ``cograph`` CLI, one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One closed-loop client in one process sends pre-generated requests through
``cographs.cli.main`` (argv plus an edge list on stdin) and times each call,
in seconds and in runs of a fixed reference kernel timed around it
(``perfbench/reference.py``), which cancels the host's CPU-speed swings.
``--trace 0`` measures whole rounds of requests for at least ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` replays a fixed prefix of
rounds untraced and then traced, and reports per-layer metrics from the
spans.  Every answer is checked after timing.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--all`` runs every workload both ways and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
OUT_DIR = ROOT / "perfbench-out"

sys.path.insert(0, str(HERE))
import families  # noqa: E402  (the four need the path above)
import reference  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Request, build  # noqa: E402


def _load_library():
    """Import ``cographs`` from this checkout's ``src`` and nowhere else."""
    package = ROOT / "src" / "cographs"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no cographs package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import cographs.cli
    if Path(cographs.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit("error: cographs was imported from outside the checkout")
    return cographs.cli


def _call(cli, req) -> tuple[int | None, str]:
    """One request; an escaping exception is recorded as exit code None."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(req.graph.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
    except Exception as exc:  # a traceback escaping the CLI is a failure
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _warm_up(cli) -> None:
    """Touch every verb once on tiny inputs so lazy imports are done."""
    g = families.random_connected(random.Random(0), 8)
    for argv in (("recognize", "-"), ("analyze", "-"), ("verify", "-"),
                 ("embed", "-", "--theorem", "th3", "--tree", "path:2", "-k", "1")):
        _call(cli, Request(argv, g, 0))


def _setup(workload_name: str, seed: int):
    cli = _load_library()
    workload = WORKLOADS[workload_name]
    rounds = build(workload, seed)
    _warm_up(cli)
    return cli, workload, rounds


def _play(cli, rounds, indices, timed: list, tracer=None) -> None:
    """Run the given rounds in order, appending (key, code, text, seconds,
    cost): cost is seconds over the reference kernel's time, probed right
    before and right after the request."""
    before = reference.probe()
    for r in indices:
        for pos, req in enumerate(rounds[r % len(rounds)]):
            key = (r % len(rounds), pos)
            start = perf_counter()
            if tracer is None:
                code, text = _call(cli, req)
            else:
                code, text = tracer.request(len(timed), lambda: _call(cli, req))
            seconds = perf_counter() - start
            after = reference.probe()
            timed.append((key, code, text, seconds, 2 * seconds / (before + after)))
            before = after


def _check_all(rounds, results) -> int:
    """Number of failed answers; identical answers are checked once."""
    import checks
    from cographs.embedding import Preserved
    from cographs.graph import Graph
    from cographs.oracle import residual_satisfies

    library = (Graph, Preserved, residual_satisfies)
    verdict: dict = {}
    failed = 0
    for key, code, text, *_ in results:
        memo = (key, code, text)
        if memo not in verdict:
            req = rounds[key[0]][key[1]]
            verdict[memo] = code is not None and checks.check(req, code, text, library)
        failed += not verdict[memo]
    return failed


def _digest(results, count: int) -> str:
    h = hashlib.sha256()
    for _, code, text, *_ in results[:count]:
        h.update(f"{code}\n{text}".encode())
    return h.hexdigest()


def _setup_seconds(workload: str, seed: int) -> float:
    """One fresh-process set-up time: spawn to the child's ``ready`` line."""
    start = perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().strip()
        elapsed = perf_counter() - start
        child.stdout.read()
        child.wait()
    if line != "ready" or child.returncode != 0:
        raise SystemExit("error: set-up probe failed")
    return elapsed


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: the 11th
    largest latency.  Returns (value, percentile, sample count)."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run_untraced(args) -> dict:
    cli, workload, rounds = _setup(args.workload, args.seed)
    results: list = []
    setups: list[float] = []
    # set-up probes are spread over the run, between rounds and off the
    # clock, so that their median spans the host's speed phases
    start = perf_counter()
    paused = 0.0
    r = 0
    while r == 0 or perf_counter() - start - paused < args.seconds:
        if perf_counter() - start - paused >= len(setups) * args.seconds / SETUP_PROBES:
            before = perf_counter()
            setups.append(_setup_seconds(args.workload, args.seed))
            paused += perf_counter() - before
        _play(cli, rounds, [r], results)
        r += 1
    elapsed = perf_counter() - start - paused
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = len(results)
    seconds = [row[3] for row in results]
    costs = [row[4] for row in results]
    if r < workload.trace_rounds:  # the digest always covers the same prefix
        _play(cli, rounds, range(r, workload.trace_rounds), results)
    prefix = sum(len(rounds[i]) for i in range(workload.trace_rounds))
    failed = _check_all(rounds, results)
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_seconds(args.workload, args.seed))
    tail, pct, n = _tail(costs)
    print(f"{args.workload} seed={args.seed}: {timed} requests in {r} rounds, "
          f"{elapsed:.3f} s; fail_ratio {failed}/{len(results)}; "
          f"latency_tail_ref is p{pct:.2f} of {n} samples; "
          f"setup probes {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"wall clock: {timed / sum(seconds):.3f} req/s, "
          f"p50 {1000 * statistics.median(seconds):.3f} ms, "
          f"tail {1000 * _tail(seconds)[0]:.3f} ms; reference kernel "
          f"{1000 * sum(seconds) / sum(costs):.4f} ms on average")
    print(f"digest {_digest(results, prefix)} over the first {prefix} outputs")
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            "throughput_per_kref": {"value": 1000 * timed / sum(costs), "unit": "req/kref"},
            "latency_p50_ref": {"value": statistics.median(costs), "unit": "ref"},
            "latency_tail_ref": {"value": tail, "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }


def run_traced(args) -> dict:
    cli, workload, rounds = _setup(args.workload, args.seed)
    prefix = range(workload.trace_rounds)
    plain: list = []
    _play(cli, rounds, prefix, plain)
    tracer = Tracer()
    traced_results: list = []
    tracer.install()
    try:
        _play(cli, rounds, prefix, traced_results, tracer)
    finally:
        tracer.uninstall()
    results = plain + traced_results
    failed = _check_all(rounds, results)
    # tracing must not change any answer
    failed += sum(a[1:3] != b[1:3] for a, b in zip(plain, traced_results))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_path)
    requests = len(traced_results)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in layer_metrics(tracer.spans, requests).items()}
    overhead = sum(row[4] for row in traced_results) / sum(row[4] for row in plain)
    metrics["bench.tracing_overhead"] = {"value": overhead, "unit": "ratio"}
    print(f"{args.workload} seed={args.seed}: traced replay of {requests} requests, "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print(f"digest {_digest(plain, len(plain))} over the first {len(plain)} outputs")
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload, untraced then traced, as a table of named metrics."""
    record = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record[f"{name}/trace{trace}"] = {"notes": lines[:-1], **result}
            print(f"== {name} trace={trace}: correct={result['correct']} "
                  f"fail_ratio={result['failed']}/{result['attempted']}")
            for note in lines[:-1]:
                print(f"   {note}")
            for metric, body in result["metrics"].items():
                print(f"   {metric:30s} {body['value']:14.4f} {body['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(v["correct"] for v in record.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--out", help="with --all: write every result here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    if args.setup_probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
