"""Benchmark of the qbc library, run from the root of a source checkout.

    python3 qbcbench/run.py --workload optimize --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one client, one process; see README.md):
  optimize  maximize_lambda over a log-spaced angle grid, 8 starts per angle
  pipeline  one seeded point from optimal_params to the rate pair
  verify    `qbc verify --seed S`, in-process

The library is imported from ``src/`` next to this directory, never from an
installed copy. Every op's outputs are checked against values computed apart
from the program. With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` a traced run reports per-layer metrics
instead. A copy of the result, with more detail, goes to
``qbcbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("optimize", "pipeline", "verify")
# fresh processes timed from spawn to the first timed op; setup_s is their median
SETUP_SAMPLES = 5
# every run does at least this many ops; trace counts come from exactly these
MIN_OPS = {"optimize": 4, "pipeline": 200, "verify": 2}
# op_p99_ms is the median over consecutive windows of this much op time, so
# a burst of host contention moves one window, not the figure
WINDOW_S = 4.0
READY = "qbcbench: ready"


def load_library():
    """Import qbc from this checkout's src/ and the benchmark's workloads."""
    pkg = os.path.join(SRC, "qbc")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"qbcbench: no qbc sources at {pkg}")
    sys.path[:0] = [SRC, HERE]
    import qbc
    import workloads

    if os.path.dirname(os.path.abspath(qbc.__file__)) != pkg:
        sys.exit(f"qbcbench: imported qbc from {qbc.__file__}, not from {pkg}")
    return qbc, workloads


def set_up(workload: str, seed: int):
    """Everything a run does before its first timed op."""
    qbc, workloads = load_library()
    w = workloads.WORKLOADS[workload](seed)
    workloads.warm_up(seed)
    return qbc, workloads, w


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line != READY:
        sys.exit(f"qbcbench: set-up process exited {code} (first line {line!r})")
    return elapsed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the maximum when fewer than 1/(1-q) values."""
    return sorted(values)[max(1, math.ceil(len(values) * q)) - 1]


def windows(latencies: list[float]) -> list[list[float]]:
    """Consecutive ops grouped until each group holds WINDOW_S of op time.

    A shorter remainder joins the last group; an op longer than WINDOW_S is
    a window of its own.
    """
    groups, current, total = [], [], 0.0
    for t in latencies:
        current.append(t)
        total += t
        if total >= WINDOW_S:
            groups.append(current)
            current, total = [], 0.0
    if current:
        if groups:
            groups[-1] += current
        else:
            groups.append(current)
    return groups


def run_ops(w, seconds: float, min_ops: int, tracer):
    """Closed loop: start op k+1 only if it should end within `seconds`."""
    latencies, problems = [], []
    attempted = failed = 0
    first_counts = None
    start = time.perf_counter()
    while True:
        inp = w.inputs(attempted)
        t0 = time.perf_counter()
        try:
            out = w.op(inp)
        except Exception:  # an op that raises is counted as failed, run goes on
            out = None
            if not failed:
                traceback.print_exc()
        t1 = time.perf_counter()
        attempted += 1
        if out is None:
            failed += 1
        else:
            latencies.append(t1 - t0)
            problems += [f"op {attempted - 1}: {p}" for p in w.check(inp, out)]
        if tracer is not None and attempted == min_ops:
            first_counts = tracer.snapshot()
        elapsed = time.perf_counter() - start
        if attempted >= min_ops and elapsed * (attempted + 1) / attempted > seconds:
            return latencies, attempted, failed, problems, first_counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        set_up(args.workload, args.seed)
        print(READY, flush=True)
        return 0

    setup = [time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    qbc, workloads, w = set_up(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install([workloads])

    latencies, attempted, failed, problems, first_counts = run_ops(
        w, args.seconds, MIN_OPS[args.workload], tracer
    )
    for p in problems[:10]:
        print(f"qbcbench: WRONG {p}", file=sys.stderr)
    ops = len(latencies)
    if not ops:
        sys.exit(f"qbcbench: all {attempted} ops failed")
    groups = windows(latencies)
    if tracer is not None:
        metrics = tracer.metrics(ops, MIN_OPS[args.workload], first_counts)
    else:
        metrics = {
            "ops_per_s": {"value": ops / sum(latencies), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_p99_ms": {
                "value": statistics.median(percentile(g, 0.99) for g in groups) * 1e3,
                "unit": "ms",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "qbc": qbc.__version__,
            "numba_enabled": qbc.NUMBA_ENABLED,
            "cpus": os.cpu_count(),
        },
        "setup_samples_s": setup,
        "ops_timed": ops,
        "op_total_s": sum(latencies),
        "windows": [{"ops": len(g), "op_s": sum(g)} for g in groups],
        "problems": problems,
        "layers": tracer.table() if tracer is not None else None,
        "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    path = "numba" if qbc.NUMBA_ENABLED else "pure-python fallback"
    print(
        f"qbcbench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"acceleration={path} (qbc.NUMBA_ENABLED={qbc.NUMBA_ENABLED}) "
        f"attempted={attempted} failed={failed} timed_ops={ops} wrong={len(problems)}"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
