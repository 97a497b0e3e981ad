"""Record the benchmark's figures for the source checkout this script sits in.

    python3 tools/record_bench.py BENCH_<n>.json

Runs the command that BENCHMARK.json declares (qbcbench/run.py, unchanged)
at seed SEED, each run lasting BENCHMARK.json's run_seconds: RUNS untraced
runs per workload, round-robin over the workloads, then one traced run of
each, then one timed run of the tier-1 test suite. The output file holds the
environment, each end-to-end metric's median, quartiles, (Q3 - Q1)/median
and raw values per workload, the traced per-layer metrics, and the tier-1
count and wall time. Exits 1 when a run is not correct or has failed ops;
the file is written either way.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SEED = 7
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def git_head() -> str:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench_run(command: list, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its result line, parsed, and the detail file's env."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"record_bench: {' '.join(argv)} exited {out.returncode}: {out.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    detail = os.path.join(ROOT, "qbcbench", "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(detail, encoding="utf-8") as fh:
        result["env"] = json.load(fh)["env"]
    return result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_rel": (q3 - q1) / median, "values": values}


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    out = subprocess.run(TIER1, cwd=ROOT, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    tail = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|skipped|errors?)", tail)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "wall_s": wall, "summary": tail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="output JSON path")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    seconds = bench["run_seconds"]
    problems = []

    def run(workload, trace):
        print(f"record_bench: {workload} trace={trace}", file=sys.stderr, flush=True)
        r = bench_run(bench["command"], workload, SEED, seconds, trace)
        if not r["correct"] or r["failed"]:
            problems.append(f"{workload} trace={trace}: correct={r['correct']} failed={r['failed']}")
        return r

    untraced = {w: [] for w in workloads}
    for _ in range(RUNS):
        for w in workloads:
            untraced[w].append(run(w, 0))
    traced = {w: run(w, 1) for w in workloads}
    env = next(iter(traced.values()))["env"]
    record = {
        "env": {
            "python": env["python"],
            "numpy": env["numpy"],
            "qbc": env["qbc"],
            "cores": os.cpu_count(),
            "cpu_model": cpu_model(),
            "git_head": git_head(),
            "path": "plain-python",
        },
        "seed": SEED,
        "run_seconds": seconds,
        "runs": RUNS,
        "end_to_end": {
            w: {m: summary([r["metrics"][m]["value"] for r in runs]) for m in metrics}
            for w, runs in untraced.items()
        },
        "ops_attempted": {w: [r["attempted"] for r in runs] for w, runs in untraced.items()},
        "traced": {w: r["metrics"] for w, r in traced.items()},
        "tier1": tier1(),
        "problems": problems,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for p in problems:
        print(f"record_bench: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
