"""The benchmark's own tests: each workload check accepts the program's
output and rejects a deliberately wrong value (negative controls).

    python3 -m pytest qbcbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def optimize_run():
    w = workloads.Optimize(seed=7)
    inp = w.inputs(0)
    return w, inp, w.op(inp)


@pytest.fixture(scope="module")
def pipeline_runs():
    w = workloads.Pipeline(seed=7)
    runs = []
    for k in range(20):
        inp = w.inputs(k)
        runs.append((inp, w.op(inp)))
    return w, runs


@pytest.fixture(scope="module")
def verify_run():
    w = workloads.Verify(seed=7)
    inp = w.inputs(0)
    return w, inp, w.op(inp)


def test_optimize_check_accepts_program_output(optimize_run):
    w, inp, out = optimize_run
    assert w.check(inp, out) == []


def test_optimize_check_rejects_lambda_scaled_by_1e_6(optimize_run):
    _, inp, out = optimize_run
    for (theta, _), report in zip(inp, out):
        wrong = dataclasses.replace(report, lambda_max=report.lambda_max * (1.0 + 1e-6))
        assert workloads.check_optimum(theta, wrong), theta


def test_optimize_check_rejects_infeasible_params(optimize_run):
    _, inp, out = optimize_run
    theta, report = inp[0][0], out[0]
    params = dataclasses.replace(
        report.best_params, a0=report.best_params.a0 + 1e-6
    )
    assert workloads.check_optimum(theta, dataclasses.replace(report, best_params=params))


def test_optimize_check_rejects_no_converged_start(optimize_run):
    _, inp, out = optimize_run
    wrong = dataclasses.replace(out[-1], starts_converged=0)
    assert workloads.check_optimum(inp[-1][0], wrong)


def test_pipeline_check_accepts_program_output(pipeline_runs):
    w, runs = pipeline_runs
    for inp, out in runs:
        assert w.check(inp, out) == [], inp


def test_pipeline_check_rejects_pe_shifted_by_1e_9(pipeline_runs):
    w, runs = pipeline_runs
    for inp, out in runs:
        decode = out["decode"]
        wrong = dict(out, decode=dataclasses.replace(decode, error_prob=decode.error_prob + 1e-9))
        assert w.check(inp, wrong), inp


def test_pipeline_check_rejects_swapped_rates(pipeline_runs):
    w, runs = pipeline_runs
    for inp, out in runs:
        for route in ("closed", "oracle"):
            r1, r2 = out[route]
            assert w.check(inp, dict(out, **{route: (r2, r1)})), (inp, route)


def test_pipeline_check_rejects_wrong_channel(pipeline_runs):
    w, runs = pipeline_runs
    inp, out = runs[0]
    channel = out["channel"][:, ::-1]
    assert w.check(inp, dict(out, channel=channel))


def test_verify_check_accepts_program_output(verify_run):
    w, inp, out = verify_run
    assert w.check(inp, out) == []


def test_verify_check_rejects_failures_and_changed_bytes(verify_run):
    w, inp, (code, text) = verify_run
    first = text
    expected = w.expected_checks
    check = workloads.check_verify_output
    assert check(0, text, first, expected) == []
    assert check(1, text, first, expected)
    lines = text.decode().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.split()[-1:] == ["PASS"])
    failed = "".join(lines[:row] + [lines[row].replace("PASS", "FAIL")] + lines[row + 1:]).encode()
    assert check(0, failed, failed, expected)
    dropped = "".join(lines[:row] + lines[row + 1:]).encode()
    assert check(0, dropped, dropped, expected)
    fields = lines[row].split()
    zero = lines[row].replace(f" {fields[2]} ", " 0 ", 1)
    zeroed = "".join(lines[:row] + [zero] + lines[row + 1:]).encode()
    assert check(0, zeroed, zeroed, expected)
    changed = text.replace(b"suites passed", b"suites  passed")
    assert check(0, changed, first, expected)


def test_traced_run_reports_exact_counts():
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "pipeline",
           "--seed", "3", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["hilbert.hermitian_eig.calls"]["value"] == 6
    assert metrics["discrimination.helstrom.calls"]["value"] == 1
    assert metrics["kernels.run_starts.iters"]["value"] == 0


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "qbcbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "qbcbench/run.py", "--workload", "pipeline",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
