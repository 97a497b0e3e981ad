"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them inline).
Stated runtime budgets are asserted on the library's one plain-Python path;
a module fixture runs the eigensolver and the optimizer once first so
budgets measure computation, not first-call set-up.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qbc import hilbert
from qbc.cloner import (
    clone_entanglement,
    clone_state,
    constraint_residuals,
    lambda_objective,
    marginal_closed_form,
    marginals,
    optimal_params,
)
from qbc.discrimination import clone_povm_closed_form, helstrom, pure_pair_error
from qbc.infochannel import (
    bsc,
    cascade_joint_channels,
    check_degraded,
    conditional_mutual_information,
    induced_channel,
    mutual_information,
    rate_region_closed_form,
    rate_region_oracle,
)
from qbc.optimizer import OptimizerConfig, maximize_lambda, random_feasible_params

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    hilbert.hermitian_eig(np.eye(2, dtype=complex))
    maximize_lambda(0.5, OptimizerConfig(n_starts=1, seed=0))


def report(name: str, deviation: float, tolerance: float, elapsed: float, budget: float):
    ok = deviation <= tolerance
    print(
        f"[{'PASS' if ok else 'FAIL'}] {name}: max deviation {deviation:.3e} "
        f"(tolerance {tolerance:.1e}, {elapsed:.2f}s)"
    )
    assert ok, f"{name}: deviation {deviation:.3e} exceeds {tolerance:.1e}"
    check_budget(name, elapsed, budget)


def check_budget(name: str, elapsed: float, budget: float):
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeds the {budget:.0f}s budget"


def eig2_min(m) -> float:
    """Quadratic-formula smallest eigenvalue; independent oracle for 2x2."""
    tr = (m[0, 0] + m[1, 1]).real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    return (tr - math.sqrt(max(0.0, tr * tr - 4.0 * det))) / 2.0


def test_criterion_01_no_extra_decoding_error():
    t0 = time.perf_counter()
    dev = 0.0
    for i in range(10):
        theta = (math.pi / 2) * i / 9
        for j in range(5):
            phi = 2 * math.pi * j / 5
            params = optimal_params(theta, phi)
            rho0 = marginals(clone_state(params, 0))[0]
            rho1 = marginals(clone_state(params, 1))[0]
            got = helstrom(rho0, rho1).error_prob
            dev = max(dev, abs(got - pure_pair_error(theta)))
    report("1 no extra decoding error (50 grid points)", dev, 1e-12, time.perf_counter() - t0, 1.0)


def test_criterion_02_optimal_family_feasibility():
    t0 = time.perf_counter()
    dev = 0.0
    for i in range(20):
        theta = (math.pi / 2) * i / 19
        for j in range(20):
            phi = 2 * math.pi * j / 20
            res = constraint_residuals(optimal_params(theta, phi), theta)
            dev = max(dev, float(np.max(np.abs(res))))
    report("2 optimal-family feasibility (20x20)", dev, 1e-12, time.perf_counter() - t0, 1.0)


def test_criterion_03_marginal_closed_form():
    t0 = time.perf_counter()
    dev = 0.0
    for i in range(20):
        theta = (math.pi / 2) * i / 19
        for j in range(20):
            phi = 2 * math.pi * j / 20
            params = optimal_params(theta, phi)
            closed = marginal_closed_form(theta, phi)
            for which in (0, 1):
                rho, rho_tilde = marginals(clone_state(params, which))
                dev = max(dev, float(np.max(np.abs(rho - closed[which]))))
                dev = max(dev, float(np.max(np.abs(rho - rho_tilde))))
    report("3 marginal closed form and symmetry (20x20)", dev, 1e-12, time.perf_counter() - t0, 1.0)


def test_criterion_04_entanglement_formula():
    t0 = time.perf_counter()
    dev_entropy = 0.0
    dev_phi = 0.0
    for i in range(20):
        theta = (math.pi / 2) * i / 19
        want = clone_entanglement(theta, 0.0)
        entropies = []
        for j in range(20):
            phi = 2 * math.pi * j / 20
            params = optimal_params(theta, phi)
            for which in (0, 1):
                rho, rho_tilde = marginals(clone_state(params, which))
                for reduced in (rho, rho_tilde):
                    s = hilbert.von_neumann_entropy(reduced)
                    entropies.append(s)
                    dev_entropy = max(dev_entropy, abs(s - want))
        dev_phi = max(dev_phi, max(entropies) - min(entropies))
    dev_endpoints = max(
        abs(clone_entanglement(math.pi / 2, 0.0)),
        abs(clone_entanglement(0.0, 0.0) - math.log(2)),
    )
    elapsed = time.perf_counter() - t0
    report("4a entanglement equals h(P_e) (20x20)", max(dev_entropy, dev_endpoints), 1e-10, elapsed, 1.0)
    report("4b entanglement is phi-independent", dev_phi, 1e-12, elapsed, 1.0)


def test_criterion_05_corrected_objective_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    dev = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.0, math.pi / 2)
        params = random_feasible_params(theta, rng)
        rho0 = marginals(clone_state(params, 0))[0]
        rho1 = marginals(clone_state(params, 1))[0]
        dev = max(dev, abs(lambda_objective(params) - eig2_min(rho0 - rho1) ** 2))
    # negative control: without the second square the objective is -1 at the
    # exact copying point, impossible for a squared eigenvalue gap
    p = optimal_params(math.pi / 2, 0.0)
    unsquared = (p.a1 * p.c1 + p.b1 * p.d1 - p.a0 * p.c0 - p.b0 * p.d0) ** 2 + (
        p.a1**2 + p.b1**2 - p.a0**2 - p.b0**2
    )
    assert unsquared < -0.999
    report("5 objective equals squared min eigenvalue (1000 random feasible)", dev, 1e-10, time.perf_counter() - t0, 2.0)


def test_criterion_06_optimizer_recovers_optimum():
    t0 = time.perf_counter()
    dev_grid = 0.0
    for k in range(25):
        theta = (math.pi / 2) * k / 24
        rep = maximize_lambda(theta, OptimizerConfig(n_starts=32, seed=100 + k))
        s2 = math.sin(theta) ** 2
        dev_grid = max(dev_grid, abs(rep.lambda_max / s2 - 1.0) if s2 else rep.lambda_max)
    rng = np.random.default_rng(4096)
    dev_bound = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.0, math.pi / 2)
        params = random_feasible_params(theta, rng)
        dev_bound = max(dev_bound, lambda_objective(params) - math.sin(theta) ** 2)
    elapsed = time.perf_counter() - t0
    report("6a optimizer recovers sin^2 theta, relative gap (25 angles, 32 starts)", dev_grid, 1e-9, elapsed, 3.0)
    report("6b no feasible point beats the optimum", dev_bound, 1e-9, elapsed, 3.0)


def test_criterion_06c_optimizer_relative_accuracy():
    """Every start converges and the gap is relative, down to theta = 1e-150."""
    t0 = time.perf_counter()
    dev = 0.0
    thetas = (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-80, 1e-100, 1e-150, math.pi / 2 - 1e-9, math.pi / 2)
    for theta in thetas:
        rep = maximize_lambda(theta, OptimizerConfig(seed=1))
        assert rep.starts_converged == 32, (theta, rep.starts_converged)
        dev = max(dev, abs(rep.lambda_max / math.sin(theta) ** 2 - 1.0))
    assert maximize_lambda(0.0, OptimizerConfig(seed=1)).lambda_max < 1e-9
    report("6c optimizer relative gap (10 angles, 1e-150 to pi/2)", dev, 1e-9, time.perf_counter() - t0, 2.0)


def test_criterion_07_rate_region():
    t0 = time.perf_counter()
    dev = 0.0
    for i in range(20):
        pe = 0.5 * i / 19
        for j in range(20):
            eps = 0.5 * j / 19
            closed = rate_region_closed_form(pe, eps)
            brute = rate_region_oracle(pe, eps)
            dev = max(dev, abs(closed.r1 - brute.r1), abs(closed.r2 - brute.r2))
    for pe in (0.0, 0.1, 0.37):
        lo = rate_region_closed_form(pe, 0.0)
        hi = rate_region_closed_form(pe, 0.5)
        from qbc.infochannel import LN2, binary_entropy

        dev = max(dev, abs(lo.r1), abs(lo.r2 - (LN2 - binary_entropy(pe))))
        dev = max(dev, abs(hi.r2), abs(hi.r1 - (LN2 - binary_entropy(pe))))
    report("7 rate region matches the joint-distribution oracle (20x20)", dev, 1e-12, time.perf_counter() - t0, 1.0)


def test_criterion_08_degradedness():
    t0 = time.perf_counter()
    dev = 0.0
    for i in range(20):
        theta = (math.pi / 2) * i / 19
        for j in range(5):
            phi = 2 * math.pi * j / 5
            channel = induced_channel(theta, phi, clone_povm_closed_form(phi))
            dev = max(dev, check_degraded(channel, channel))
    report("8 constructed channel pairs are degraded (identity W)", dev, 1e-12, time.perf_counter() - t0, 1.0)


def test_criterion_09_capacities_depend_only_on_pe():
    t0 = time.perf_counter()
    dev = 0.0
    for i in range(10):
        theta = (math.pi / 2) * i / 9
        phi = 2 * math.pi * ((3 * i) % 10) / 10
        channel = induced_channel(theta, phi, clone_povm_closed_form(phi))
        for j in range(10):
            eps = 0.5 * j / 9
            joint = cascade_joint_channels(bsc(eps), channel)
            closed = rate_region_closed_form(pure_pair_error(theta), eps)
            dev = max(dev, abs(conditional_mutual_information(joint, "X", "Y", "S") - closed.r1))
            dev = max(dev, abs(mutual_information(joint, "S", "Z") - closed.r2))
    report("9 rates depend on the quantum layer only through P_e (100 pairs)", dev, 1e-12, time.perf_counter() - t0, 2.0)


def test_criterion_10_verify_is_deterministic():
    t0 = time.perf_counter()
    env = os.environ.copy()
    env.setdefault("PYTHONPATH", os.path.join(PKG_ROOT, "src"))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "qbc", "verify", "--seed", "42"],
            capture_output=True,
            env=env,
        )
        for _ in range(2)
    ]
    ok = (
        runs[0].returncode == 0
        and runs[1].returncode == 0
        and runs[0].stdout == runs[1].stdout
    )
    elapsed = time.perf_counter() - t0
    name = "10 verify twice: identical bytes, exit 0"
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s)")
    assert runs[0].returncode == 0, runs[0].stdout.decode()
    assert runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    check_budget(name, elapsed, 20.0)
