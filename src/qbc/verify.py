"""Release-gate invariant suites behind ``qbc verify``.

One suite per library module. Every check accumulates a deviation against
its tolerance from the shared table in a CheckResult and remembers the
first failing case's inputs. Output is a deterministic function of the
seed: two runs with the same seed print identical bytes.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import hilbert, infochannel, reports
from . import tolerances as tol
from .cloner import (
    clone_entanglement,
    clone_state,
    lambda_objective,
    marginal_closed_form,
    marginals,
    optimal_params,
    constraint_residuals,
)
from .discrimination import (
    BinaryPOVM,
    clone_povm_closed_form,
    error_of_povm,
    helstrom,
    pure_pair_error,
)
from .optimizer import (
    OptimizerConfig,
    _ascents,
    _clone_params,
    maximize_lambda,
    random_feasible_params,
)


@dataclass
class CheckResult:
    """One check: its case count, largest deviation and first failing case."""

    suite: str
    name: str
    tolerance: float
    count: int = 0
    max_deviation: float = 0.0
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    def add(self, deviation: float, context: str) -> None:
        self.count += 1
        self.max_deviation = max(self.max_deviation, deviation)
        if deviation > self.tolerance and self.first_failure is None:
            self.first_failure = f"{context}: deviation {deviation:.6e} > tolerance {self.tolerance:.1e}"


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _random_pure(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _suite_hilbert(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 1])
    prod = CheckResult("hilbert", "product_marginals", tol.RECONSTRUCTION_TOL)
    for k in range(200):
        a, b = _random_pure(rng), _random_pure(rng)
        psi = hilbert.ket(np.kron(a, b))
        for side in ("first", "second"):
            reduced = hilbert.partial_trace(psi, side)
            evals = hilbert.hermitian_eig(reduced).eigenvalues
            dev = max(abs(evals[0]), hilbert.von_neumann_entropy(reduced))
            prod.add(dev, f"product ket {k}, trace {side}")

    recon = CheckResult("hilbert", "eig_reconstruction", tol.RECONSTRUCTION_TOL)
    for k in range(1000):
        dim = 2 if k % 2 == 0 else 4
        m = _random_hermitian(rng, dim)
        dec = hilbert.hermitian_eig(m)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        dev = max(
            float(np.max(np.abs(rebuilt - m))),
            float(np.max(np.abs(gram - np.eye(dim)))),
        )
        recon.add(dev, f"random hermitian {k} (dim {dim})")

    addi = CheckResult("hilbert", "entropy_additivity", 1e-9)
    for k in range(100):
        r1, r2 = _random_density(rng, 2), _random_density(rng, 2)
        dev = abs(
            hilbert.von_neumann_entropy(np.kron(r1, r2))
            - hilbert.von_neumann_entropy(r1)
            - hilbert.von_neumann_entropy(r2)
        )
        addi.add(dev, f"density pair {k}")

    ptr = CheckResult("hilbert", "ptrace_preserves_trace", tol.EQUALITY_TOL)
    for k in range(200):
        m = _random_hermitian(rng, 4)
        full = np.trace(m).real
        for side in ("first", "second"):
            dev = abs(np.trace(hilbert.partial_trace(m, side)).real - full)
            ptr.add(dev, f"hermitian {k}, trace {side}")

    return [prod, recon, addi, ptr]


def _suite_discrimination(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 2])
    opt = CheckResult("discrimination", "helstrom_optimality", tol.EQUALITY_TOL)
    for k in range(1000):
        theta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(0.0, 2 * math.pi * (1 - 1e-12))
        rho0, rho1 = marginal_closed_form(theta, phi)
        v = _random_pure(rng)
        pi0 = np.outer(v, v.conj())
        povm = BinaryPOVM(pi0=pi0, pi1=np.eye(2, dtype=np.complex128) - pi0)
        dev = helstrom(rho0, rho1).error_prob - error_of_povm(rho0, rho1, povm)
        opt.add(dev, f"case {k}: theta={theta}, phi={phi}")

    dp = CheckResult("discrimination", "data_processing", tol.EQUALITY_TOL)
    for k in range(500):
        rho0, rho1 = _random_density(rng, 2), _random_density(rng, 2)
        v = _random_pure(rng)
        t, s = rng.uniform(0, 1), rng.uniform(0, 1)
        m0 = t * np.outer(v, v.conj()) + s * (np.eye(2) - np.outer(v, v.conj()))
        p0 = np.array([np.trace(rho0 @ m0).real, np.trace(rho0 @ (np.eye(2) - m0)).real])
        p1 = np.array([np.trace(rho1 @ m0).real, np.trace(rho1 @ (np.eye(2) - m0)).real])
        classical = 0.5 * float(np.minimum(p0, p1).sum())
        dev = helstrom(rho0, rho1).error_prob - classical
        dp.add(dev, f"case {k}")

    sym = CheckResult("discrimination", "swap_symmetry_exact", 0.0)
    for k in range(500):
        rho0, rho1 = _random_density(rng, 2), _random_density(rng, 2)
        dev = abs(helstrom(rho0, rho1).error_prob - helstrom(rho1, rho0).error_prob)
        sym.add(dev, f"case {k}")

    mono = CheckResult("discrimination", "pure_pair_error_decreasing", 0.0)
    thetas = [((k + 1) / 1001) * (math.pi / 2) for k in range(1000)]
    errors = [pure_pair_error(t) for t in thetas]
    for k in range(len(errors) - 1):
        mono.add(errors[k + 1] - errors[k], f"grid step {k}")

    return [opt, dp, sym, mono]


def _theta_phi_grid(n_theta: int, n_phi: int) -> list[tuple[float, float]]:
    return [
        ((math.pi / 2) * i / (n_theta - 1), 2 * math.pi * j / n_phi)
        for i in range(n_theta)
        for j in range(n_phi)
    ]


def _suite_cloner(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 3])
    noerr = CheckResult("cloner", "no_extra_error", tol.EQUALITY_TOL)
    for theta, phi in _theta_phi_grid(10, 5):
        params = optimal_params(theta, phi)
        rho0 = marginals(clone_state(params, 0))[0]
        rho1 = marginals(clone_state(params, 1))[0]
        dev = abs(helstrom(rho0, rho1).error_prob - pure_pair_error(theta))
        noerr.add(dev, f"theta={theta}, phi={phi}")

    msym = CheckResult("cloner", "marginal_symmetry", tol.EQUALITY_TOL)
    for k in range(200):
        theta = rng.uniform(0.0, math.pi / 2)
        params = random_feasible_params(theta, rng)
        for which in (0, 1):
            both = marginals(clone_state(params, which))
            msym.add(float(np.max(np.abs(both[0] - both[1]))), f"case {k}, clone {which}")

    oracle = CheckResult("cloner", "lambda_eigenvalue_oracle", tol.RECONSTRUCTION_TOL)
    for k in range(1000):
        theta = rng.uniform(0.0, math.pi / 2)
        params = random_feasible_params(theta, rng)
        rho0 = marginals(clone_state(params, 0))[0]
        rho1 = marginals(clone_state(params, 1))[0]
        lam_min = float(hilbert.hermitian_eig(rho0 - rho1).eigenvalues[0])
        dev = abs(lambda_objective(params) - lam_min**2)
        oracle.add(dev, f"case {k}: theta={theta}")

    closed = CheckResult("cloner", "closed_form_marginals", tol.EQUALITY_TOL)
    for theta, phi in _theta_phi_grid(20, 20):
        cf = marginal_closed_form(theta, phi)
        for which in (0, 1):
            got = marginals(clone_state(optimal_params(theta, phi), which))[0]
            closed.add(float(np.max(np.abs(got - cf[which]))), f"theta={theta}, phi={phi}, clone {which}")

    phiinv = CheckResult("cloner", "phi_invariance", tol.EQUALITY_TOL)
    phis = [2 * math.pi * j / 16 for j in range(16)]
    for i in range(10):
        theta = (math.pi / 2) * i / 9
        ents = [clone_entanglement(theta, phi) for phi in phis]
        errs = [
            helstrom(*marginal_closed_form(theta, phi)).error_prob for phi in phis
        ]
        dev = max(max(ents) - min(ents), max(errs) - min(errs))
        phiinv.add(dev, f"theta={theta}")

    spect = CheckResult("cloner", "marginal_spectrum", tol.EQUALITY_TOL)
    for theta, phi in _theta_phi_grid(10, 10):
        want = np.array([0.5 * (1 - math.sin(theta)), 0.5 * (1 + math.sin(theta))])
        for rho in marginal_closed_form(theta, phi):
            evals = hilbert.hermitian_eig(rho).eigenvalues
            spect.add(float(np.max(np.abs(evals - want))), f"theta={theta}, phi={phi}")

    return [noerr, msym, oracle, closed, phiinv, spect]


def _suite_optimizer(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 4])
    grid = CheckResult("optimizer", "grid_optimum", 1e-6)
    for k in range(25):
        theta = (math.pi / 2) * k / 24
        report = maximize_lambda(theta, OptimizerConfig(n_starts=32, seed=seed + k))
        grid.add(abs(report.lambda_max - math.sin(theta) ** 2), f"theta={theta}")

    upper = CheckResult("optimizer", "upper_bound", tol.FEASIBILITY_TOL)
    for k in range(1000):
        theta = rng.uniform(0.0, math.pi / 2)
        params = random_feasible_params(theta, rng)
        upper.add(lambda_objective(params) - math.sin(theta) ** 2, f"case {k}: theta={theta}")

    det = CheckResult("optimizer", "same_seed_determinism", 0.0)
    for theta in (0.3, 1.1):
        cfg = OptimizerConfig(n_starts=8, seed=seed)
        # dataclass equality: every report field, the optima included
        same = maximize_lambda(theta, cfg) == maximize_lambda(theta, cfg)
        det.add(0.0 if same else 1.0, f"theta={theta}")

    feas = CheckResult("optimizer", "converged_start_feasibility", tol.FEASIBILITY_TOL)
    for theta in (0.0, 0.4, 0.9, math.pi / 2):
        raw = np.random.default_rng([seed, 5]).standard_normal((16, 6))
        for k, (point, _, _, _, converged) in enumerate(_ascents(theta, raw)):
            if converged:
                res = constraint_residuals(_clone_params(point), theta)
                feas.add(float(np.max(np.abs(res))), f"theta={theta}, start {k}")

    return [grid, upper, det, feas]


def _suite_infochannel(seed: int) -> list[CheckResult]:
    oracle = CheckResult("infochannel", "rate_region_oracle", tol.EQUALITY_TOL)
    for i in range(20):
        pe = 0.5 * i / 19
        for j in range(20):
            eps = 0.5 * j / 19
            closed = infochannel.rate_region_closed_form(pe, eps)
            brute = infochannel.rate_region_oracle(pe, eps)
            dev = max(abs(closed.r1 - brute.r1), abs(closed.r2 - brute.r2))
            oracle.add(dev, f"pe={pe}, epsilon={eps}")

    mono = CheckResult("infochannel", "tradeoff_monotonicity", 0.0)
    for pe in (0.1, 0.35):
        pts = [infochannel.rate_region_closed_form(pe, 0.5 * k / 499) for k in range(500)]
        for k in range(len(pts) - 1):
            dev = max(pts[k].r1 - pts[k + 1].r1, pts[k + 1].r2 - pts[k].r2)
            mono.add(dev, f"pe={pe}, step {k}")

    ete = CheckResult("infochannel", "end_to_end_pe_dependence", tol.EQUALITY_TOL)
    for i in range(10):
        theta = (math.pi / 2) * i / 9
        phi = 2 * math.pi * i / 10
        channel = infochannel.induced_channel(theta, phi, clone_povm_closed_form(phi))
        for j in range(10):
            eps = 0.5 * j / 9
            joint = infochannel.cascade_joint_channels(infochannel.bsc(eps), channel)
            r1 = infochannel.conditional_mutual_information(joint, "X", "Y", "S")
            r2 = infochannel.mutual_information(joint, "S", "Z")
            closed = infochannel.rate_region_closed_form(pure_pair_error(theta), eps)
            dev = max(abs(r1 - closed.r1), abs(r2 - closed.r2))
            ete.add(dev, f"theta={theta}, epsilon={eps}")

    degr = CheckResult("infochannel", "degradedness", tol.EQUALITY_TOL)
    for i in range(10):
        theta = (math.pi / 2) * i / 9
        phi = 2 * math.pi * ((i + 3) % 10) / 10
        channel = infochannel.induced_channel(theta, phi, clone_povm_closed_form(phi))
        degr.add(infochannel.check_degraded(channel, channel), f"theta={theta}, phi={phi}")

    chain = CheckResult("infochannel", "cascade_data_processing", tol.EQUALITY_TOL)
    for i in range(10):
        pe = 0.5 * i / 9
        for j in range(10):
            eps = 0.5 * j / 9
            joint = infochannel.cascade_joint(eps, pe)
            dev = infochannel.mutual_information(joint, "S", "Y") - infochannel.mutual_information(
                joint, "X", "Y"
            )
            chain.add(dev, f"pe={pe}, epsilon={eps}")

    return [oracle, mono, ete, degr, chain]


def _json_deviation(a, b) -> float:
    if isinstance(a, dict):
        return max(_json_deviation(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return max((_json_deviation(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, float):
        return abs(a - b)
    return 0.0 if a == b else 1.0


def _suite_cli(seed: int) -> list[CheckResult]:
    def build() -> dict:
        return {
            "discriminate": reports.report_discriminate(0.7, seed),
            "clone": reports.report_clone(0.9, 1.3, seed),
            "rates": reports.report_rates(0.6, 0.2, seed),
            "sweep": {"records": reports.sweep_records(0.0, math.pi / 2, 5, 0.4, 0.1, seed)},
        }

    built = build()
    rt = CheckResult("cli", "json_roundtrip", 1e-15)
    for name, rep in built.items():
        parsed = json.loads(json.dumps(rep))
        rt.add(_json_deviation(rep, parsed), f"report {name}")

    rep_bytes = CheckResult("cli", "repeat_invocation_bytes", 0.0)
    again = build()
    for name in built:
        same = json.dumps(built[name]) == json.dumps(again[name])
        rep_bytes.add(0.0 if same else 1.0, f"report {name}")

    return [rt, rep_bytes]


_SUITES = (
    _suite_hilbert,
    _suite_discrimination,
    _suite_cloner,
    _suite_optimizer,
    _suite_infochannel,
    _suite_cli,
)


def run_all(seed: int = 42) -> list[CheckResult]:
    results: list[CheckResult] = []
    for suite in _SUITES:
        results.extend(suite(seed))
    return results


def format_report(results: list[CheckResult], seed: int) -> tuple[str, int]:
    """Render the summary table; returns (text, exit_code)."""
    lines = [f"qbc verification suites (seed {seed})", ""]
    lines.append(f"{'suite':<15} {'check':<30} {'count':>6} {'max deviation':>14} {'tolerance':>10} {'status':>7}")
    suites_seen: dict[str, bool] = {}
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.suite:<15} {r.name:<30} {r.count:>6} {r.max_deviation:>14.3e} {r.tolerance:>10.1e} {status:>7}"
        )
        suites_seen[r.suite] = suites_seen.get(r.suite, True) and r.passed
    lines.append("")
    n_pass = sum(suites_seen.values())
    lines.append(f"{n_pass}/{len(suites_seen)} suites passed ({len(results)} checks)")
    failures = [r for r in results if not r.passed]
    if failures:
        first = failures[0]
        lines.append(f"first failure: {first.suite}/{first.name} at {first.first_failure}")
    return "\n".join(lines) + "\n", (1 if failures else 0)
