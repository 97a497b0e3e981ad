"""Plain-dict report builders behind the CLI subcommands.

Everything returned here is JSON-ready: numpy scalars become Python floats,
complex numbers become [re, im] pairs, arrays become nested lists. Reports
are pure functions of their arguments, so fixed flags give fixed bytes.
"""

import math
import sys
from dataclasses import asdict

import numpy as np

from . import hilbert, infochannel
from .cloner import (
    clone_entanglement,
    clone_state,
    constraint_residuals,
    lambda_objective,
    marginals,
    optimal_params,
)
from .discrimination import check_theta, helstrom, pure_pair_error, pure_pair_kets
from .optimizer import OptimizerConfig, maximize_lambda

CSV_HEADER = "theta,phi,epsilon,p_e,lambda_max,entanglement,r1,r2,seed"
CSV_COLUMNS = CSV_HEADER.split(",")


def jsonable(x):
    """Recursively convert numpy/complex values into JSON-ready structures."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def report_discriminate(theta: float, seed: int) -> dict:
    """Optimal discrimination of the reference pure pair with overlap cos(theta)."""
    k0, k1 = pure_pair_kets(theta)
    rho0, rho1 = hilbert.outer(k0), hilbert.outer(k1)
    result = helstrom(rho0, rho1)
    min_eig = float(hilbert.hermitian_eig(rho0 - rho1).eigenvalues[0])
    return jsonable(
        {
            "theta": theta,
            "p_e": result.error_prob,
            "p_e_closed_form": pure_pair_error(theta),
            "min_eigenvalue": min_eig,
            "povm": {"pi0": result.povm.pi0, "pi1": result.povm.pi1},
            "seed": seed,
        }
    )


def report_clone(theta: float, phi: float, seed: int) -> dict:
    params = optimal_params(theta, phi)
    sigma0 = clone_state(params, 0)
    sigma1 = clone_state(params, 1)
    rho0, _ = marginals(sigma0)
    rho1, _ = marginals(sigma1)
    return jsonable(
        {
            "theta": theta,
            "phi": phi,
            "params": asdict(params),
            "sigma0": sigma0,
            "sigma1": sigma1,
            "marginals": {"rho0": rho0, "rho1": rho1},
            "constraint_residuals": constraint_residuals(params, theta),
            "lambda": lambda_objective(params),
            "entanglement": clone_entanglement(theta, phi),
            "seed": seed,
        }
    )


def report_optimize(theta: float, n_starts: int, seed: int) -> dict:
    report = maximize_lambda(theta, OptimizerConfig(n_starts=n_starts, seed=seed))
    reference = math.sin(theta) ** 2
    return jsonable(
        {
            "theta": theta,
            "lambda_max": report.lambda_max,
            "reference": reference,
            "gap": abs(report.lambda_max - reference),
            # null where sin^2(theta) is zero or subnormal, as the ascent stops there
            "relative_gap": (
                abs(report.lambda_max / reference - 1.0) if reference >= sys.float_info.min else None
            ),
            "starts_converged": report.starts_converged,
            "residual_max": report.residual_max,
            "best_params": asdict(report.best_params),
            "n_starts": n_starts,
            "seed": seed,
        }
    )


def report_rates(theta: float, epsilon: float, seed: int) -> dict:
    pe = pure_pair_error(theta)
    closed = infochannel.rate_region_closed_form(pe, epsilon)
    oracle = infochannel.rate_region_oracle(pe, epsilon)
    return jsonable(
        {
            "theta": theta,
            "epsilon": epsilon,
            "p_e": pe,
            "r1": closed.r1,
            "r2": closed.r2,
            "oracle_r1": oracle.r1,
            "oracle_r2": oracle.r2,
            "oracle_max_deviation": max(abs(closed.r1 - oracle.r1), abs(closed.r2 - oracle.r2)),
            "seed": seed,
        }
    )


def grid_points(start: float, stop: float, steps: int) -> list[float]:
    """Uniform inclusive grid; the final point is snapped to stop exactly."""
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    if not start < stop:
        raise ValueError(f"grid needs start < stop, got {start} >= {stop}")
    pts = [start + k * (stop - start) / (steps - 1) for k in range(steps)]
    pts[-1] = stop
    return pts


def sweep_records(
    theta_start: float, theta_stop: float, steps: int, phi: float, epsilon: float, seed: int
) -> list[dict]:
    """One record per theta grid point, tabulating the closed-form quantities.

    Both grid ends are range-checked before any record is built.
    """
    check_theta(theta_start)
    check_theta(theta_stop)
    records = []
    for theta in grid_points(theta_start, theta_stop, steps):
        pe = pure_pair_error(theta)
        rates = infochannel.rate_region_closed_form(pe, epsilon)
        records.append(
            {
                "theta": theta,
                "phi": phi,
                "epsilon": epsilon,
                "p_e": pe,
                "lambda_max": lambda_objective(optimal_params(theta, phi)),
                "entanglement": clone_entanglement(theta, phi),
                "r1": rates.r1,
                "r2": rates.r2,
                "seed": seed,
            }
        )
    return records


def sweep_csv(records: list[dict]) -> str:
    """UTF-8 CSV with LF endings; floats use shortest round-trip formatting."""
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(repr(rec[c]) if isinstance(rec[c], float) else str(rec[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
