"""Independent search for the best symmetric cloning map.

In sphere coordinates the feasible set {|u0| = |u1| = 1, u0.u1 = cos(theta)}
is one SO(3) orbit {R P(theta)}, P(theta) = [e1, cos(theta) e1 +
sin(theta) e2]. Projection onto it is one closed-form orthogonal Procrustes
(Kabsch) step, and the search is multi-start Riemannian gradient ascent over
R. Starts are Gaussian samples projected onto the orbit; each ascent is
deterministic, so a fixed seed reproduces the report bit for bit.

The sphere coordinates are defined here alone: _orbit_vector and
_clone_params convert between CloneParams and the orbit point u = (u0, u1),
u_i = ((a_i + d_i)/sqrt2, (a_i - d_i)/sqrt2, sqrt2 b_i). The ascent itself
lives in qbc._kernels, as plain Python on float tuples.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from ._kernels import run_starts
from .cloner import CloneParams, constraint_residuals
from .discrimination import check_theta
from .errors import OptimizationFailure, ProjectionError

_SQRT2 = math.sqrt(2.0)
_SQRT1_2 = 1.0 / _SQRT2


@dataclass(frozen=True)
class OptimizerConfig:
    n_starts: int = 32
    seed: int = 42

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")


@dataclass(frozen=True)
class OptimizationReport:
    """Result of maximize_lambda, taken from the best converged start.

    lambda_max is the ascent's cancellation-free objective at that start's
    orbit point; lambda_objective(best_params) agrees with it up to the
    rounding of the coefficients, which matters only in relative terms as
    theta goes to 0.
    """

    best_params: CloneParams
    lambda_max: float
    starts_converged: int
    residual_max: float
    distinct_optima: tuple[CloneParams, ...]


def _orbit_vector(p: CloneParams) -> np.ndarray:
    """The orbit point (u0, u1) of a parameter set, as one 6-vector."""
    return np.array([
        (p.a0 + p.d0) * _SQRT1_2, (p.a0 - p.d0) * _SQRT1_2, _SQRT2 * p.b0,
        (p.a1 + p.d1) * _SQRT1_2, (p.a1 - p.d1) * _SQRT1_2, _SQRT2 * p.b1,
    ])


def _clone_params(u) -> CloneParams:
    """The parameter set of an orbit point u = (u0, u1), six floats."""
    x0, y0, z0, x1, y1, z1 = u
    return CloneParams.symmetric(
        a0=(x0 + y0) * _SQRT1_2, b0=z0 / _SQRT2, d0=(x0 - y0) * _SQRT1_2,
        a1=(x1 + y1) * _SQRT1_2, b1=z1 / _SQRT2, d1=(x1 - y1) * _SQRT1_2,
    )


def _orbit_frame(theta: float) -> np.ndarray:
    """P(theta) = [e1, cos(theta) e1 + sin(theta) e2]; the orbit is {R P(theta)}."""
    return np.array([[1.0, math.cos(theta)], [0.0, math.sin(theta)], [0.0, 0.0]])


def _nearest_rotations(u: np.ndarray, theta: float) -> np.ndarray:
    """Kabsch: for each row u = (u0, u1), the R in SO(3) nearest to U = [u0, u1].

    R minimizes |R P(theta) - U| over SO(3): it is the polar factor of
    U P(theta)^T, with the last singular direction flipped when needed so
    that det R = +1. Returns the rotations with shape (rows, 3, 3).
    """
    m = u.reshape(-1, 2, 3).transpose(0, 2, 1) @ _orbit_frame(theta).T
    if not np.all(np.any(m, axis=(1, 2))):
        raise ProjectionError("U P(theta)^T is zero: every feasible point is equally near")
    w, _, vt = np.linalg.svd(m)
    w[:, :, 2] *= np.sign(np.linalg.det(w @ vt))[:, None]
    return w @ vt


def _feasible_params(u: np.ndarray, theta: float) -> CloneParams:
    """The feasible point R P(theta) nearest to one orbit-coordinate vector."""
    point = _nearest_rotations(u, theta)[0] @ _orbit_frame(theta)
    return _clone_params(point.T.reshape(6))


def _ascents(theta: float, raw: np.ndarray) -> list[tuple]:
    """Ascend from the rotation nearest to each row of raw, an (n, 6) array.

    One tuple per start, in row order, of Python values: the orbit point
    (six floats), the objective, |omega|, the iteration count and the
    converged flag.
    """
    return list(zip(*(col.tolist() for col in run_starts(_nearest_rotations(raw, theta), theta))))


def project_to_feasible(raw: CloneParams, theta: float) -> CloneParams:
    """Project raw coefficients onto the feasible set for the given angle.

    One closed-form orthogonal Procrustes step; already-feasible input is a
    fixed point. Raises ProjectionError when no point is nearest (all-zero
    rows, or antiparallel rows at theta = 0).
    """
    check_theta(theta)
    return _feasible_params(_orbit_vector(raw), theta)


def random_feasible_params(theta: float, rng: np.random.Generator) -> CloneParams:
    """A feasible point drawn by projecting a Gaussian sample.

    The projection commutes with rotations, so the point is uniform on the
    feasible orbit.
    """
    check_theta(theta)
    return _feasible_params(rng.standard_normal(6), theta)


def maximize_lambda(theta: float, config: OptimizerConfig | None = None) -> OptimizationReport:
    """Maximize the distinguishability objective over feasible cloning maps.

    Aggregation is a max over converged starts with ties broken by start
    index, so any concurrent schedule of the independent starts would give
    the same report. Optima count as distinct when their orbit points differ
    by more than 1e-6 in some coordinate.
    """
    check_theta(theta)
    if config is None:
        config = OptimizerConfig()
    rng = np.random.default_rng(config.seed)
    starts = _ascents(theta, rng.standard_normal((config.n_starts, 6)))
    converged = [(point, lam) for point, lam, _, _, conv in starts if conv]
    if not converged:
        lams = [s[1] for s in starts]
        gnorms = [s[2] for s in starts]
        raise OptimizationFailure(
            "no start converged: "
            f"theta={theta}, n_starts={config.n_starts}, max_iters={tol.OPTIMIZER_MAX_ITERS}, "
            f"best objective={max(lams)}, "
            f"gradient norms in [{min(gnorms)}, {max(gnorms)}] "
            f"against tol * sin^2(theta) = {tol.OPTIMIZER_GRAD_TOL * math.sin(theta) ** 2}"
        )
    best_point, lambda_max = max(converged, key=lambda c: c[1])  # first of any ties
    best_params = _clone_params(best_point)
    distinct: list[tuple] = []
    for point, _ in converged:
        if all(max(abs(a - b) for a, b in zip(point, seen)) > 1e-6 for seen in distinct):
            distinct.append(point)
    return OptimizationReport(
        best_params=best_params,
        lambda_max=lambda_max,
        starts_converged=len(converged),
        residual_max=float(np.max(np.abs(constraint_residuals(best_params, theta)))),
        distinct_optima=tuple(map(_clone_params, distinct)),
    )
