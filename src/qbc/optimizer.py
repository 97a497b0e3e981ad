"""Independent search for the best symmetric cloning map.

In sphere coordinates the feasible set {|u0| = |u1| = 1, u0.u1 = cos(theta)}
is one SO(3) orbit {R P(theta)}, P(theta) = [e1, cos(theta) e1 +
sin(theta) e2]. Projection onto it is one closed-form orthogonal Procrustes
(Kabsch) step, and the search is multi-start Riemannian gradient ascent over
R. Starts are Gaussian samples projected onto the orbit; each ascent is
deterministic, so a fixed seed reproduces the report bit for bit.

The ascent itself lives in qbc._kernels, as plain Python on float tuples.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from ._kernels import run_starts
from .cloner import CloneParams, XYParams, constraint_residuals, from_xy, to_xy
from .discrimination import check_theta
from .errors import OptimizationFailure, ProjectionError


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


def _xy_vector(xy: XYParams) -> np.ndarray:
    return np.array(
        [xy.x0, xy.y0, math.sqrt(2.0) * xy.b0, xy.x1, xy.y1, math.sqrt(2.0) * xy.b1]
    )


def _params_from_vector(u: np.ndarray) -> CloneParams:
    xy = XYParams(
        x0=u[0], y0=u[1], b0=u[2] / math.sqrt(2.0),
        x1=u[3], y1=u[4], b1=u[5] / math.sqrt(2.0),
    )
    return from_xy(xy)


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
    """The feasible point R P(theta) nearest to one sphere-coordinate vector."""
    point = _nearest_rotations(u, theta)[0] @ _orbit_frame(theta)
    return _params_from_vector(point.T.reshape(6))


def project_to_feasible(raw: CloneParams, theta: float) -> CloneParams:
    """Project raw coefficients onto the feasible set for the given angle.

    One closed-form orthogonal Procrustes step; already-feasible input is a
    fixed point. Raises ProjectionError when no point is nearest (all-zero
    rows, or antiparallel rows at theta = 0).
    """
    check_theta(theta)
    return _feasible_params(_xy_vector(to_xy(raw)), theta)


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
    the same report.
    """
    check_theta(theta)
    if config is None:
        config = OptimizerConfig()
    rng = np.random.default_rng(config.seed)
    starts = _nearest_rotations(rng.standard_normal((config.n_starts, 6)), theta)
    points, lams, gnorms, iters, conv = run_starts(starts, theta)
    n_conv = int(np.count_nonzero(conv))
    if n_conv == 0:
        raise OptimizationFailure(
            "no start converged: "
            f"theta={theta}, n_starts={config.n_starts}, max_iters={tol.OPTIMIZER_MAX_ITERS}, "
            f"best objective={float(np.max(lams))}, "
            f"gradient norms in [{float(np.min(gnorms))}, {float(np.max(gnorms))}] "
            f"against tol * sin^2(theta) = {tol.OPTIMIZER_GRAD_TOL * math.sin(theta) ** 2}"
        )
    best_k = int(np.argmax(np.where(conv, lams, -np.inf)))  # first of any ties
    best_params = _params_from_vector(points[best_k])
    distinct: list[tuple[np.ndarray, CloneParams]] = []
    for k in range(config.n_starts):
        if not conv[k]:
            continue
        if all(np.max(np.abs(points[k] - seen)) > 1e-6 for seen, _ in distinct):
            distinct.append((points[k], _params_from_vector(points[k])))
    return OptimizationReport(
        best_params=best_params,
        lambda_max=float(lams[best_k]),
        starts_converged=n_conv,
        residual_max=float(np.max(np.abs(constraint_residuals(best_params, theta)))),
        distinct_optima=tuple(p for _, p in distinct),
    )
