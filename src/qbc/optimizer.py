"""Independent search for the best symmetric cloning map.

In sphere coordinates the feasible set {|u0| = |u1| = 1, u0.u1 = cos(theta)}
is one SO(3) orbit {R P(theta)}, P(theta) = [e1, cos(theta) e1 +
sin(theta) e2]. Projection onto it is one closed-form orthogonal Procrustes
(Kabsch) step. The objective is unchanged when both rows rotate about the x
axis, so it depends on R only through its first row n, and the search is
multi-start Riemannian gradient ascent on the sphere of those n (see
qbc._kernels). Starts are normalized Gaussian 3-vectors, uniform on the
sphere; each ascent is deterministic, so a fixed seed reproduces the report
bit for bit. Only the best converged n becomes a cloning map, through one
closed-form rotation whose first row is n.

The sphere coordinates are defined here alone: _orbit_vector and
_clone_params convert between CloneParams and the orbit point u = (u0, u1),
u_i = ((a_i + d_i)/sqrt2, (a_i - d_i)/sqrt2, sqrt2 b_i). The ascent itself
lives in qbc._kernels, as plain Python on floats.
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
    end point n on the sphere, which obeys lambda <= |(n0, n1)|^2
    sin^2(theta) <= sin^2(theta); the maximizers are the four points
    +-(cos(theta/2), sin(theta/2), 0) and +-(sin(theta/2), -cos(theta/2), 0).
    best_params is the cloning map of the rotation whose first row is n.
    lambda_objective(best_params) agrees with lambda_max up to the rounding
    of the coefficients, which matters only in relative terms as theta goes
    to 0. starts_converged counts the starts that met the gradient
    tolerance, and residual_max is the largest constraint residual of
    best_params.
    """

    best_params: CloneParams
    lambda_max: float
    starts_converged: int
    residual_max: float


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


def _feasible_params(u: np.ndarray, theta: float) -> CloneParams:
    """Kabsch: the feasible point R P(theta) nearest to U = [u0, u1], u a 6-vector.

    R minimizes |R P(theta) - U| over SO(3): it is the polar factor of
    U P(theta)^T, with the last singular direction flipped when needed so
    that det R = +1.
    """
    frame = _orbit_frame(theta)
    m = u.reshape(2, 3).T @ frame.T
    if not np.any(m):
        raise ProjectionError("U P(theta)^T is zero: every feasible point is equally near")
    w, _, vt = np.linalg.svd(m)
    w[:, 2] *= np.sign(np.linalg.det(w @ vt))
    return _clone_params((w @ vt @ frame).T.reshape(6).tolist())


def _direction_params(n, theta: float) -> CloneParams:
    """The feasible point R P(theta) of a rotation R whose first row is +-n.

    n is a unit 3-vector. The objective is even in n, so n is first flipped
    to n0 >= 0; R is then the rotation about the axis e1 x n that takes n
    to e1, in closed form with the divisor 1 + n0 >= 1. Its first two
    columns are R e1 = (n0, -n1, -n2) and R e2.
    """
    n0, n1, n2 = n if n[0] >= 0.0 else (-n[0], -n[1], -n[2])
    k = 1.0 / (1.0 + n0)
    h = math.sin(0.5 * theta)
    c1, c2 = -2.0 * (h * h), math.sin(theta)
    v, b = (n0, -n1, -n2), (n1, 1.0 - n1 * n1 * k, -n1 * n2 * k)
    # u1 = v + d with d = R (cos(theta) - 1, sin(theta), 0), free of cancellation
    return _clone_params((*v, *(vi + (c1 * vi + c2 * bi) for vi, bi in zip(v, b))))


def _ascents(theta: float, raw: np.ndarray) -> list[tuple]:
    """Ascend from the direction of each row of raw, an (n, 3) array.

    One tuple per start, in row order: the end point n as a list of three
    floats, then the objective, |grad|, the iteration count and the
    converged flag as Python values.
    """
    return list(zip(*(col.tolist() for col in run_starts(raw, theta))))


def project_to_feasible(raw: CloneParams, theta: float) -> CloneParams:
    """Project raw coefficients onto the feasible set for the given angle.

    One closed-form orthogonal Procrustes step; already-feasible input is a
    fixed point. Raises ValueError unless every coefficient is finite and at
    most 2^1000 in magnitude; from about 6e307 on, the orbit coordinates or
    U P(theta)^T overflow. Raises ProjectionError when no point is nearest
    (all-zero rows, or antiparallel rows at theta = 0).
    """
    check_theta(theta)
    if not all(abs(c) <= 2.0**1000 for c in (raw.a0, raw.b0, raw.d0, raw.a1, raw.b1, raw.d1)):
        raise ValueError("coefficients must be finite, with magnitude at most 2^1000")
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
    the same report.
    """
    check_theta(theta)
    if config is None:
        config = OptimizerConfig()
    rng = np.random.default_rng(config.seed)
    starts = _ascents(theta, rng.standard_normal((config.n_starts, 3)))
    converged = [(n, lam) for n, lam, _, _, conv in starts if conv]
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
    best_n, lambda_max = max(converged, key=lambda c: c[1])  # first of any ties
    best_params = _direction_params(best_n, theta)
    return OptimizationReport(
        best_params=best_params,
        lambda_max=lambda_max,
        starts_converged=len(converged),
        residual_max=float(np.max(np.abs(constraint_residuals(best_params, theta)))),
    )
