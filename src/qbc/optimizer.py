"""Independent search for the best symmetric cloning map.

In sphere coordinates u_i = ((a_i + d_i)/sqrt2, (a_i - d_i)/sqrt2, sqrt2 b_i)
the feasible set {|u0| = |u1| = 1, u0.u1 = cos(theta)} is one SO(3) orbit
{R P(theta)}, P(theta) = [e1, cos(theta) e1 + sin(theta) e2]. _frame_params
builds its point from R e1 and R e2, and _clone_params is the only
conversion from sphere coordinates to CloneParams. random_feasible_params
takes R from a normalized Gaussian 4-vector read as a unit quaternion, which
is Haar-uniform on SO(3) (Shoemake 1992). The objective is unchanged when
both rows rotate about the x axis, so it depends on R only through its first
row n, and the search is multi-start Riemannian ascent, by Newton and
gradient steps, on the sphere of those n (see qbc._kernels). Starts are normalized Gaussian
3-vectors; each ascent is deterministic, so a fixed seed reproduces the
report bit for bit. Only the best converged n becomes a cloning map, through
one closed-form rotation whose first row is n. Nothing here calls numpy.linalg.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from ._kernels import run_starts
from .cloner import CloneParams, constraint_residuals
from .discrimination import check_theta
from .errors import OptimizationFailure

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


def _clone_params(u) -> CloneParams:
    """The parameter set of an orbit point u = (u0, u1), six floats."""
    x0, y0, z0, x1, y1, z1 = u
    return CloneParams.symmetric(
        a0=(x0 + y0) * _SQRT1_2, b0=z0 / _SQRT2, d0=(x0 - y0) * _SQRT1_2,
        a1=(x1 + y1) * _SQRT1_2, b1=z1 / _SQRT2, d1=(x1 - y1) * _SQRT1_2,
    )


def _frame_params(v, b, theta: float) -> CloneParams:
    """The orbit point R P(theta) of the rotation R with R e1 = v and R e2 = b."""
    h = math.sin(0.5 * theta)
    c1, c2 = -2.0 * (h * h), math.sin(theta)
    # u1 = v + d with d = R (cos(theta) - 1, sin(theta), 0), free of cancellation
    return _clone_params((*v, *(vi + (c1 * vi + c2 * bi) for vi, bi in zip(v, b))))


def _direction_params(n, theta: float) -> CloneParams:
    """The feasible point R P(theta) of a rotation R whose first row is +-n.

    n is a unit 3-vector. The objective is even in n, so n is first flipped
    to n0 >= 0; R is then the rotation about the axis e1 x n that takes n
    to e1, in closed form with the divisor 1 + n0 >= 1. Its first two
    columns are R e1 = (n0, -n1, -n2) and R e2.
    """
    n0, n1, n2 = n if n[0] >= 0.0 else (-n[0], -n[1], -n[2])
    k = 1.0 / (1.0 + n0)
    return _frame_params((n0, -n1, -n2), (n1, 1.0 - n1 * n1 * k, -n1 * n2 * k), theta)


def _ascents(theta: float, raw: np.ndarray) -> list[tuple]:
    """Ascend from the direction of each row of raw, an (n, 3) array.

    One tuple per start, in row order: the end point n as a list of three
    floats, then the objective, |grad|, the iteration count and the
    converged flag as Python values.
    """
    return list(zip(*(col.tolist() for col in run_starts(raw, theta))))


def random_feasible_params(theta: float, rng: np.random.Generator) -> CloneParams:
    """A feasible point R P(theta), uniform on the orbit: R is Haar, from a Gaussian unit quaternion."""
    check_theta(theta)
    w, x, y, z = rng.standard_normal(4).tolist()
    k = 2.0 / (w * w + x * x + y * y + z * z)
    v = (1.0 - k * (y * y + z * z), k * (x * y + w * z), k * (x * z - w * y))
    b = (k * (x * y - w * z), 1.0 - k * (x * x + z * z), k * (y * z + w * x))
    return _frame_params(v, b, theta)


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
