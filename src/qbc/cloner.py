"""Symmetric cloning of two nonorthogonal qubit states.

The cloning map is an isometry on span{|0>|0>, |1>|0>} described by eight
real coefficients, two rows of four:

    |0>|blank> -> a0|00> + b0|01> + c0|10> + d0|11>
    |1>|blank> -> a1|00> + b1|01> + c1|10> + d1|11>

with |1> = cos(theta)|0> + sin(theta)|1_perp> the second input state and
the blank fixed to |0>. Choosing c = b makes both clone marginals equal.
Feasibility means the two rows have unit weighted norm and their weighted
inner product equals cos(theta); those three residuals are reported by
constraint_residuals.

The optimal one-parameter family (phi is the free parameter) achieves a
marginal distinguishability equal to that of the input pair, i.e. the
objective reaches sin(theta)^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from . import tolerances as tol
from .discrimination import binary_entropy, check_phi, check_theta, pure_pair_error
from .errors import InfeasibleParamsError

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CloneParams:
    """Real coefficients of the two cloning rows; c must equal b per row."""

    a0: float
    b0: float
    c0: float
    d0: float
    a1: float
    b1: float
    c1: float
    d1: float

    def __post_init__(self):
        coeffs = (self.a0, self.b0, self.c0, self.d0, self.a1, self.b1, self.c1, self.d1)
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("coefficients must be finite")
        if self.c0 != self.b0 or self.c1 != self.b1:
            raise ValueError("marginal symmetry requires c0 == b0 and c1 == b1")

    @classmethod
    def symmetric(cls, a0, b0, d0, a1, b1, d1) -> "CloneParams":
        return cls(a0=a0, b0=b0, c0=b0, d0=d0, a1=a1, b1=b1, c1=b1, d1=d1)

    def _coeffs(self, which: int) -> tuple[float, float, float, float]:
        if which == 0:
            return self.a0, self.b0, self.c0, self.d0
        if which == 1:
            return self.a1, self.b1, self.c1, self.d1
        raise ValueError(f"row index must be 0 or 1, got {which}")


def optimal_params(theta: float, phi: float) -> CloneParams:
    """The optimal cloning family at overlap angle theta, free parameter phi."""
    check_theta(theta)
    check_phi(phi)
    s = math.sin(theta / 2.0)
    c = math.cos(theta / 2.0)
    a0 = _SQRT1_2 * (s + c * math.cos(phi))
    a1 = _SQRT1_2 * (-s + c * math.cos(phi))
    b = _SQRT1_2 * c * math.sin(phi)
    return CloneParams.symmetric(a0=a0, b0=b, d0=-a1, a1=a1, b1=b, d1=-a0)


def constraint_residuals(params: CloneParams, theta: float) -> np.ndarray:
    """Residuals of the two unit-norm constraints and the overlap constraint."""
    check_theta(theta)
    r0 = params.a0**2 + 2.0 * params.b0**2 + params.d0**2 - 1.0
    r1 = params.a1**2 + 2.0 * params.b1**2 + params.d1**2 - 1.0
    r2 = (
        params.a1 * params.a0
        + 2.0 * params.b1 * params.b0
        + params.d1 * params.d0
        - math.cos(theta)
    )
    return hilbert._readonly(np.array([r0, r1, r2]))


def clone_state(params: CloneParams, which: int) -> np.ndarray:
    """Two-qubit output state for input 0 or 1."""
    sigma = hilbert.ket(params._coeffs(which))
    norm2 = sum(x * x for x in params._coeffs(which))
    if abs(norm2 - 1.0) > tol.VALIDATION_TOL:
        raise InfeasibleParamsError(
            f"clone state norm^2 = {norm2} deviates from 1 beyond {tol.VALIDATION_TOL}"
        )
    return sigma


def marginals(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced states of a two-qubit ket: (trace out blank, trace out system)."""
    hilbert.require_normalized(sigma)
    return hilbert.partial_trace(sigma, "second"), hilbert.partial_trace(sigma, "first")


def marginal_closed_form(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Clone marginals of the optimal family, written directly.

    rho_0 and rho_1 differ by sin(theta) (cos(phi) sigma_z + sin(phi) sigma_x),
    so their difference has eigenvalues +-sin(theta) for every phi.
    """
    return tuple(hilbert._readonly(np.array(rows, dtype=np.complex128)) for rows in _marginal_rows(theta, phi))


def _marginal_rows(theta: float, phi: float) -> tuple[list, list]:
    """The rows of marginal_closed_form's two matrices as real Python floats."""
    check_theta(theta)
    check_phi(phi)
    t = math.sin(theta) * math.cos(phi)
    u = math.sin(theta) * math.sin(phi)
    a, b, d = 0.5 * (1.0 + t), 0.5 * u, 0.5 * (1.0 - t)
    return [[a, b], [b, d]], [[d, -b], [-b, a]]


def lambda_objective(params: CloneParams) -> float:
    """Squared marginal distinguishability of the two clone outputs.

    Equals the squared smallest eigenvalue of rho0 - rho1; both groups of
    terms are squared, which the eigenvalue identity requires. The optimal
    error then reads 1/2 (1 - sqrt(lambda)).

    On optimal_params(theta, phi), |lambda / sin(theta)^2 - 1| <= 2^-49 /
    sin(theta): the coefficients' rounding, amplified as theta goes to 0.
    """
    g1 = (
        params.a1 * params.c1
        + params.b1 * params.d1
        - params.a0 * params.c0
        - params.b0 * params.d0
    )
    g2 = params.a1**2 + params.b1**2 - params.a0**2 - params.b0**2
    return g1 * g1 + g2 * g2


def clone_entanglement(theta: float, phi: float) -> float:
    """Entropy (nats) h(p_e) of either clone marginal; relative error at most 2^-50."""
    check_theta(theta)
    check_phi(phi)
    return binary_entropy(pure_pair_error(theta))
