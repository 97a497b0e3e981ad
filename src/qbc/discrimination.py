"""Minimum-error discrimination of two equiprobable quantum states.

The optimal two-outcome measurement splits the spectral projectors of
rho0 - rho1 by eigenvalue sign; its error is 1/2 - 1/4 |rho0 - rho1|_1, the
trace norm summed over the eigenvalue magnitudes in ascending order. Zero
eigenvalues are assigned to the first outcome, which fixes a deterministic
measurement without changing the error. The split into projectors and the
POVM's sum-to-identity check run on Python scalars, one routine for dims 2
and 4; each POVM element is then checked through hilbert.hermitian_eig.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from . import tolerances as tol


def check_theta(theta: float) -> None:
    if not 0.0 <= theta <= math.pi / 2.0:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")


def check_phi(phi: float) -> None:
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")


@dataclass(frozen=True)
class BinaryPOVM:
    """Pair of positive operators summing to the identity."""

    pi0: np.ndarray
    pi1: np.ndarray

    def __post_init__(self):
        # private copies: freezing them leaves the caller's arrays writable
        pi0, pi1 = np.array(self.pi0), np.array(self.pi1)
        if pi0.shape != pi1.shape or pi0.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"POVM elements must both be 2x2 or 4x4, got {pi0.shape} and {pi1.shape}")
        sums = [a + b for a, b in zip(pi0.ravel().tolist(), pi1.ravel().tolist())]
        for k in range(0, pi0.size, pi0.shape[0] + 1):
            sums[k] -= 1.0
        # a NaN deviation never exceeds the tolerance: a NaN entry is left
        # for hermitian_eig to reject as non-finite
        dev = hilbert._max_abs(sums)
        if dev > tol.EQUALITY_TOL:
            raise ValueError(f"POVM elements do not sum to identity: deviation {dev:.3e}")
        for elem in (pi0, pi1):
            # hermitian_eig also rejects non-finite and non-Hermitian elements
            evals = hilbert.hermitian_eig(elem).eigenvalues
            if evals[0] < tol.EIGENVALUE_FLOOR:
                raise ValueError(f"POVM element has eigenvalue {evals[0]:.3e} below floor")
        object.__setattr__(self, "pi0", hilbert._readonly(pi0))
        object.__setattr__(self, "pi1", hilbert._readonly(pi1))


@dataclass(frozen=True)
class DiscriminationResult:
    povm: BinaryPOVM
    error_prob: float


def error_of_povm(rho0: np.ndarray, rho1: np.ndarray, povm: BinaryPOVM) -> float:
    """Average error 1/2 (1 + tr((rho0 - rho1) Pi1)) for equal priors, clamped into [0, 1]."""
    if rho0.shape != rho1.shape or rho0.shape != povm.pi1.shape:
        raise ValueError("dimension mismatch between states and POVM")
    val = np.trace((rho0 - rho1) @ povm.pi1)
    return min(1.0, max(0.0, 0.5 * (1.0 + float(val.real))))


def helstrom(rho0: np.ndarray, rho1: np.ndarray) -> DiscriminationResult:
    """Optimal measurement and its error for two equiprobable states.

    The error is 1/2 - 1/4 |rho0 - rho1|_1, with the trace norm summed over
    the eigenvalue magnitudes in ascending order. Swapping the states negates
    every eigenvalue and leaves the sorted magnitudes unchanged, so it
    returns the identical float. For nearly orthogonal states rounding can
    take the difference below 0, so it is clamped at 0.
    """
    if rho0.shape != rho1.shape:
        raise ValueError("dimension mismatch between states")
    dec = hilbert.hermitian_eig(rho0 - rho1)
    evals = dec.eigenvalues.tolist()
    pi0, pi1 = _sign_split(evals, dec.eigenvectors.tolist())
    error = max(0.0, 0.5 - sum(sorted(abs(lam) for lam in evals)) / 4.0)
    return DiscriminationResult(povm=BinaryPOVM(pi0=pi0, pi1=pi1), error_prob=error)


def _sign_split(evals: list, vecs: list) -> tuple[list, list]:
    """Rows of Pi0 = I - Pi1 and Pi1, the projector onto the negative eigenspace.

    Pi1 sums v v^H onto zeros entry by entry, so it is exactly Hermitian;
    Pi0 is 1 - x on the diagonal and 0 - x off it, so neither holds a -0.0
    that the printed POVM would show. Component i of eigenvector k is vecs[i][k].
    """
    pi1 = [[0j] * len(evals) for _ in evals]
    for lam, v in zip(evals, zip(*vecs)):
        if lam < 0.0:
            pi1 = [[p + x * y.conjugate() for p, y in zip(row, v)] for row, x in zip(pi1, v)]
    pi0 = [[complex(float(i == j) - z.real, 0.0 - z.imag) for j, z in enumerate(r)] for i, r in enumerate(pi1)]
    return pi0, pi1


def pure_pair_kets(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The reference pure pair with overlap cos(theta)."""
    check_theta(theta)
    k0 = hilbert.basis(2, 0)
    k1 = hilbert.ket([math.cos(theta), math.sin(theta)])
    return k0, k1


def pure_pair_error(theta: float) -> float:
    """Minimum error for two equiprobable pure states with overlap cos(theta).

    1/2 (1 - sin(theta)) cancels near pi/2, so above sin(theta) = 1/2 it is
    cos(theta)^2 / (2 (1 + sin(theta))); relative error at most 2^-50.
    """
    check_theta(theta)
    s = math.sin(theta)
    return 0.5 * (1.0 - s) if s <= 0.5 else math.cos(theta) ** 2 / (2.0 * (1.0 + s))


def binary_entropy(x: float) -> float:
    """Shannon entropy (nats) of a bit with probability x; relative error at most 2^-50.

    1 - x rounds to 1 as x goes to 0, so below 1/4 ln(1 - x) is log1p(-x).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    s = 0.0
    if x > 0.0:
        s -= x * math.log(x)
    if x < 1.0:
        s -= (1.0 - x) * (math.log1p(-x) if x < 0.25 else math.log(1.0 - x))
    return s


def clone_povm_closed_form(phi: float) -> BinaryPOVM:
    """Optimal measurement for the clone marginals, in closed form.

    Rank-1 projectors onto (cos(phi/2), sin(phi/2)) and its orthogonal
    complement. Written with half angles, so the phi in {0, pi} limits
    (standard-basis projectors) need no special casing.
    """
    check_phi(phi)
    c = math.cos(phi / 2.0)
    s = math.sin(phi / 2.0)
    plus, minus = (complex(c), complex(s)), (complex(-s), complex(c))
    # entry (i, j) of |v><v| is the complex product v_i conj(v_j)
    pi0, pi1 = ([[x * y.conjugate() for y in v] for x in v] for v in (plus, minus))
    return BinaryPOVM(pi0=pi0, pi1=pi1)
