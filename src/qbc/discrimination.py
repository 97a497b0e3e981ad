"""Minimum-error discrimination of two equiprobable quantum states.

The optimal two-outcome measurement splits the spectral projectors of
rho0 - rho1 by eigenvalue sign; its error is 1/2 (1 + sum of negative
eigenvalues). Zero eigenvalues are assigned to the first outcome, which
fixes a deterministic measurement without changing the error.
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
        if pi0.shape != pi1.shape:
            raise ValueError("POVM elements must share a dimension")
        if pi0.shape == (2, 2):
            (a00, a01), (a10, a11) = pi0.tolist()
            (b00, b01), (b10, b11) = pi1.tolist()
            devs = [
                math.hypot(d.real, d.imag)
                for d in (a00 + b00 - 1.0, a01 + b01, a10 + b10, a11 + b11 - 1.0)
            ]
            # numpy's max propagates NaN, which never exceeds the tolerance:
            # a NaN entry is left for hermitian_eig to reject as non-finite
            dev = math.nan if math.isnan(sum(devs)) else max(devs)
        else:
            dev = float(np.max(np.abs(pi0 + pi1 - np.eye(pi0.shape[0]))))
        if dev > tol.EQUALITY_TOL:
            raise ValueError(f"POVM elements do not sum to identity: deviation {dev:.3e}")
        for elem in (pi0, pi1):
            # hermitian_eig also rejects non-finite and non-Hermitian elements
            evals = hilbert.hermitian_eig(elem).eigenvalues
            if evals[0] < tol.EIGENVALUE_FLOOR:
                raise ValueError(f"POVM element has eigenvalue {evals[0]:.3e} below floor")
            elem.setflags(write=False)
        object.__setattr__(self, "pi0", pi0)
        object.__setattr__(self, "pi1", pi1)


@dataclass(frozen=True)
class DiscriminationResult:
    povm: BinaryPOVM
    error_prob: float


def error_of_povm(rho0: np.ndarray, rho1: np.ndarray, povm: BinaryPOVM) -> float:
    """Average error 1/2 (1 + tr((rho0 - rho1) Pi1)) for equal priors."""
    if rho0.shape != rho1.shape or rho0.shape != povm.pi1.shape:
        raise ValueError("dimension mismatch between states and POVM")
    val = np.trace((rho0 - rho1) @ povm.pi1)
    return 0.5 * (1.0 + float(val.real))


def helstrom(rho0: np.ndarray, rho1: np.ndarray) -> DiscriminationResult:
    """Optimal measurement and its error for two equiprobable states.

    The error is evaluated in a swap-symmetric form, so exchanging the two
    states returns the identical float.
    """
    if rho0.shape != rho1.shape:
        raise ValueError("dimension mismatch between states")
    diff = rho0 - rho1
    dec = hilbert.hermitian_eig(diff)
    evals = dec.eigenvalues.tolist()
    dim = len(evals)
    if dim == 2:
        pi0, pi1 = _sign_split2(evals, dec.eigenvectors.tolist())
    else:
        pi1 = np.zeros((dim, dim), dtype=np.complex128)
        for k in range(dim):
            if evals[k] < 0.0:
                v = dec.eigenvectors[:, k]
                pi1 += np.outer(v, v.conj())
        pi0 = np.eye(dim, dtype=np.complex128) - pi1
    # sum each sign class in ascending-magnitude order: the two orderings
    # mirror exactly under a swap of the inputs
    neg = 0.0
    for k in range(dim - 1, -1, -1):
        if evals[k] < 0.0:
            neg += evals[k]
    pos = 0.0
    for k in range(dim):
        if evals[k] > 0.0:
            pos += evals[k]
    error = 0.5 - (pos - neg) / 4.0
    return DiscriminationResult(povm=BinaryPOVM(pi0=pi0, pi1=pi1), error_prob=error)


def _sign_split2(evals: list, vecs: list) -> tuple[np.ndarray, np.ndarray]:
    """Pi0 = I - Pi1 and Pi1, the projector onto the negative eigenspace, at dim 2.

    Pi1 sums v v^H onto zeros and Pi0 takes 1 - x and 0 - x entry by entry,
    as the numpy path's zeros and identity do, so neither element holds a
    -0.0 that the printed POVM would show.
    """
    (v00, v01), (v10, v11) = vecs  # component i of eigenvector k is vecs[i][k]
    p00 = p01 = p10 = p11 = 0j
    for k, (x, y) in enumerate(((v00, v10), (v01, v11))):
        if evals[k] < 0.0:
            xc, yc = x.conjugate(), y.conjugate()
            p00, p01, p10, p11 = p00 + x * xc, p01 + x * yc, p10 + y * xc, p11 + y * yc
    pi1 = np.array([[p00, p01], [p10, p11]], dtype=np.complex128)
    pi0 = np.array(
        [
            [complex(1.0 - p00.real, 0.0 - p00.imag), complex(0.0 - p01.real, 0.0 - p01.imag)],
            [complex(0.0 - p10.real, 0.0 - p10.imag), complex(1.0 - p11.real, 0.0 - p11.imag)],
        ],
        dtype=np.complex128,
    )
    return pi0, pi1


def pure_pair_kets(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The reference pure pair with overlap cos(theta)."""
    check_theta(theta)
    k0 = hilbert.basis(2, 0)
    k1 = hilbert.ket([math.cos(theta), math.sin(theta)])
    return k0, k1


def pure_pair_error(theta: float) -> float:
    """Minimum error for two equiprobable pure states with overlap cos(theta)."""
    check_theta(theta)
    return 0.5 * (1.0 - math.sin(theta))


def clone_povm_closed_form(phi: float) -> BinaryPOVM:
    """Optimal measurement for the clone marginals, in closed form.

    Rank-1 projectors onto (cos(phi/2), sin(phi/2)) and its orthogonal
    complement. Written with half angles, so the phi in {0, pi} limits
    (standard-basis projectors) need no special casing.
    """
    check_phi(phi)
    c = math.cos(phi / 2.0)
    s = math.sin(phi / 2.0)
    plus = np.array([c, s], dtype=np.complex128)
    minus = np.array([-s, c], dtype=np.complex128)
    return BinaryPOVM(pi0=np.outer(plus, plus.conj()), pi1=np.outer(minus, minus.conj()))
