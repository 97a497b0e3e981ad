"""Complex linear algebra for 2- and 4-dimensional Hilbert spaces.

Kets are complex128 vectors, operators complex128 matrices; both are
returned read-only so values can be shared freely across threads. Basis
convention: index 0 is the reference basis state |0>, index 1 its
orthogonal partner; a dim-4 index is 2*(system index) + (blank index).

The eigensolver is deterministic Jacobi at both dimensions. At dim 2 it is
one closed-form Jacobi rotation (the symmetric Schur decomposition) in
straight-line scalar code; at dim 4 it is the cyclic kernel
qbc._kernels.jacobi_eigh. The dim-2 path takes the kernel's steps in the
kernel's order, so both give the same values. Eigenvector phases are fixed
so identical inputs give identical outputs bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from ._kernels import jacobi_eigh

_DIMS = (2, 4)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def ket(amplitudes) -> np.ndarray:
    """Build a ket from a sequence of amplitudes (dim 2 or 4)."""
    amp = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
    if amp.shape[0] not in _DIMS:
        raise ValueError(f"ket dimension must be 2 or 4, got {amp.shape[0]}")
    if not np.all(np.isfinite(amp.view(np.float64))):
        raise ValueError("ket amplitudes must be finite")
    return _readonly(amp)


def basis(dim: int, index: int) -> np.ndarray:
    """Standard basis ket |index> in the given dimension."""
    if dim not in _DIMS:
        raise ValueError(f"dimension must be 2 or 4, got {dim}")
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    amp = np.zeros(dim, dtype=np.complex128)
    amp[index] = 1.0
    return _readonly(amp)


def operator(entries) -> np.ndarray:
    """Build an operator matrix (dim 2 or 4) from nested entries."""
    m = np.asarray(entries, dtype=np.complex128).copy()
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in _DIMS:
        raise ValueError(f"operator must be square with dim 2 or 4, got {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("operator entries must be finite")
    return _readonly(m)


def eye(dim: int) -> np.ndarray:
    return _readonly(np.eye(dim, dtype=np.complex128))


def require_normalized(a: np.ndarray, tolerance: float = tol.EQUALITY_TOL) -> None:
    norm2 = float(np.vdot(a, a).real)
    if abs(norm2 - 1.0) > tolerance:
        raise ValueError(f"ket is not normalized: |norm^2 - 1| = {abs(norm2 - 1.0):.3e}")


def require_hermitian(m: np.ndarray, tolerance: float = tol.VALIDATION_TOL) -> None:
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tolerance:
        raise ValueError(f"operator is not Hermitian: max deviation {dev:.3e}")


def require_density_matrix(rho: np.ndarray) -> None:
    """Validate unit trace (1e-12) and eigenvalues above the PSD floor."""
    require_hermitian(rho)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol.EQUALITY_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1")
    evals = hermitian_eig(rho).eigenvalues
    if evals[0] < tol.EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {evals[0]:.3e} below floor")


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> with the conjugation on the first argument."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two dim-2 kets; component 2j+k is a_j * b_k."""
    if a.shape != (2,) or b.shape != (2,):
        raise ValueError("tensor expects two dim-2 kets")
    return _readonly((a[:, None] * b[None, :]).reshape(4))


def tensor_op(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two dim-2 operators; entry (2i+k, 2j+l) is a_ij * b_kl."""
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("tensor_op expects two 2x2 operators")
    # one multiply per entry, as np.kron does, without its generic set-up
    return _readonly((a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4))


def outer(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """|a><b| (|a><a| when b is omitted)."""
    if b is None:
        b = a
    return _readonly(np.outer(a, b.conj()))


def partial_trace(state: np.ndarray, subsystem: str) -> np.ndarray:
    """Trace out one factor of a dim-4 ket or operator.

    subsystem is the factor being removed: "first" or "second". A ket is
    treated as its projector. The result is the 2x2 reduced matrix of the
    remaining factor.
    """
    if subsystem not in ("first", "second"):
        raise ValueError(f'subsystem must be "first" or "second", got {subsystem!r}')
    if state.shape == (4,):
        m = np.outer(state, state.conj())
    elif state.shape == (4, 4):
        m = state
    else:
        raise ValueError(f"partial_trace expects a dim-4 ket or 4x4 operator, got {state.shape}")
    t = m.reshape(2, 2, 2, 2)
    if subsystem == "first":
        out = np.einsum("kikj->ij", t)
    else:
        out = np.einsum("ikjk->ij", t)
    return _readonly(out)


@dataclass(frozen=True)
class EigDecomposition:
    """Eigenvalues in ascending order; eigenvector k is eigenvectors[:, k]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: np.ndarray) -> EigDecomposition:
    """Spectral decomposition of a Hermitian operator (dim 2 or 4).

    The input may deviate from exact hermiticity by up to 1e-9; it is
    symmetrized before the Jacobi rotations. Output is deterministic.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in _DIMS:
        raise ValueError(f"hermitian_eig expects a square dim-2 or dim-4 matrix, got {m.shape}")
    require_hermitian(m)
    sym = np.ascontiguousarray((m + m.conj().T) / 2.0, dtype=np.complex128)
    evals, evecs = _eigh2(sym) if sym.shape[0] == 2 else jacobi_eigh(sym)
    return EigDecomposition(_readonly(evals), _readonly(evecs))


def _eigh2(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """jacobi_eigh of a 2x2 Hermitian matrix as one closed-form rotation.

    At dim 2 the kernel's first rotation zeroes the only off-diagonal pair,
    so its second sweep stops at once. This is that rotation, the stable
    ascending sort and the phase fix, on Python scalars and in the kernel's
    order of operations, so the values equal the kernel's.
    """
    (a00, a01), (_, a11) = sym.tolist()
    app, aqq = a00.real, a11.real
    # a finite symmetrized entry has parts below half the float maximum, so
    # this cannot raise the OverflowError of Python's complex abs
    r = abs(a01)
    if math.sqrt(2.0 * (r * r)) < tol.JACOBI_OFFDIAG_TOL:
        evals = [app, aqq]
        cols = [[1.0 + 0j, 0j], [0j, 1.0 + 0j]]
    else:
        w = complex(a01.real / r, a01.imag / r)
        tau = (aqq - app) / (2.0 * r)
        if tau >= 0.0:
            t = 1.0 / (tau + math.sqrt(tau * tau + 1.0))
        else:
            t = -1.0 / (-tau + math.sqrt(tau * tau + 1.0))
        c = 1.0 / math.sqrt(t * t + 1.0)
        s = t * c
        evals = [app - t * r, aqq + t * r]
        # the rotation applied to the identity, column by column
        cols = [
            [complex(c), complex(-s * w.real, s * w.imag)],
            [complex(s * w.real, s * w.imag), complex(c)],
        ]
    if evals[0] > evals[1]:  # ties keep their order, as in the kernel's insertion sort
        evals.reverse()
        cols.reverse()
    vecs = []
    for col in cols:
        # largest-magnitude component made real and positive; a tie keeps index 0
        best, best_mag = 0, -1.0
        for i, z in enumerate(col):
            mag = abs(z)
            if mag > best_mag:
                best, best_mag = i, mag
        lead = col[best]
        phase = complex(lead.real / best_mag, -lead.imag / best_mag)
        vecs.append([z * phase for z in col])
    return (
        np.array(evals, dtype=np.float64),
        np.array([[vecs[0][0], vecs[1][0]], [vecs[0][1], vecs[1][1]]], dtype=np.complex128),
    )


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lam * ln lam) in nats, with 0 ln 0 = 0."""
    evals = hermitian_eig(rho).eigenvalues
    if evals[0] < tol.EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {evals[0]:.3e} below the density-matrix floor")
    s = 0.0
    for lam in evals:
        if lam > 0.0:
            s -= lam * np.log(lam)
    # an eigenvalue of 1 + eps would otherwise give a -1e-16 entropy
    return max(0.0, float(s))
