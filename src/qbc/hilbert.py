"""Complex linear algebra for 2- and 4-dimensional Hilbert spaces.

Kets are complex128 vectors, operators complex128 matrices; both are
returned read-only so values can be shared freely across threads. Basis
convention: index 0 is the reference basis state |0>, index 1 its
orthogonal partner; a dim-4 index is 2*(system index) + (blank index).

Validation runs on Python scalars at both dims: one tolist() of the input,
then the finite and hermiticity checks on max |m - m^H|. The eigensolver is
deterministic. At dim 2 it stays on those scalars for the symmetrization and
one closed-form Jacobi rotation (the symmetric Schur decomposition), with
numpy arrays built only for the result. The rotation is skipped only when
the off-diagonal magnitude is at most 2^-53 times the gap between the
diagonal entries, where it would move the eigenvalues by at most 2^-106
times that gap, so a matrix of any scale keeps its relative accuracy. At
dim 4 the solver is LAPACK's Hermitian eigh through numpy. At both dims
each eigenvector's largest-magnitude component is made real and positive,
so identical inputs give identical outputs bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol

_DIMS = (2, 4)
# entry (j, i) of m - m^H mirrors (i, j), so checks visit the upper triangle
_UPPER = {n: [(i, j) for i in range(n) for j in range(i, n)] for n in _DIMS}
_HALF_ULP = 2.0**-53


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


def require_normalized(a: np.ndarray) -> None:
    norm2 = float(np.vdot(a, a).real)
    if abs(norm2 - 1.0) > tol.VALIDATION_TOL:
        raise ValueError(f"ket is not normalized: |norm^2 - 1| = {abs(norm2 - 1.0):.3e}")


def require_hermitian(m: np.ndarray) -> None:
    if m.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"operator must be square with dim 2 or 4, got {m.shape}")
    _check_hermitian(m.tolist())


def _check_hermitian(rows: list) -> None:
    """Raise unless max |m - m^H| over the rows of m is within VALIDATION_TOL.

    A NaN or infinite entry makes the deviation NaN, or infinite when it
    meets a finite partner, so this one check also rejects non-finite input.
    """
    dev = _max_abs([rows[i][j] - rows[j][i].conjugate() for i, j in _UPPER[len(rows)]])
    if math.isnan(dev):
        raise ValueError("matrix entries must be finite")
    if dev > tol.VALIDATION_TOL:
        raise ValueError(f"operator is not Hermitian: max deviation {dev:.3e}")


def _max_abs(values) -> float:
    """max |z| over Python complex numbers, NaN when any |z| is, as numpy's max.

    math.hypot returns inf where complex abs raises OverflowError, and a sum
    of magnitudes is NaN exactly when one of them is.
    """
    mags = [math.hypot(z.real, z.imag) for z in values]
    return math.nan if math.isnan(sum(mags)) else max(mags)


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
    """|a><b| (|a><a| when b is omitted) of two kets of the same dimension.

    Each entry is one Python complex product a_i * conj(b_j), so entries
    (i, j) and (j, i) of |a><a| are exact conjugates and its diagonal is real.
    """
    if b is None:
        b = a
    if a.shape != b.shape or a.shape not in ((2,), (4,)):
        raise ValueError(f"outer expects two kets of dim 2 or 4, got {a.shape} and {b.shape}")
    bc = [y.conjugate() for y in b.tolist()]
    return _readonly(np.array([[x * y for y in bc] for x in a.tolist()], dtype=np.complex128))


def partial_trace(state: np.ndarray, subsystem: str) -> np.ndarray:
    """Trace out one factor of a dim-4 ket or operator.

    subsystem is the factor being removed: "first" or "second". A ket is
    treated as its projector. The result is the 2x2 reduced matrix of the
    remaining factor.
    """
    if subsystem not in ("first", "second"):
        raise ValueError(f'subsystem must be "first" or "second", got {subsystem!r}')
    if state.shape == (4,):
        # the reduced matrix is X X^H, where row i of X holds the components
        # whose kept index is i: X[i][k] = s[2k+i] or s[2i+k]
        s0, s1, s2, s3 = state.tolist()
        (u0, u1), (v0, v1) = ((s0, s2), (s1, s3)) if subsystem == "first" else ((s0, s1), (s2, s3))
        uc0, uc1, vc0, vc1 = u0.conjugate(), u1.conjugate(), v0.conjugate(), v1.conjugate()
        out = np.array(
            [[u0 * uc0 + u1 * uc1, u0 * vc0 + u1 * vc1], [v0 * uc0 + v1 * uc1, v0 * vc0 + v1 * vc1]],
            dtype=state.dtype,
        )
        return _readonly(out)
    if state.shape != (4, 4):
        raise ValueError(f"partial_trace expects a dim-4 ket or 4x4 operator, got {state.shape}")
    t = state.reshape(2, 2, 2, 2)
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
    symmetrized as m/2 + m^H/2 before the solve. Non-finite entries raise
    ValueError. Output is deterministic.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in _DIMS:
        raise ValueError(f"hermitian_eig expects a square dim-2 or dim-4 matrix, got {m.shape}")
    rows = m.tolist()
    _check_hermitian(rows)
    # halving each term first cannot overflow, and is exact for normal floats
    if len(rows) == 2:
        (m00, m01), (m10, m11) = rows
        evals, evecs = _eigh2(
            (0.5 * m00 + 0.5 * m00.conjugate()).real,
            0.5 * m01 + 0.5 * m10.conjugate(),
            (0.5 * m11 + 0.5 * m11.conjugate()).real,
        )
    else:
        evals, evecs = _eigh4(np.asarray(0.5 * m + 0.5 * m.conj().T, dtype=np.complex128))
    return EigDecomposition(_readonly(evals), _readonly(evecs))


def _eigh2(app: float, apq: complex, aqq: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the 2x2 Hermitian matrix [[app, apq], [conj(apq), aqq]].

    One Jacobi rotation zeroes the off-diagonal pair, then come a stable
    ascending sort and the phase fix, all on Python scalars. The rotation
    is skipped only when r = |apq| <= 2^-53 |aqq - app|: it would then
    shift each eigenvalue by about r^2 / |aqq - app| <= 2^-106 |aqq - app|,
    far below the rounding of the larger diagonal entry.
    """
    r = math.hypot(apq.real, apq.imag)
    if r <= _HALF_ULP * abs(aqq - app):
        evals = [app, aqq]
        cols = [[1.0 + 0j, 0j], [0j, 1.0 + 0j]]
    else:
        w = complex(apq.real / r, apq.imag / r)
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
    if evals[0] > evals[1]:  # ties keep their order
        evals.reverse()
        cols.reverse()
    vecs = []
    for z0, z1 in cols:
        # largest-magnitude component made real and positive; a tie keeps index 0
        lead = z1 if abs(z1) > abs(z0) else z0
        mag = abs(lead)
        phase = complex(lead.real / mag, -lead.imag / mag)
        vecs.append((z0 * phase, z1 * phase))
    (u0, u1), (v0, v1) = vecs
    return np.array(evals, dtype=np.float64), np.array([[u0, v0], [u1, v1]], dtype=np.complex128)


def _eigh4(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigh, then _eigh2's phase fix (largest component real and positive)."""
    evals, vecs = np.linalg.eigh(sym)
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(4)]
    return evals, vecs * (lead.conj() / np.abs(lead))


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
