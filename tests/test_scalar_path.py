"""Property tests of the scalar paths of hermitian_eig and helstrom.

Inputs are 2x2 and 4x4 complex matrices with parts from 1e-300 to 1e301,
zeros, NaN and +-inf, Hermitian or perturbed around the 1e-9 hermiticity
tolerance.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qbc import hilbert
from qbc.discrimination import helstrom

NON_FINITE = (math.nan, math.inf, -math.inf)
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def parts(draw, low=-300, high=300, finite=False):
    """A float x * 10^e with 1 <= |x| <= 10, or now and then a zero or a non-finite value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from((0.0, -0.0) + (() if finite else NON_FINITE)))
    mantissa = draw(st.floats(1.0, 10.0)) * draw(st.sampled_from((1.0, -1.0)))
    return mantissa * 10.0 ** draw(st.integers(low, high))


@st.composite
def near_hermitian(draw, dim=2, valid=False):
    """A Hermitian matrix, with one entry nudged near the 1e-9 tolerance or replaced.

    valid=True keeps the parts finite and the nudges at most 1e-9, and
    replaces no entry, so that most draws pass validation.
    """
    part = parts(finite=valid)
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        m[i, i] = draw(part)
        for j in range(i + 1, dim):
            m[i, j] = complex(draw(part), draw(part))
            m[j, i] = m[i, j].conjugate()
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    kind = draw(st.sampled_from(("hermitian", "nudged") if valid else ("hermitian", "nudged", "replaced")))
    if kind == "nudged":
        nudge = parts(-13, -10, finite=True) if valid else parts(-12, -7)
        m[i, j] += complex(draw(nudge), draw(nudge))
    elif kind == "replaced":
        m[i, j] = complex(draw(part), draw(part))
    return m


def symmetrized(m: np.ndarray) -> np.ndarray:
    return 0.5 * m + 0.5 * m.conj().T


def outcome(fn, m):
    """fn(m), or the message of the ValueError it raises."""
    try:
        return fn(m)
    except ValueError as exc:
        return str(exc)


def numpy_outcome(m):
    """The hermiticity check's required outcome, from numpy's max |m - m^H|."""
    with np.errstate(all="ignore"):  # numpy warns on inf - inf and overflow
        dev = float(np.max(np.abs(m - m.conj().T)))
    if math.isnan(dev):
        return "matrix entries must be finite"
    if dev > 1e-9:
        return f"operator is not Hermitian: max deviation {dev:.3e}"
    return None


@PROPERTY_SETTINGS
@given(st.sampled_from((2, 4)).flatmap(near_hermitian))
def test_hermitian_eig_accepts_what_numpy_check_accepts(m):
    want = numpy_outcome(m)
    got = outcome(hilbert.hermitian_eig, m)
    if want is None:
        assert isinstance(got, hilbert.EigDecomposition)
    else:
        assert got == want


def accepted(m) -> bool:
    return numpy_outcome(m) is None


@PROPERTY_SETTINGS
@given(near_hermitian(valid=True))
def test_equals_eigh2_of_numpy_symmetrization(m):
    if not accepted(m):
        return
    dec = hilbert.hermitian_eig(m)
    (a00, a01), (_, a11) = symmetrized(m).tolist()
    evals, evecs = hilbert._eigh2(a00.real, a01, a11.real)
    assert dec.eigenvalues.tobytes() == evals.tobytes()
    assert dec.eigenvectors.tobytes() == evecs.tobytes()


@PROPERTY_SETTINGS
@given(near_hermitian(valid=True))
def test_eigenvalues_agree_with_eigvalsh(m):
    if not accepted(m):
        return
    evals = hilbert.hermitian_eig(m).eigenvalues
    ref = np.linalg.eigvalsh(symmetrized(m))
    assert np.all(np.abs(evals - ref) <= 1e-14 * np.max(np.abs(m)))


@PROPERTY_SETTINGS
@given(near_hermitian(valid=True), near_hermitian(valid=True))
def test_helstrom_is_swap_symmetric(rho0, rho1):
    if not accepted(rho0 - rho1):
        return
    assert helstrom(rho0, rho1).error_prob == helstrom(rho1, rho0).error_prob
