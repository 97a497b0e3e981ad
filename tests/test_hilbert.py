"""Linear-algebra layer: outer products, partial traces, eigensolver, entropy."""

import math

import numpy as np
import pytest

from qbc import hilbert

LN2 = math.log(2.0)


def assert_phase_convention(vecs):
    """Each eigenvector's largest-magnitude component is real and positive.

    vecs holds eigenvectors as columns, optionally stacked: shape (..., n, n).
    The phase fix rounds the magnitudes, so among near-tied largest
    components one must be real and positive.
    """
    mags = np.abs(vecs)
    lead = mags >= mags.max(axis=-2, keepdims=True) * (1.0 - 1e-15)
    real_positive = (vecs.real > 0.0) & (np.abs(vecs.imag) <= 1e-15 * vecs.real)
    assert np.all(np.any(lead & real_positive, axis=-2))


# independently evaluated closed-form marginal at theta=pi/3, phi=pi/5
RHO0_PI3_PI5 = np.array(
    [
        [0.8503146346110184, 0.25451848022756357],
        [0.25451848022756357, 0.14968536538898164],
    ]
)


def two_by_two_eigs(m):
    """Quadratic-formula eigenvalues, ascending; independent of the library path."""
    tr = (m[0, 0] + m[1, 1]).real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    root = math.sqrt(max(0.0, tr * tr - 4.0 * det))
    return (tr - root) / 2.0, (tr + root) / 2.0


class TestOuter:
    def test_projector_is_exactly_hermitian(self):
        # with fused multiply-adds, this projector gets diagonal imaginary parts near 1e-17
        k = hilbert.ket([0.6 + 0.1j, 0.3 - 0.734j])
        p = hilbert.outer(k)
        np.testing.assert_array_equal(p, p.conj().T)
        rng = np.random.default_rng(59)
        for _ in range(200):
            k = hilbert.ket(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            p = hilbert.outer(k)
            np.testing.assert_array_equal(p, p.conj().T)

    def test_entries(self):
        a = hilbert.ket([1.0, 2j])
        b = hilbert.ket([3.0, 1j])
        np.testing.assert_array_equal(hilbert.outer(a, b), [[3.0, -1j], [6j, 2.0]])
        assert not hilbert.outer(a, b).flags.writeable

    def test_rejects_mismatched_or_unsupported_kets(self):
        with pytest.raises(ValueError):
            hilbert.outer(hilbert.basis(2, 0), hilbert.basis(4, 0))
        with pytest.raises(ValueError):
            hilbert.outer(np.ones(3, dtype=complex))
        with pytest.raises(ValueError):
            hilbert.outer(np.eye(2, dtype=complex))


class TestPartialTrace:
    def test_product_state(self):
        t = hilbert.ket(np.kron(hilbert.basis(2, 0), hilbert.basis(2, 1)))
        np.testing.assert_allclose(
            hilbert.partial_trace(t, "second"), [[1, 0], [0, 0]], atol=1e-15
        )

    def test_maximally_entangled(self):
        bell = hilbert.ket([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        for side in ("first", "second"):
            np.testing.assert_allclose(
                hilbert.partial_trace(bell, side), np.eye(2) / 2, atol=1e-15
            )

    def test_clone_marginal_closed_form(self):
        from qbc.cloner import clone_state, optimal_params

        sigma0 = clone_state(optimal_params(math.pi / 3, math.pi / 5), 0)
        got = hilbert.partial_trace(sigma0, "second")
        np.testing.assert_allclose(got, RHO0_PI3_PI5, atol=1e-12)

    def test_product_marginals_pure(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t = hilbert.ket(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
            for side in ("first", "second"):
                reduced = hilbert.partial_trace(t, side)
                assert hilbert.von_neumann_entropy(reduced) < 1e-10
                assert hilbert.hermitian_eig(reduced).eigenvalues[0] == pytest.approx(0.0, abs=1e-10)

    def test_trace_preserved_for_operators(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = (g + g.conj().T) / 2
            for side in ("first", "second"):
                assert np.trace(hilbert.partial_trace(m, side)).real == pytest.approx(
                    np.trace(m).real, abs=1e-12
                )

    def test_bad_subsystem(self):
        with pytest.raises(ValueError):
            hilbert.partial_trace(hilbert.ket([1, 0, 0, 0]), "third")


class TestHermitianEig:
    def test_identity(self):
        dec = hilbert.hermitian_eig(np.eye(2, dtype=complex))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])

    def test_off_diagonal_sine(self):
        s = math.sin(0.8)
        dec = hilbert.hermitian_eig(np.array([[0, s], [s, 0]], dtype=complex))
        np.testing.assert_allclose(dec.eigenvalues, [-s, s], atol=1e-14)

    def test_clone_marginal_difference(self):
        from qbc.cloner import marginal_closed_form

        rho0, rho1 = marginal_closed_form(0.7, 1.1)
        dec = hilbert.hermitian_eig(rho0 - rho1)
        np.testing.assert_allclose(
            dec.eigenvalues, [-math.sin(0.7), math.sin(0.7)], atol=1e-12
        )

    def test_matches_quadratic_oracle_dim2(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = (g + g.conj().T) / 2
            lo, hi = two_by_two_eigs(m)
            np.testing.assert_allclose(
                hilbert.hermitian_eig(m).eigenvalues, [lo, hi], atol=1e-10
            )

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(22)
        for k in range(1000):
            dim = 2 if k % 2 else 4
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = (g + g.conj().T) / 2
            dec = hilbert.hermitian_eig(m)
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.max(np.abs(rebuilt - m)) < 1e-10
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(dim))) < 1e-10
            # independent eigenvalue oracle
            np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(m), atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = (g + g.conj().T) / 2
        a, b = hilbert.hermitian_eig(m), hilbert.hermitian_eig(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert_phase_convention(a.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hilbert.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_non_finite(self):
        for dim in (2, 4):
            for bad in (math.nan, math.inf, -math.inf):
                diag = np.eye(dim, dtype=complex)
                diag[1, 1] = bad
                pair = np.eye(dim, dtype=complex)
                pair[0, 1] = pair[1, 0] = bad
                for m in (diag, pair):
                    with pytest.raises(ValueError, match="must be finite"):
                        hilbert.hermitian_eig(m)

    def test_huge_entries_do_not_overflow(self):
        # m/2 + m^H/2 stays finite where (m + m^H)/2 overflowed to inf
        for dim in (2, 4):
            m = np.zeros((dim, dim), dtype=complex)
            m[0, 0] = 1e308
            want = [0.0] * (dim - 1) + [1e308]
            assert hilbert.hermitian_eig(m).eigenvalues.tolist() == want

    def test_huge_non_hermitian_raises_value_error(self):
        # complex abs of a finite deviation can overflow with OverflowError,
        # and numpy's m - m^H warns on overflow; neither may replace the ValueError
        cases = [
            np.array([[0.0, 1.5e308 + 1.5e308j], [0.0, 0.0]]),
            np.array([[0.0, 1.5e308], [-1.5e308, 0.0]], dtype=complex),
            np.diag([1.5e308j, 0.0]),
        ]
        for big in (1.5e308, math.inf):
            m = np.zeros((4, 4), dtype=complex)
            m[0, 1], m[1, 0] = big, -big
            cases.append(m)
        for m in cases:
            with pytest.raises(ValueError, match="not Hermitian: max deviation inf"):
                hilbert.hermitian_eig(m)

    def test_dim2_closed_form_against_eigvalsh(self):
        """The closed-form dim-2 rotation on edge-case and random inputs."""
        rng = np.random.default_rng(24)
        big = 8e307 + 8e307j  # |big| is finite, its square is not
        inputs = [
            np.zeros((2, 2)),
            np.eye(2),
            np.diag([3.0, -1.0]),
            np.full((2, 2), 0.5),
            np.array([[0.0, big], [np.conj(big), 0.0]]),
        ]
        for _ in range(1000):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = (g + g.conj().T) / 2
            inputs += [m, m.real, np.diag(np.diag(m)), m * 1e300, m * 1e-300, m * 1e-14]
        ms = np.array([sign * m for m in inputs for sign in (1.0, -1.0)], dtype=complex)
        decs = [hilbert.hermitian_eig(m) for m in ms]
        evals = np.array([dec.eigenvalues for dec in decs])
        vecs = np.array([dec.eigenvectors for dec in decs])
        assert np.all(evals[:, 0] <= evals[:, 1])
        # relative accuracy at every scale: the rotation is skipped only
        # where it could not change the eigenvalues
        floor = 1e-14 * np.max(np.abs(ms), axis=(1, 2))
        ref = np.linalg.eigvalsh(ms)
        assert np.all(np.abs(evals - ref) <= 1e-14 * np.abs(ref) + floor[:, None])
        rebuilt = (vecs * evals[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        assert np.all(np.max(np.abs(rebuilt - ms), axis=(1, 2)) <= floor)
        assert_phase_convention(vecs)


class TestEntropy:
    def test_pure_state(self):
        assert hilbert.von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0

    def test_maximally_mixed(self):
        assert hilbert.von_neumann_entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(
            LN2, abs=1e-14
        )

    def test_quarter_mix(self):
        got = hilbert.von_neumann_entropy(np.diag([0.25, 0.75]).astype(complex))
        assert got == pytest.approx(0.5623351446188083, abs=1e-14)

    def test_additivity(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            gs = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            r1, r2 = (g @ g.conj().T for g in gs)
            r1, r2 = r1 / np.trace(r1).real, r2 / np.trace(r2).real
            lhs = hilbert.von_neumann_entropy(np.kron(r1, r2))
            rhs = hilbert.von_neumann_entropy(r1) + hilbert.von_neumann_entropy(r2)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_rejects_negative_spectrum(self):
        with pytest.raises(ValueError):
            hilbert.von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))


class TestValidators:
    def test_ket_rejects_nan(self):
        with pytest.raises(ValueError):
            hilbert.ket([np.nan, 0.0])

    def test_ket_rejects_dim3(self):
        with pytest.raises(ValueError):
            hilbert.ket([1.0, 0.0, 0.0])
