"""Minimum-error discrimination: optimal POVMs and their closed forms."""

import math

import numpy as np
import pytest

from qbc import hilbert
from qbc.cloner import marginal_closed_form
from qbc.discrimination import (
    BinaryPOVM,
    clone_povm_closed_form,
    error_of_povm,
    helstrom,
    pure_pair_error,
    pure_pair_kets,
)


def random_density(rng, dim=2):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_projective_povm(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    pi0 = np.outer(v, v.conj())
    return BinaryPOVM(pi0=pi0, pi1=np.eye(2, dtype=complex) - pi0)


class TestErrorOfPovm:
    def test_identical_states(self):
        rho = np.eye(2, dtype=complex) / 2
        povm = clone_povm_closed_form(1.234)
        assert error_of_povm(rho, rho, povm) == pytest.approx(0.5, abs=1e-15)

    def test_orthogonal_projective(self):
        rho0 = hilbert.outer(hilbert.basis(2, 0))
        rho1 = hilbert.outer(hilbert.basis(2, 1))
        povm = BinaryPOVM(pi0=rho0.copy(), pi1=rho1.copy())
        assert error_of_povm(rho0, rho1, povm) == pytest.approx(0.0, abs=1e-15)

    def test_clone_marginals_with_matched_povm(self):
        theta, phi = 0.9, 0.4
        rho0, rho1 = marginal_closed_form(theta, phi)
        err = error_of_povm(rho0, rho1, clone_povm_closed_form(phi))
        assert err == pytest.approx(0.5 * (1 - math.sin(theta)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            error_of_povm(
                np.eye(4, dtype=complex) / 4,
                np.eye(4, dtype=complex) / 4,
                clone_povm_closed_form(0.2),
            )


class TestHelstrom:
    def test_identical_states_null_pi1(self):
        rho = np.eye(2, dtype=complex) / 2
        result = helstrom(rho, rho)
        assert result.error_prob == 0.5
        np.testing.assert_allclose(result.povm.pi1, np.zeros((2, 2)), atol=1e-15)

    def test_orthogonal_states(self):
        rho0 = hilbert.outer(hilbert.basis(2, 0))
        rho1 = hilbert.outer(hilbert.basis(2, 1))
        assert helstrom(rho0, rho1).error_prob == pytest.approx(0.0, abs=1e-15)

    def test_overlap_pi_4(self):
        k0, k1 = pure_pair_kets(math.pi / 4)
        result = helstrom(hilbert.outer(k0), hilbert.outer(k1))
        assert result.error_prob == pytest.approx(0.14644660940672627, abs=1e-12)

    def test_result_error_matches_its_povm(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho0, rho1 = random_density(rng), random_density(rng)
            result = helstrom(rho0, rho1)
            assert result.error_prob == pytest.approx(
                error_of_povm(rho0, rho1, result.povm), abs=1e-12
            )

    def test_dim2_equals_min_eigenvalue_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            rho0, rho1 = random_density(rng), random_density(rng)
            lam_min = hilbert.hermitian_eig(rho0 - rho1).eigenvalues[0]
            assert helstrom(rho0, rho1).error_prob == pytest.approx(
                0.5 * (1 + lam_min), abs=1e-12
            )

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            rho0, rho1 = random_density(rng), random_density(rng)
            assert helstrom(rho0, rho1).error_prob == helstrom(rho1, rho0).error_prob

    def test_swap_symmetry_exact_dim4(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            rho0, rho1 = random_density(rng, 4), random_density(rng, 4)
            assert helstrom(rho0, rho1).error_prob == helstrom(rho1, rho0).error_prob

    def test_dim4_equals_trace_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            rho0, rho1 = random_density(rng, 4), random_density(rng, 4)
            trace_norm = np.sum(np.abs(np.linalg.eigvalsh(rho0 - rho1)))
            assert abs(helstrom(rho0, rho1).error_prob - (0.5 - trace_norm / 4)) <= 1e-15

    def test_optimality_over_random_povms(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            theta = rng.uniform(0, math.pi / 2)
            phi = rng.uniform(0, 2 * math.pi)
            rho0, rho1 = marginal_closed_form(theta, phi)
            best = helstrom(rho0, rho1).error_prob
            assert error_of_povm(rho0, rho1, random_projective_povm(rng)) >= best - 1e-12

    def test_works_in_dim4(self):
        rng = np.random.default_rng(9)
        g0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho0 = g0 @ g0.conj().T / np.trace(g0 @ g0.conj().T).real
        rho1 = g1 @ g1.conj().T / np.trace(g1 @ g1.conj().T).real
        result = helstrom(rho0, rho1)
        assert 0.0 <= result.error_prob <= 0.5
        assert result.error_prob == pytest.approx(
            error_of_povm(rho0, rho1, result.povm), abs=1e-12
        )

    def test_dim4_povm_is_exactly_hermitian(self):
        # a complex ket's projector from np.outer is not exactly Hermitian
        # where numpy's complex multiply uses fused multiply-adds
        k = hilbert.ket(np.array([0.6 + 0.1j, 0.3 - 0.734j]) / math.hypot(0.6, 0.1, 0.3, 0.734))
        e0 = hilbert.basis(2, 0)
        rho0 = hilbert.outer(np.kron(k, [0.8, 0.6j]))
        rho1 = hilbert.outer(np.kron(e0, k))
        for pi in (helstrom(rho0, rho1).povm.pi1, helstrom(rho1, rho0).povm.pi0):
            assert np.array_equal(pi, pi.conj().T)


class TestPurePairError:
    def test_endpoints(self):
        # the double nearest pi/2 lies 6.1e-17 below it
        assert pure_pair_error(math.pi / 2) == pytest.approx(9.37349864163661e-34, rel=2**-50, abs=0.0)
        assert pure_pair_error(0.0) == 0.5

    def test_pi_over_6(self):
        assert pure_pair_error(math.pi / 6) == pytest.approx(0.25, abs=1e-15)

    def test_matches_helstrom_on_kets(self):
        for theta in (0.2, 0.7, 1.1, 1.5):
            k0, k1 = pure_pair_kets(theta)
            got = helstrom(hilbert.outer(k0), hilbert.outer(k1)).error_prob
            assert got == pytest.approx(pure_pair_error(theta), abs=1e-12)

    def test_strictly_decreasing(self):
        thetas = [(k + 1) / 1001 * math.pi / 2 for k in range(1000)]
        errs = [pure_pair_error(t) for t in thetas]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pure_pair_error(-0.1)
        with pytest.raises(ValueError):
            pure_pair_error(math.pi)


class TestClonePovmClosedForm:
    def test_phi_half_pi(self):
        povm = clone_povm_closed_form(math.pi / 2)
        plus = np.array([1, 1]) / math.sqrt(2)
        minus = np.array([1, -1]) / math.sqrt(2)
        np.testing.assert_allclose(povm.pi0, np.outer(plus, plus), atol=1e-15)
        np.testing.assert_allclose(povm.pi1, np.outer(minus, minus), atol=1e-15)

    def test_phi_zero_limit(self):
        povm = clone_povm_closed_form(0.0)
        np.testing.assert_allclose(povm.pi0, [[1, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(povm.pi1, [[0, 0], [0, 1]], atol=1e-15)
        # the nearby regular point agrees with the numerically built optimum
        rho0, rho1 = marginal_closed_form(0.5, 1e-4)
        err_closed = error_of_povm(rho0, rho1, clone_povm_closed_form(1e-4))
        assert err_closed == pytest.approx(helstrom(rho0, rho1).error_prob, abs=1e-12)

    def test_completeness_everywhere(self):
        for k in range(32):
            povm = clone_povm_closed_form(2 * math.pi * k / 32)
            np.testing.assert_allclose(povm.pi0 + povm.pi1, np.eye(2), atol=1e-15)

    def test_achieves_helstrom_error_on_grid(self):
        for theta in (0.3, 0.8, 1.3):
            for k in range(16):
                phi = 2 * math.pi * k / 16
                rho0, rho1 = marginal_closed_form(theta, phi)
                got = error_of_povm(rho0, rho1, clone_povm_closed_form(phi))
                assert got == pytest.approx(helstrom(rho0, rho1).error_prob, abs=1e-12)


class TestBinaryPOVMValidation:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            BinaryPOVM(pi0=np.eye(2, dtype=complex), pi1=np.eye(2, dtype=complex))

    def test_rejects_negative_element(self):
        with pytest.raises(ValueError):
            BinaryPOVM(
                pi0=np.diag([2.0, 0.0]).astype(complex),
                pi1=np.diag([-1.0, 1.0]).astype(complex),
            )

    def test_rejects_non_square_elements(self):
        # a 0-d element used to raise IndexError from its missing shape[0]
        bad = (1.0, np.ones(2), np.ones((2, 2, 2)), np.ones((2, 3)), np.eye(3))
        for elem in bad:
            with pytest.raises(ValueError, match="2x2 or 4x4, got"):
                BinaryPOVM(pi0=elem, pi1=np.zeros_like(elem))
        with pytest.raises(ValueError, match=r"got \(2, 2\) and \(4, 4\)"):
            BinaryPOVM(pi0=np.eye(2), pi1=np.zeros((4, 4)))

    def test_rejects_nan(self):
        # every comparison with NaN is false, so range checks alone pass it
        with pytest.raises(ValueError, match="finite"):
            BinaryPOVM(
                pi0=np.array([[math.nan, 0.0], [0.0, 0.0]], dtype=complex),
                pi1=np.diag([0.0, 1.0]).astype(complex),
            )

    def test_caller_arrays_stay_writable(self):
        pi0 = np.diag([1.0, 0.0]).astype(complex)
        pi1 = np.diag([0.0, 1.0]).astype(complex)
        povm = BinaryPOVM(pi0=pi0, pi1=pi1)
        assert pi0.flags.writeable and pi1.flags.writeable
        assert not povm.pi0.flags.writeable and not povm.pi1.flags.writeable
        pi0[0, 0] = 0.0
        assert povm.pi0[0, 0] == 1.0
