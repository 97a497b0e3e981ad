"""The symmetric cloning family: feasibility, marginals, objective, entanglement."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qbc import hilbert
from qbc.cloner import (
    CloneParams,
    ancilla_row,
    clone_entanglement,
    clone_state,
    constraint_residuals,
    lambda_objective,
    marginal_closed_form,
    marginals,
    optimal_params,
    unitary_completion,
)
from qbc.discrimination import binary_entropy, helstrom, pure_pair_error
from qbc.errors import InfeasibleParamsError, SingularExpansionError
from qbc.optimizer import _clone_params, _orbit_vector, random_feasible_params

H_QUARTER = 0.5623351446188083  # -0.25 ln 0.25 - 0.75 ln 0.75


def theta_phi_grid(n_theta=10, n_phi=5):
    return [
        ((math.pi / 2) * i / (n_theta - 1), 2 * math.pi * j / n_phi)
        for i in range(n_theta)
        for j in range(n_phi)
    ]


class TestOptimalParams:
    def test_orthogonal_copying_point(self):
        p = optimal_params(math.pi / 2, 0.0)
        np.testing.assert_allclose(
            [p.a0, p.b0, p.c0, p.d0, p.a1, p.b1, p.c1, p.d1],
            [1, 0, 0, 0, 0, 0, 0, -1],
            atol=1e-15,
        )

    def test_overlap_constraint_identity(self):
        for theta, phi in theta_phi_grid():
            p = optimal_params(theta, phi)
            lhs = p.a1 * p.a0 + 2 * p.b1 * p.b0 + p.d1 * p.d0
            assert lhs == pytest.approx(math.cos(theta), abs=1e-14)

    def test_residuals_tiny_on_point(self):
        res = constraint_residuals(optimal_params(math.pi / 3, math.pi / 4), math.pi / 3)
        assert np.max(np.abs(res)) < 1e-14

    def test_achieves_sin_squared(self):
        for theta, phi in theta_phi_grid():
            assert lambda_objective(optimal_params(theta, phi)) == pytest.approx(
                math.sin(theta) ** 2, abs=1e-12
            )

    def test_range_checks(self):
        with pytest.raises(ValueError):
            optimal_params(2.0, 0.0)
        with pytest.raises(ValueError):
            optimal_params(0.5, 7.0)


class TestCloneParamsType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CloneParams(a0=1, b0=0.1, c0=0.2, d0=0, a1=0, b1=0, c1=0, d1=1)

    def test_rejects_non_finite(self):
        # NaN != NaN: without the finiteness check a NaN b0 reads as asymmetric
        for value in (math.inf, -math.inf, math.nan):
            for name in ("a0", "b0", "d1"):
                coeffs = dict(a0=0.1, b0=0.2, d0=0.3, a1=0.4, b1=0.5, d1=0.6)
                coeffs[name] = value
                with pytest.raises(ValueError, match="coefficients must be finite"):
                    CloneParams.symmetric(**coeffs)

    def test_xy_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            theta = rng.uniform(0, math.pi / 2)
            p = random_feasible_params(theta, rng)
            q = _clone_params(_orbit_vector(p))
            for f in ("a0", "b0", "c0", "d0", "a1", "b1", "c1", "d1"):
                assert getattr(q, f) == pytest.approx(getattr(p, f), abs=1e-15)


class TestCloneState:
    def test_orthogonal_point_outputs(self):
        p = optimal_params(math.pi / 2, 0.0)
        np.testing.assert_allclose(clone_state(p, 0), [1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(clone_state(p, 1), [0, 0, 0, -1], atol=1e-15)

    def test_overlap_preserved(self):
        for theta, phi in theta_phi_grid():
            p = optimal_params(theta, phi)
            ov = hilbert.inner_product(clone_state(p, 1), clone_state(p, 0))
            assert ov.real == pytest.approx(math.cos(theta), abs=1e-12)
            assert ov.imag == 0.0

    def test_rejects_unnormalized(self):
        bad = CloneParams.symmetric(a0=1.1, b0=0, d0=0, a1=0, b1=0, d1=1)
        with pytest.raises(InfeasibleParamsError):
            clone_state(bad, 0)


class TestMarginals:
    def test_product_output(self):
        sigma = hilbert.ket([1, 0, 0, 0])
        rho, rho_tilde = marginals(sigma)
        np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(rho_tilde, [[1, 0], [0, 0]], atol=1e-15)

    def test_symmetric_entangled(self):
        sigma = hilbert.ket([0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
        rho, rho_tilde = marginals(sigma)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(rho_tilde, np.eye(2) / 2, atol=1e-15)

    def test_both_traces_agree_for_symmetric_params(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            theta = rng.uniform(0, math.pi / 2)
            p = random_feasible_params(theta, rng)
            for which in (0, 1):
                rho, rho_tilde = marginals(clone_state(p, which))
                assert np.max(np.abs(rho - rho_tilde)) < 1e-12

    def test_matches_closed_form(self):
        rho, rho_tilde = marginals(clone_state(optimal_params(0.8, 0.3), 0))
        want = marginal_closed_form(0.8, 0.3)[0]
        np.testing.assert_allclose(rho, want, atol=1e-12)
        np.testing.assert_allclose(rho_tilde, want, atol=1e-12)


class TestMarginalClosedForm:
    def test_theta_zero_is_state_independent(self):
        rho0, rho1 = marginal_closed_form(0.0, 1.3)
        np.testing.assert_allclose(rho0, np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(rho1, np.eye(2) / 2, atol=1e-15)

    def test_orthogonal_point(self):
        rho0, rho1 = marginal_closed_form(math.pi / 2, 0.0)
        np.testing.assert_allclose(rho0, [[1, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(rho1, [[0, 0], [0, 1]], atol=1e-15)

    def test_unit_traces(self):
        for theta, phi in theta_phi_grid():
            for rho in marginal_closed_form(theta, phi):
                assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

    def test_difference_spectrum(self):
        for theta, phi in theta_phi_grid():
            rho0, rho1 = marginal_closed_form(theta, phi)
            evals = hilbert.hermitian_eig(rho0 - rho1).eigenvalues
            np.testing.assert_allclose(
                evals, [-math.sin(theta), math.sin(theta)], atol=1e-12
            )

    def test_consistency_with_partial_traces_on_grid(self):
        for theta, phi in theta_phi_grid(20, 20):
            cf = marginal_closed_form(theta, phi)
            p = optimal_params(theta, phi)
            for which in (0, 1):
                got = marginals(clone_state(p, which))[0]
                assert np.max(np.abs(got - cf[which])) < 1e-12


class TestLambdaObjective:
    def test_optimal_family_value(self):
        assert lambda_objective(optimal_params(math.pi / 2, 0.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_identical_marginals_gives_zero(self):
        p = optimal_params(0.0, 0.9)
        assert lambda_objective(p) == pytest.approx(0.0, abs=1e-15)

    def test_equals_squared_min_eigenvalue(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            theta = rng.uniform(0, math.pi / 2)
            p = random_feasible_params(theta, rng)
            rho0 = marginals(clone_state(p, 0))[0]
            rho1 = marginals(clone_state(p, 1))[0]
            lam_min = hilbert.hermitian_eig(rho0 - rho1).eigenvalues[0]
            assert lambda_objective(p) == pytest.approx(lam_min**2, abs=1e-10)

    def test_unsquared_variant_is_wrong(self):
        # dropping the square on the second group gives -1 at the exact
        # copying point, impossible for a squared eigenvalue gap; guards
        # against regressing the corrected objective
        p = optimal_params(math.pi / 2, 0.0)
        unsquared = (
            p.a1 * p.c1 + p.b1 * p.d1 - p.a0 * p.c0 - p.b0 * p.d0
        ) ** 2 + (p.a1**2 + p.b1**2 - p.a0**2 - p.b0**2)
        assert unsquared == pytest.approx(-1.0, abs=1e-12)
        assert lambda_objective(p) == pytest.approx(1.0, abs=1e-12)

    def test_relative_accuracy_bound(self):
        """|lambda / sin^2 - 1| <= 2^-49 / sin(theta) on the optimal family."""
        for theta in np.geomspace(1e-8, math.pi / 2, 200):
            s = math.sin(theta)
            for k in range(12):
                lam = lambda_objective(optimal_params(float(theta), 2 * math.pi * k / 12))
                assert abs(lam / (s * s) - 1.0) <= 2.0**-49 / s, (theta, k)


class TestConstraintResiduals:
    def test_all_zero_params(self):
        zero = CloneParams.symmetric(0, 0, 0, 0, 0, 0)
        res = constraint_residuals(zero, 0.7)
        np.testing.assert_allclose(res, [-1, -1, -math.cos(0.7)], atol=1e-15)

    def test_alternative_feasible_point(self):
        theta = 0.9
        p = CloneParams.symmetric(
            a0=1.0, b0=0.0, d0=0.0,
            a1=math.cos(theta), b1=math.sin(theta) / math.sqrt(2), d1=0.0,
        )
        assert np.max(np.abs(constraint_residuals(p, theta))) < 1e-15


class TestAncillaRow:
    def test_orthogonal_point(self):
        row = ancilla_row(optimal_params(math.pi / 2, 0.0), math.pi / 2)
        np.testing.assert_allclose(row, [0, 0, 0, -1], atol=1e-15)

    def test_linearity_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            theta = rng.uniform(0.05, math.pi / 2)
            p = random_feasible_params(theta, rng)
            row = ancilla_row(p, theta)
            rebuilt = math.cos(theta) * p.row(0) + math.sin(theta) * row
            np.testing.assert_allclose(rebuilt, p.row(1), atol=1e-12)

    def test_theta_zero_is_singular(self):
        with pytest.raises(SingularExpansionError):
            ancilla_row(optimal_params(0.0, 0.0), 0.0)


class TestUnitaryCompletion:
    def test_unitary_and_matches_rows(self):
        rng = np.random.default_rng(31)
        # Gram-Schmidt from the unit vectors loses orthogonality here (9.3e-12)
        cases = [(0.22469920164591928, optimal_params(0.22469920164591928, 3.141833127778564))]
        for _ in range(2000):
            theta = rng.uniform(0.05, math.pi / 2)
            cases.append((theta, random_feasible_params(theta, rng)))
        for theta, p in cases:
            u = unitary_completion(p, theta)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
            np.testing.assert_allclose(u[:, 0].real, p.row(0), atol=1e-12)
            np.testing.assert_allclose(u[:, 2].real, ancilla_row(p, theta), atol=1e-12)

    def test_accuracy_as_theta_goes_to_zero(self):
        """max |U^H U - I| <= 2^-49 / sin(theta) on a log grid of theta down to 1e-12."""
        rng = np.random.default_rng(32)
        for theta in np.geomspace(1e-12, math.pi / 2, 200).tolist():
            for k in range(12):
                phi = 2 * math.pi * k / 12
                for p in (optimal_params(theta, phi), random_feasible_params(theta, rng)):
                    u = unitary_completion(p, theta)
                    dev = np.max(np.abs(u.conj().T @ u - np.eye(4)))
                    assert dev <= 2.0**-49 / math.sin(theta), (theta, phi, p)


# pi to 80 digits, for the decimal reference below
PI_80 = Decimal("3.1415926535897932384626433832795028841971693993751058209749445923078164062862090")


def reference_error_and_entropy(theta):
    """p_e = sin^2(pi/4 - theta/2) at the exact double theta, and h(p_e), to 40 digits.

    The 80-digit working precision covers 1 - p_e, which keeps fewer than
    40 digits of p_e when p_e is tiny.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        x = PI_80 / 4 - Decimal(theta) / 2
        # Taylor series of sin on [0, pi/4]: 40 terms pass 80 digits
        term = sin_x = x
        for k in range(1, 40):
            term = -term * x * x / ((2 * k) * (2 * k + 1))
            sin_x += term
        pe = sin_x * sin_x
    return pe, reference_entropy(pe)


def reference_entropy(p):
    """h(p) at the exact value of p (a float or a Decimal), to 40 digits.

    The working precision grows with the leading zeros of p, so 1 - p keeps
    the digits that (1 - p) ln(1 - p), about -p, needs.
    """
    p = Decimal(p)
    with localcontext() as ctx:
        ctx.prec = 80 - min(0, p.adjusted())
        return -p * p.ln() - (1 - p) * (1 - p).ln()


def accuracy_grid():
    """theta across [0, pi/2]: log-spaced toward 0 and toward pi/2, and uniform."""
    near_pi_2 = [math.pi / 2 - d for d in np.geomspace(1e-16, 1.0, 400).tolist()]
    uniform = np.random.default_rng(17).uniform(0.0, math.pi / 2, 400).tolist()
    ends = [0.0, math.pi / 6, math.pi / 2 - 1e-8, math.pi / 2]
    return np.geomspace(1e-300, 1.0, 200).tolist() + near_pi_2 + uniform + ends


class TestRelativeAccuracy:
    """p_e, the binary entropy and the clone entanglement keep the relative bound 2^-50 of their docstrings."""

    def test_against_decimal_reference(self):
        bound = Decimal(2) ** -50
        for theta in accuracy_grid():
            ref_pe, ref_h = reference_error_and_entropy(theta)
            got_pe, got_h = pure_pair_error(theta), clone_entanglement(theta, 0.0)
            assert abs(Decimal(got_pe) / ref_pe - 1) <= bound, theta
            assert abs(Decimal(got_h) / ref_h - 1) <= bound, theta

    def test_binary_entropy_against_decimal_reference(self):
        # log-spaced toward 0 and toward 1, uniform, and both sides of the log1p switch at 1/4
        near_1 = [1.0 - d for d in np.geomspace(2.0**-53, 0.5, 200).tolist()]
        uniform = np.random.default_rng(19).uniform(0.0, 1.0, 200).tolist()
        ends = [2.5e-17, math.nextafter(0.25, 0.0), 0.25, 0.5]
        bound = Decimal(2) ** -50
        for x in np.geomspace(1e-300, 0.5, 200).tolist() + near_1 + uniform + ends:
            assert abs(Decimal(binary_entropy(x)) / reference_entropy(x) - 1) <= bound, x


class TestCloneEntanglement:
    def test_endpoints(self):
        # the double nearest pi/2 lies 6.1e-17 below it, where p_e = 9.4e-34
        got = clone_entanglement(math.pi / 2, 0.0)
        assert got == pytest.approx(7.222281335872614e-32, rel=2**-50, abs=0.0)
        assert clone_entanglement(0.0, 0.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_pi_over_6(self):
        assert clone_entanglement(math.pi / 6, 1.0) == pytest.approx(H_QUARTER, abs=1e-12)

    def test_matches_marginal_entropy(self):
        for theta, phi in theta_phi_grid():
            p = optimal_params(theta, phi)
            for which in (0, 1):
                rho, rho_tilde = marginals(clone_state(p, which))
                for reduced in (rho, rho_tilde):
                    got = hilbert.von_neumann_entropy(reduced)
                    assert got == pytest.approx(clone_entanglement(theta, phi), abs=1e-10)

    def test_phi_independent(self):
        for theta in (0.0, 0.4, 1.0, math.pi / 2):
            vals = [clone_entanglement(theta, 2 * math.pi * k / 16) for k in range(16)]
            assert max(vals) - min(vals) < 1e-12


class TestNoExtraError:
    def test_helstrom_on_clones_equals_pure_pair(self):
        for theta, phi in theta_phi_grid(10, 5):
            p = optimal_params(theta, phi)
            rho0 = marginals(clone_state(p, 0))[0]
            rho1 = marginals(clone_state(p, 1))[0]
            got = helstrom(rho0, rho1).error_prob
            assert got == pytest.approx(pure_pair_error(theta), abs=1e-12)
