"""Multi-start re-derivation of the cloning optimum."""

import math

import numpy as np
import pytest

from qbc import tolerances as tol
from qbc._kernels import clone_lambda, rotate, rotation_grad
from qbc.cloner import (
    CloneParams,
    constraint_residuals,
    lambda_objective,
    optimal_params,
)
from qbc.errors import OptimizationFailure, ProjectionError
from qbc.optimizer import (
    OptimizerConfig,
    _clone_params,
    maximize_lambda,
    project_to_feasible,
    random_feasible_params,
)


class TestProjectToFeasible:
    def test_fixed_point(self):
        p = optimal_params(0.8, 0.5)
        q = project_to_feasible(p, 0.8)
        for f in ("a0", "b0", "d0", "a1", "b1", "d1"):
            assert getattr(q, f) == pytest.approx(getattr(p, f), abs=1e-12)

    def test_scaled_point_recovers_feasibility(self):
        p = optimal_params(0.8, 0.5)
        raw = CloneParams.symmetric(
            1.01 * p.a0, 1.01 * p.b0, 1.01 * p.d0, 1.01 * p.a1, 1.01 * p.b1, 1.01 * p.d1
        )
        q = project_to_feasible(raw, 0.8)
        assert np.max(np.abs(constraint_residuals(q, 0.8))) < 1e-12

    def test_zeros_outside_basin(self):
        with pytest.raises(ProjectionError):
            project_to_feasible(CloneParams.symmetric(0, 0, 0, 0, 0, 0), 0.5)

    def test_random_projections_feasible(self):
        rng = np.random.default_rng(41)
        thetas = [0.0, math.pi / 2] + [rng.uniform(0, math.pi / 2) for _ in range(300)]
        for theta in thetas:
            p = random_feasible_params(theta, rng)
            assert np.max(np.abs(constraint_residuals(p, theta))) < 1e-12
        # the parallel target is met exactly: both rows coincide
        p = random_feasible_params(0.0, rng)
        np.testing.assert_array_equal(p.row(0), p.row(1))


class TestGradient:
    def test_matches_central_differences(self):
        """omega against derivatives of lambda(exp([h w]x) R) along axes and omega."""
        rng = np.random.default_rng(43)
        h = 1e-5
        for _ in range(100):
            theta = math.exp(rng.uniform(math.log(1e-6), math.log(math.pi / 2)))
            psi = tuple(rng.standard_normal(3).tolist())
            v = rotate((1.0, 0.0, 0.0), psi)
            b = rotate((0.0, 1.0, 0.0), psi)
            c1, c2 = -2.0 * math.sin(theta / 2) ** 2, math.sin(theta)
            d = tuple(c1 * vi + c2 * bi for vi, bi in zip(v, b))
            # the cancellation-free objective against the coefficient form
            w = tuple(vi + di for vi, di in zip(v, d))
            assert clone_lambda(v, d) == pytest.approx(lambda_objective(_clone_params((*v, *w))), rel=1e-8)
            omega = np.array(rotation_grad(v, d))
            s2 = math.sin(theta) ** 2
            for w in [*np.eye(3), omega / np.linalg.norm(omega)]:
                up = clone_lambda(rotate(v, tuple(h * w)), rotate(d, tuple(h * w)))
                dn = clone_lambda(rotate(v, tuple(-h * w)), rotate(d, tuple(-h * w)))
                fd = (up - dn) / (2 * h)
                assert np.dot(omega, w) == pytest.approx(fd, abs=1e-8 * s2)


class TestMaximizeLambda:
    def test_orthogonal_inputs(self):
        report = maximize_lambda(math.pi / 2, OptimizerConfig(seed=1))
        assert report.lambda_max == pytest.approx(1.0, abs=1e-6)

    def test_identical_inputs(self):
        report = maximize_lambda(0.0, OptimizerConfig(seed=1))
        assert report.lambda_max < 1e-9

    def test_pi_over_3(self):
        report = maximize_lambda(math.pi / 3, OptimizerConfig(seed=1))
        assert report.lambda_max == pytest.approx(0.75, abs=1e-6)
        # the free parameter sweeps a family of equally good optima
        for p in report.distinct_optima:
            assert lambda_objective(p) == pytest.approx(0.75, abs=1e-6)

    def test_report_invariants(self):
        report = maximize_lambda(1.1, OptimizerConfig(seed=3))
        assert report.residual_max < 1e-9
        assert report.lambda_max == pytest.approx(
            lambda_objective(report.best_params), abs=1e-12
        )
        assert 1 <= report.starts_converged <= 32

    def test_same_seed_bitwise_identical(self):
        cfg = OptimizerConfig(n_starts=16, seed=11)
        a = maximize_lambda(0.7, cfg)
        b = maximize_lambda(0.7, cfg)
        assert a.best_params == b.best_params
        assert a.lambda_max == b.lambda_max
        assert a.starts_converged == b.starts_converged
        assert a.residual_max == b.residual_max
        assert a.distinct_optima == b.distinct_optima

    def test_different_seeds_same_value(self):
        a = maximize_lambda(0.7, OptimizerConfig(seed=1))
        b = maximize_lambda(0.7, OptimizerConfig(seed=2))
        assert a.lambda_max == pytest.approx(b.lambda_max, abs=1e-9)

    def test_ties_go_to_the_first_converged_start(self):
        # at theta = 0 every start's objective is exactly 0
        report = maximize_lambda(0.0, OptimizerConfig(n_starts=8, seed=5))
        assert report.starts_converged == 8
        assert report.best_params == report.distinct_optima[0]

    def test_failure_when_no_start_can_converge(self, monkeypatch):
        monkeypatch.setattr(tol, "OPTIMIZER_MAX_ITERS", 0)
        with pytest.raises(OptimizationFailure, match="max_iters=0"):
            maximize_lambda(0.9, OptimizerConfig(n_starts=4, seed=5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(n_starts=0)


class TestUpperBound:
    def test_no_feasible_point_beats_sin_squared(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            theta = rng.uniform(0, math.pi / 2)
            p = random_feasible_params(theta, rng)
            assert lambda_objective(p) <= math.sin(theta) ** 2 + 1e-9
