"""Multi-start re-derivation of the cloning optimum."""

import hashlib
import math
import random

import numpy as np
import pytest

from qbc import tolerances as tol
from qbc._kernels import ascend
from qbc.cloner import (
    CloneParams,
    constraint_residuals,
    lambda_objective,
    optimal_params,
)
from qbc.errors import OptimizationFailure
from qbc.optimizer import (
    OptimizerConfig,
    _ascents,
    _clone_params,
    _direction_params,
    maximize_lambda,
    random_feasible_params,
)


def _orbit_point(p):
    """The rows u0, u1 of the orbit point of p, u_i = ((a+d)/sqrt2, (a-d)/sqrt2, sqrt2 b)."""
    r = math.sqrt(2.0)
    return [((a + d) / r, (a - d) / r, r * b) for a, b, d in ((p.a0, p.b0, p.d0), (p.a1, p.b1, p.d1))]


class TestRandomFeasibleParams:
    def test_fields_are_python_floats(self):
        p = random_feasible_params(0.6, np.random.default_rng(3))
        assert all(type(v) is float for v in vars(p).values()), p

    def test_random_projections_feasible(self):
        rng = np.random.default_rng(41)
        thetas = [0.0, math.pi / 2] + [rng.uniform(0, math.pi / 2) for _ in range(300)]
        for theta in thetas:
            p = random_feasible_params(theta, rng)
            assert np.max(np.abs(constraint_residuals(p, theta))) < 1e-12
        # the parallel target is met exactly: both rows coincide
        p = random_feasible_params(0.0, rng)
        assert (p.a0, p.b0, p.c0, p.d0) == (p.a1, p.b1, p.c1, p.d1)

    def test_rotation_is_haar(self):
        """At theta = pi/2 the rows are R e1 and R e2; their moments are those of Haar R.

        For R uniform on SO(3), E[R e1] = E[R e2] = 0, E[R e1 (R e1)^T] =
        E[R e2 (R e2)^T] = I/3 and E[R e1 (R e2)^T] = 0. The bounds are about
        5 standard errors of the 20 000-draw sample means.
        """
        rng = np.random.default_rng(59)
        rows = np.array([_orbit_point(random_feasible_params(math.pi / 2, rng)) for _ in range(20000)])
        v, b = rows[:, 0], rows[:, 1]
        n = len(rows)
        for col in (v, b):
            assert np.max(np.abs(col.mean(axis=0))) < 0.02
            assert np.max(np.abs(col.T @ col / n - np.eye(3) / 3)) < 0.012
        assert np.max(np.abs(v.T @ b / n)) < 0.012

    def test_sampler_and_optimizer_run_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg was called")

        for name in ("svd", "det", "eigh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        rng = np.random.default_rng(61)
        for theta in (0.0, 0.7, math.pi / 2):
            p = random_feasible_params(theta, rng)
            assert np.max(np.abs(constraint_residuals(p, theta))) < 1e-12
            report = maximize_lambda(theta, OptimizerConfig(n_starts=8, seed=5))
            assert report.lambda_max == pytest.approx(math.sin(theta) ** 2, rel=1e-9, abs=1e-300)


def _rotate(x, phi):
    """exp([phi]x) x by Rodrigues' formula, for a nonzero rotation vector phi."""
    angle = math.sqrt(sum(p * p for p in phi))
    k = [p / angle for p in phi]
    kx = sum(ki * xi for ki, xi in zip(k, x)) * (2.0 * math.sin(0.5 * angle) ** 2)
    kcx = np.cross(k, x)
    return tuple(xi * math.cos(angle) + ci * math.sin(angle) + ki * kx for xi, ci, ki in zip(x, kcx, k))


def _quaternion_rotation(w, x, y, z):
    """The rotation matrix of the quaternion (w, x, y, z), normalized first."""
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _orbit_rows(rot, theta):
    """v = R e1 and d = R (cos(theta) - 1, sin(theta), 0): the point u0 = v, u1 = v + d."""
    c1, c2 = -2.0 * math.sin(theta / 2) ** 2, math.sin(theta)
    v = tuple(rot[:, 0].tolist())
    return v, tuple(c1 * vi + c2 * bi for vi, bi in zip(v, rot[:, 1].tolist()))


def _lambda(v, d):
    """The objective at u0 = v, u1 = v + d, with both squares products with d."""
    v0, v1, v2 = v
    d0, d1, d2 = d
    sd = d0 + d1
    g = v2 * d0 + d2 * (v0 + d0)
    q = sd * (v0 + v1 + 0.5 * sd) + d2 * (v2 + 0.5 * d2)
    return g * g + q * q


def _omega_norm(v, d):
    """|omega|, the objective's gradient over rotations exp([w]x) of both rows.

    omega = v x G_v + d x G_d, with G_v the Euclidean gradient of _lambda in
    v at fixed d and G_d the one in d at fixed v.
    """
    v0, v1, v2 = v
    d0, d1, d2 = d
    s0, sd, w0, w2 = v0 + v1, d0 + d1, v0 + d0, v2 + d2
    g = v2 * d0 + d2 * w0
    q = sd * (s0 + 0.5 * sd) + d2 * (v2 + 0.5 * d2)
    s1 = s0 + sd
    gv = (2.0 * (g * d2 + q * sd), 2.0 * q * sd, 2.0 * (g * d0 + q * d2))
    gd = (2.0 * (g * w2 + q * s1), 2.0 * q * s1, 2.0 * (g * w0 + q * w2))
    omega = np.cross(v, gv) + np.cross(d, gd)
    return math.hypot(*omega.tolist())


class TestReduction:
    """The objective depends on the rotation R only through n = R^T e1."""

    def test_lambda_is_invariant_under_rotation_about_x(self):
        """Rotating both rows' (y, z) parts by one angle leaves lambda unchanged."""
        rng = np.random.default_rng(53)
        for _ in range(500):
            theta = rng.uniform(0.1, math.pi / 2)
            p = random_feasible_params(theta, rng)
            beta = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(beta), math.sin(beta)
            rows = [(x, c * y - s * z, s * y + c * z) for x, y, z in _orbit_point(p)]
            q = _clone_params((*rows[0], *rows[1]))
            assert lambda_objective(q) == pytest.approx(lambda_objective(p), rel=1e-12), (theta, beta)

    def test_start_matches_the_rotation_form(self, monkeypatch):
        """lambda and |grad| at the start equal g^2 + q^2 and |omega| over SO(3).

        omega is orthogonal to e1, the axis that leaves lambda unchanged, and
        a rotation exp([h w]x) R with w orthogonal to e1 moves n = R^T e1 along
        a great circle at speed |w|. So |omega| = |grad| at n = R^T e1.
        """
        monkeypatch.setattr(tol, "OPTIMIZER_MAX_ITERS", 0)
        rng = random.Random(44)
        for theta in [1e-8 * (math.pi / 2e-8) ** (k / 24) for k in range(25)]:
            s2 = math.sin(theta) ** 2
            for _ in range(40):
                rot = _quaternion_rotation(*(rng.gauss(0, 1) for _ in range(4)))
                v, d = _orbit_rows(rot, theta)
                _, lam, gnorm, iters, _ = ascend(rot[0].tolist(), theta)
                assert iters == 0
                assert abs(lam - _lambda(v, d)) <= 1e-14 * s2, theta
                assert abs(gnorm - _omega_norm(v, d)) <= 1e-14 * s2, theta


class TestGradient:
    def test_matches_central_differences(self, monkeypatch):
        """grad against derivatives of lambda along great circles of S^2.

        ascend reports lambda and |grad| at its start when capped at 0
        steps. Capped at 1, its one step moves n along the great circle
        through grad, so the step's part orthogonal to n is grad's direction.
        lambda along a tangent t at n = R^T e1 comes from the rotation form:
        exp([h w]x) R with w = (R t) x e1 has first row n cos(h) + t sin(h).
        """
        rng = np.random.default_rng(43)
        h = 1e-5
        for _ in range(100):
            theta = math.exp(rng.uniform(math.log(1e-6), math.log(math.pi / 2)))
            rot = _quaternion_rotation(*rng.standard_normal(4).tolist())
            n = rot[0]
            v, d = _orbit_rows(rot, theta)
            monkeypatch.setattr(tol, "OPTIMIZER_MAX_ITERS", 0)
            _, lam, gnorm, _, _ = ascend(n.tolist(), theta)
            monkeypatch.setattr(tol, "OPTIMIZER_MAX_ITERS", 1)
            point, _, _, iters, _ = ascend(n.tolist(), theta)
            assert iters == 1
            # the cancellation-free objective against the coefficient form
            w = tuple(vi + di for vi, di in zip(v, d))
            assert _lambda(v, d) == pytest.approx(lam, rel=1e-12)
            assert lam == pytest.approx(lambda_objective(_clone_params((*v, *w))), rel=1e-8)
            axis = np.array(point) - np.dot(point, n) * n
            axis /= np.linalg.norm(axis)
            grad = gnorm * axis
            s2 = math.sin(theta) ** 2
            for t in (rot[1], rot[2], axis):
                w = tuple(np.cross(rot @ t, (1.0, 0.0, 0.0)))
                up = _lambda(_rotate(v, tuple(h * wi for wi in w)), _rotate(d, tuple(h * wi for wi in w)))
                dn = _lambda(_rotate(v, tuple(-h * wi for wi in w)), _rotate(d, tuple(-h * wi for wi in w)))
                fd = (up - dn) / (2 * h)
                assert np.dot(grad, t) == pytest.approx(fd, abs=1e-8 * s2)


def _maximizers(theta):
    """The four maximizers of lambda on S^2."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return ((c, s, 0.0), (-c, -s, 0.0), (s, -c, 0.0), (-s, c, 0.0))


def _frame(n):
    """A rotation whose first row is the unit vector n."""
    q = np.cross(n, (0.0, 0.0, 1.0) if abs(n[2]) < 0.9 else (1.0, 0.0, 0.0))
    q /= np.linalg.norm(q)
    return np.array([n, q, np.cross(n, q)])


def _near(m, angle, rng):
    """A point at the given angle from the unit vector m, in a random direction."""
    rot = _frame(np.array(m))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return (math.cos(angle) * rot[0] + math.sin(angle) * (math.cos(phi) * rot[1] + math.sin(phi) * rot[2])).tolist()


class TestNewtonStep:
    THETAS = (1e-6, math.pi / 48, 0.8, math.pi / 2)

    def test_converges_in_four_iterations_near_each_maximizer(self):
        """Within 1e-2 rad of a maximizer the ascent converges quadratically."""
        rng = np.random.default_rng(71)
        for theta in self.THETAS:
            for m in _maximizers(theta):
                for _ in range(8):
                    _, _, _, it, converged = ascend(_near(m, rng.uniform(0.005, 0.01), rng), theta)
                    assert converged, (theta, m)
                    assert it <= 4, (theta, m, it)

    def test_second_step_is_minus_inverse_hessian_times_grad(self, monkeypatch):
        """Capped at 2, the second step's tangent vector is xi = -H^-1 grad.

        grad and the Riemannian Hessian H at the first step's end point p
        are central differences of lambda(Exp_p(x t1 + y t2)), with t1, t2
        an orthonormal tangent basis at p. By the rotation form, Exp_p(xi)
        is the first row of exp([w]x) R for w = (R xi) x e1, where R is a
        rotation whose first row is p. The step's own tangent vector is
        the log of its end point at p.
        """
        rng = np.random.default_rng(73)
        h = 1e-4
        e1 = (1.0, 0.0, 0.0)
        for theta in self.THETAS:
            for m in _maximizers(theta):
                for _ in range(4):
                    start = _near(m, rng.uniform(0.05, 0.2), rng)
                    monkeypatch.setattr(tol, "OPTIMIZER_MAX_ITERS", 1)
                    p, _, _, _, _ = ascend(start, theta)
                    monkeypatch.setattr(tol, "OPTIMIZER_MAX_ITERS", 2)
                    q, _, _, iters, _ = ascend(start, theta)
                    assert iters == 2
                    p, q = np.array(p), np.array(q)
                    rot = _frame(p)
                    v, d = _orbit_rows(rot, theta)

                    def lam(x, y):
                        if x == y == 0.0:
                            return _lambda(v, d)
                        w = tuple(np.cross(rot @ (x * rot[1] + y * rot[2]), e1).tolist())
                        return _lambda(_rotate(v, w), _rotate(d, w))

                    f0 = lam(0.0, 0.0)
                    fx, fy = lam(h, 0.0), lam(0.0, h)
                    bx, by = lam(-h, 0.0), lam(0.0, -h)
                    grad = np.array([fx - bx, fy - by]) / (2 * h)
                    hxy = (lam(h, h) - lam(h, -h) - lam(-h, h) + lam(-h, -h)) / (4 * h * h)
                    hess = np.array([[fx - 2 * f0 + bx, 0.0], [0.0, fy - 2 * f0 + by]]) / (h * h)
                    hess[0, 1] = hess[1, 0] = hxy
                    det = hess[0, 0] * hess[1, 1] - hxy * hxy
                    xi_fd = -np.array([hess[1, 1] * grad[0] - hxy * grad[1], hess[0, 0] * grad[1] - hxy * grad[0]]) / det
                    cq = float(np.dot(p, q))
                    perp = q - cq * p
                    xi = math.atan2(np.linalg.norm(perp), cq) * perp / np.linalg.norm(perp)
                    xi_step = np.array([np.dot(xi, rot[1]), np.dot(xi, rot[2])])
                    assert np.max(np.abs(xi_step - xi_fd)) <= 1e-6 * np.linalg.norm(xi_fd), (theta, m)


def _golden_starts():
    """(theta, start) pairs: 32 quaternion starts at each of 12 angles.

    Each start is the first row of a quaternion rotation, built without
    LAPACK, at angles from theta = 0 through tiny theta (sin^2 down to
    1e-300) to pi/2.
    """
    rng = random.Random(2026)
    thetas = (0.0, 1e-150, 1e-80, 1e-8, 1e-6, 1e-3, math.pi / 48, 0.3, 0.8, 1.2, math.pi / 2 - 1e-9, math.pi / 2)
    for theta in thetas:
        for _ in range(32):
            yield theta, _quaternion_rotation(*(rng.gauss(0, 1) for _ in range(4)))[0].tolist()


def test_ascent_golden_digest():
    """The ascent's end points, objectives, gradients and counts, bit for bit."""
    digest = hashlib.sha1()
    for theta, start in _golden_starts():
        digest.update(repr(ascend(start, theta)).encode())
    assert digest.hexdigest()[:12] == "5ac9135b6ec0"


def test_ascent_iteration_count():
    """Newton steps take a few iterations per start where gradient steps take tens.

    At the optimum the curvatures are -8 and -2 sin^2(theta), so no fixed
    step shrinks |grad| by more than 0.6 per iteration, and a doubling
    ladder alone takes about 30 iterations per start here. Near the optimum
    the tangent Hessian is negative definite, and Newton's step converges
    quadratically from there.
    """
    iters = []
    for theta, start in _golden_starts():
        _, _, _, it, converged = ascend(start, theta)
        assert converged, theta
        if theta > 0.0:
            iters.append(it)
    assert len(iters) == 11 * 32
    assert sum(iters) / len(iters) <= 8.0
    assert max(iters) <= 15


def test_ascent_at_theta_zero_reaches_a_maximizer():
    """At theta = 0 the ascent runs on g = n0^2 + n1^2 - 4 n0^2 n1^2 and ends at +-e1 or +-e2."""
    for theta, start in _golden_starts():
        if theta == 0.0:
            n, lam, _, _, converged = ascend(start, theta)
            assert converged and lam == 0.0
            assert min(math.dist(n, m) for m in _maximizers(0.0)) <= 1e-6, (start, n)


def test_ascent_is_monotone_in_the_iteration_cap(monkeypatch):
    """Capped at k steps, the ascent returns a lambda nondecreasing in k."""
    rng = random.Random(48)
    for theta in (1e-6, math.pi / 48, 0.8, math.pi / 2):
        for _ in range(16):
            start = _quaternion_rotation(*(rng.gauss(0, 1) for _ in range(4)))[0].tolist()
            last = -math.inf
            for k in range(26):
                monkeypatch.setattr(tol, "OPTIMIZER_MAX_ITERS", k)
                _, lam, _, it, _ = ascend(start, theta)
                assert it <= k
                assert lam >= last, (theta, k)
                last = lam


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
        raw = np.random.default_rng(1).standard_normal((32, 3))
        for n, _, _, _, converged in _ascents(math.pi / 3, raw):
            if converged:
                assert lambda_objective(_direction_params(n, math.pi / 3)) == pytest.approx(0.75, abs=1e-6)

    def test_subnormal_reference(self):
        # sin^2(theta) = 1e-320 is subnormal; the ascent still runs to the optimum
        report = maximize_lambda(1e-160, OptimizerConfig(n_starts=8, seed=3))
        assert report.lambda_max == pytest.approx(math.sin(1e-160) ** 2, rel=1e-3, abs=0.0)

    def test_report_invariants(self):
        report = maximize_lambda(1.1, OptimizerConfig(seed=3))
        assert report.residual_max < 1e-9
        assert report.lambda_max == pytest.approx(
            lambda_objective(report.best_params), abs=1e-12
        )
        assert 1 <= report.starts_converged <= 32

    def test_same_seed_bitwise_identical(self):
        cfg = OptimizerConfig(n_starts=16, seed=11)
        assert maximize_lambda(0.7, cfg) == maximize_lambda(0.7, cfg)

    def test_different_seeds_same_value(self):
        a = maximize_lambda(0.7, OptimizerConfig(seed=1))
        b = maximize_lambda(0.7, OptimizerConfig(seed=2))
        assert a.lambda_max == pytest.approx(b.lambda_max, abs=1e-9)

    def test_ties_go_to_the_first_converged_start(self):
        # at theta = 0 every start's objective is exactly 0
        report = maximize_lambda(0.0, OptimizerConfig(n_starts=8, seed=5))
        assert report.starts_converged == 8
        first = _ascents(0.0, np.random.default_rng(5).standard_normal((8, 3)))[0]
        assert report.best_params == _direction_params(first[0], 0.0)

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
