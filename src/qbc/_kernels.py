"""The optimizer's gradient ascent over SO(3), on Python floats.

An optimizer point u = (u0, u1) holds the two rows of the cloning map in
sphere coordinates (x_i, y_i, sqrt(2)*b_i), which qbc.optimizer alone
defines (_orbit_vector and _clone_params). The isometry constraints
|u0| = |u1| = 1, dot(u0, u1) = cos(theta) define one SO(3) orbit,
{R [e1, cos(theta) e1 + sin(theta) e2]}, so the ascent moves a rotation R
and never leaves the set. The ascent holds v = u0 and d = u1 - u0 as local
floats and writes every product out with math.sin, math.cos, math.sqrt.

The objective is lambda = g^2 + q^2, the squared smallest eigenvalue of the
clone-marginal difference, with sd = d0 + d1 and

    g = v2 d0 + d2 (v0 + d0),
    q = sd (v0 + v1 + sd/2) + d2 (v2 + d2/2).

Both squared terms are products with d, never differences of nearly equal
terms, so lambda keeps its relative accuracy as theta (and with it d) goes
to 0. Rotating v and d by exp([h w]x) changes lambda at the rate
dot(omega, w), with the Riemannian gradient omega = v x G_v + d x G_d.
G_v is the Euclidean gradient in u0 with d held fixed, and is O(|d|^2);
G_d is the one in d with v held fixed, and is O(|d|). Both are formed from
g, q and sd without cancellation.

The step length uses the curvature at the optimum. There the Hessian of
lambda over rotations has eigenvalues {-8, -2, 0} sin^2(theta) at every
theta, the 0 along the circle of equally good maps. A fixed step length t
(in units of 1/sin^2(theta)) shrinks the gradient by max(|1 - 8t|, |1 - 2t|)
per step, at best 0.6 at t = 0.2, where a doubling ladder settles. The
two-point (Barzilai-Borwein) length adapts to both curvatures and takes
about half the iterations (Barzilai and Borwein, IMA J. Numer. Anal. 8,
1988; on manifolds, Iannazzo and Porcelli, IMA J. Numer. Anal. 38, 2018).
"""

import math
import sys

import numpy as np

from . import tolerances as tol


def ascend(rot, theta):
    """Riemannian gradient ascent over the rotation R from one start.

    The feasible point of R is u0 = v, u1 = v + d with v = R e1 and
    d = R (-2 sin^2(theta/2), sin(theta), 0). A step is
    R -> exp([p]x) R with p = t omega / sin^2(theta), and t is halved from
    its first trial until the Armijo test passes. The first iteration's
    first trial is OPTIMIZER_STEP_INIT. Later ones take the BB1 length
    t = -(s.s)/(s.y) sin^2(theta), from the last accepted p = s and the
    change y of omega over it, both in the fixed frame, capped at a rotation
    angle of pi; when s.y >= 0 there is no curvature to use, and the trial is
    twice the last accepted t. At the optimum the two curvatures of lambda
    are -8 and -2 sin^2(theta) (see the module docstring), and BB1 adapts to
    both where any fixed t cannot. The objective and its curvature both
    scale with sin^2(theta), so t and the certificate are free of theta.

    One loop on local floats. The gradient block forms G_v, G_d and omega
    from the g, q and sd of the current point. Each line-search trial sets
    up the Rodrigues rotation (axis k, cos, sin and 2 sin^2(angle/2)) once,
    applies it to both v and d, and forms sd, g, q and lambda at the
    rotated point; an accepted trial hands them on to the next gradient.

    Returns (point, objective, |omega|, iterations, converged), point being
    the 6-tuple (u0, u1). Converged means |omega| <= OPTIMIZER_GRAD_TOL *
    sin^2(theta), within OPTIMIZER_MAX_ITERS steps. When sin^2(theta) is zero
    or subnormal the objective carries no relative information, so the start
    counts as converged at once, as at theta = 0 where it is identically zero.
    """
    c2 = math.sin(theta)
    h = math.sin(0.5 * theta)
    c1 = -2.0 * (h * h)
    s2 = c2 * c2
    degenerate = s2 < sys.float_info.min
    grad_tol = tol.OPTIMIZER_GRAD_TOL
    max_iters = tol.OPTIMIZER_MAX_ITERS
    (v0, r01, _), (v1, r11, _), (v2, r21, _) = rot.tolist()
    d0, d1, d2 = c1 * v0 + c2 * r01, c1 * v1 + c2 * r11, c1 * v2 + c2 * r21
    s0 = v0 + v1
    sd = d0 + d1
    w0 = v0 + d0
    g = v2 * d0 + d2 * w0
    q = sd * (s0 + 0.5 * sd) + d2 * (v2 + 0.5 * d2)
    lam = g * g + q * q
    step_try = tol.OPTIMIZER_STEP_INIT
    it = 0
    while True:
        s1 = s0 + sd
        w2 = v2 + d2
        gv0 = 2.0 * (g * d2 + q * sd)
        gv1 = 2.0 * q * sd
        gv2 = 2.0 * (g * d0 + q * d2)
        gd0 = 2.0 * (g * w2 + q * s1)
        gd1 = 2.0 * q * s1
        gd2 = 2.0 * (g * w0 + q * w2)
        o0 = v1 * gv2 - v2 * gv1 + d1 * gd2 - d2 * gd1
        o1 = v2 * gv0 - v0 * gv2 + d2 * gd0 - d0 * gd2
        o2 = v0 * gv1 - v1 * gv0 + d0 * gd1 - d1 * gd0
        # hypot, and gnorm * (gnorm / s2) below: |omega| ~ sin^2(theta), and
        # its square underflows once theta is below about 1e-77
        gnorm = math.hypot(o0, o1, o2)
        if degenerate or gnorm <= grad_tol * s2 or it == max_iters:
            break
        step = step_try
        if it:
            # BB1 from the last step p and the change of omega over it, capped
            # at a rotation angle of pi
            sy = p0 * (o0 - ol0) + p1 * (o1 - ol1) + p2 * (o2 - ol2)
            if sy < 0.0:
                step = min((p0 * p0 + p1 * p1 + p2 * p2) / -sy * s2, math.pi * s2 / gnorm)
        while step > 1e-12:
            scale = step / s2
            p0, p1, p2 = o0 * scale, o1 * scale, o2 * scale
            angle = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2)
            if angle == 0.0:
                # the point does not move, so lambda cannot pass the test
                step *= 0.5
                continue
            k0 = p0 / angle
            k1 = p1 / angle
            k2 = p2 / angle
            c = math.cos(angle)
            s = math.sin(angle)
            sh = math.sin(0.5 * angle)
            t = 2.0 * sh * sh
            kv = (k0 * v0 + k1 * v1 + k2 * v2) * t
            kd = (k0 * d0 + k1 * d1 + k2 * d2) * t
            x0 = v0 * c + (k1 * v2 - k2 * v1) * s + k0 * kv
            x1 = v1 * c + (k2 * v0 - k0 * v2) * s + k1 * kv
            x2 = v2 * c + (k0 * v1 - k1 * v0) * s + k2 * kv
            y0 = d0 * c + (k1 * d2 - k2 * d1) * s + k0 * kd
            y1 = d1 * c + (k2 * d0 - k0 * d2) * s + k1 * kd
            y2 = d2 * c + (k0 * d1 - k1 * d0) * s + k2 * kd
            s0_c = x0 + x1
            sd_c = y0 + y1
            w0_c = x0 + y0
            g_c = x2 * y0 + y2 * w0_c
            q_c = sd_c * (s0_c + 0.5 * sd_c) + y2 * (x2 + 0.5 * y2)
            lam_c = g_c * g_c + q_c * q_c
            if lam_c > lam + 1e-4 * step * gnorm * (gnorm / s2):
                v0, v1, v2, d0, d1, d2 = x0, x1, x2, y0, y1, y2
                s0, sd, w0, g, q, lam = s0_c, sd_c, w0_c, g_c, q_c, lam_c
                break
            step *= 0.5
        else:
            # no step increases the objective: its rounding floor
            break
        step_try = 2.0 * step
        ol0, ol1, ol2 = o0, o1, o2
        it += 1
    point = (v0, v1, v2, v0 + d0, v1 + d1, v2 + d2)
    return point, lam, gnorm, it, degenerate or gnorm <= grad_tol * s2


def run_starts(starts, theta):
    """Ascend from every start rotation. Serial, order-independent per start.

    Returns ndarrays: points (n, 6), objectives, |omega|, int64 iterations
    and bool convergence flags.
    """
    columns = zip(*(ascend(rot, theta) for rot in starts))
    dtypes = (np.float64, np.float64, np.float64, np.int64, np.bool_)
    return tuple(np.array(col, dtype=t) for col, t in zip(columns, dtypes))
