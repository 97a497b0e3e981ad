"""The optimizer's gradient ascent over SO(3), on Python float tuples.

An optimizer point u = (u0, u1) holds the two rows of the cloning map in
sphere coordinates (x_i, y_i, sqrt(2)*b_i). The isometry constraints
|u0| = |u1| = 1, dot(u0, u1) = cos(theta) define one SO(3) orbit,
{R [e1, cos(theta) e1 + sin(theta) e2]}, so the ascent moves a rotation R
and never leaves the set. The ascent holds v = u0 and d = u1 - u0 as
3-tuples and writes every product out with math.sin, math.cos, math.sqrt.
"""

import math
import sys

import numpy as np

from . import tolerances as tol


def clone_lambda(v, d):
    """Distinguishability objective at the point u0 = v, u1 = v + d.

    Equals the squared smallest eigenvalue of the clone-marginal difference.
    Both squared terms are written as products with d, never as differences
    of nearly equal terms, so the value keeps its relative accuracy as the
    overlap angle (and with it d) goes to 0.
    """
    v0, v1, v2 = v
    d0, d1, d2 = d
    sd = d0 + d1
    g = v2 * d0 + d2 * (v0 + d0)
    q = sd * (v0 + v1 + 0.5 * sd) + d2 * (v2 + 0.5 * d2)
    return g * g + q * q


def rotation_grad(v, d):
    """Riemannian gradient omega of clone_lambda over the rotation.

    Rotating both v and d by exp([h w]x) changes clone_lambda at the rate
    dot(omega, w). With Euclidean gradients g0, g1 in u0, u1,
    omega = u0 x g0 + u1 x g1 = v x G_v + d x G_d, where G_v (d fixed) is
    O(|d|^2) and G_d is O(|d|); both are formed without cancellation.
    """
    v0, v1, v2 = v
    d0, d1, d2 = d
    s0 = v0 + v1
    sd = d0 + d1
    s1 = s0 + sd
    w0 = v0 + d0
    w2 = v2 + d2
    g = v2 * d0 + d2 * w0
    q = sd * (s0 + 0.5 * sd) + d2 * (v2 + 0.5 * d2)
    gv0 = 2.0 * (g * d2 + q * sd)
    gv1 = 2.0 * q * sd
    gv2 = 2.0 * (g * d0 + q * d2)
    gd0 = 2.0 * (g * w2 + q * s1)
    gd1 = 2.0 * q * s1
    gd2 = 2.0 * (g * w0 + q * w2)
    return (
        v1 * gv2 - v2 * gv1 + d1 * gd2 - d2 * gd1,
        v2 * gv0 - v0 * gv2 + d2 * gd0 - d0 * gd2,
        v0 * gv1 - v1 * gv0 + d0 * gd1 - d1 * gd0,
    )


def rotate(x, phi):
    """exp([phi]x) x by Rodrigues' formula, for a rotation vector phi."""
    x0, x1, x2 = x
    p0, p1, p2 = phi
    angle = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2)
    if angle == 0.0:
        return (x0, x1, x2)
    k0 = p0 / angle
    k1 = p1 / angle
    k2 = p2 / angle
    c = math.cos(angle)
    s = math.sin(angle)
    h = math.sin(0.5 * angle)
    kdx = (k0 * x0 + k1 * x1 + k2 * x2) * (2.0 * h * h)
    return (
        x0 * c + (k1 * x2 - k2 * x1) * s + k0 * kdx,
        x1 * c + (k2 * x0 - k0 * x2) * s + k1 * kdx,
        x2 * c + (k0 * x1 - k1 * x0) * s + k2 * kdx,
    )


def ascend(rot, theta):
    """Riemannian gradient ascent over the rotation R from one start.

    The feasible point of R is u0 = v, u1 = v + d with v = R e1 and
    d = R (-2 sin^2(theta/2), sin(theta), 0). A step is
    R -> exp([t omega / sin^2(theta)]x) R; t starts from a warm ladder
    (doubled after each accepted step, from OPTIMIZER_STEP_INIT) and is
    halved until the Armijo test passes. The objective and its curvature
    both scale with sin^2(theta), so t and the certificate are free of theta.

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
    (r00, r01, _), (r10, r11, _), (r20, r21, _) = rot.tolist()
    v = (r00, r10, r20)
    d = (c1 * r00 + c2 * r01, c1 * r10 + c2 * r11, c1 * r20 + c2 * r21)
    lam = clone_lambda(v, d)
    step_try = tol.OPTIMIZER_STEP_INIT
    it = 0
    while True:
        o0, o1, o2 = rotation_grad(v, d)
        # hypot, and gnorm * (gnorm / s2) below: |omega| ~ sin^2(theta), and
        # its square underflows once theta is below about 1e-77
        gnorm = math.hypot(o0, o1, o2)
        if degenerate or gnorm <= grad_tol * s2 or it == max_iters:
            break
        step = step_try
        while step > 1e-12:
            scale = step / s2
            phi = (o0 * scale, o1 * scale, o2 * scale)
            v_c = rotate(v, phi)
            d_c = rotate(d, phi)
            lam_c = clone_lambda(v_c, d_c)
            if lam_c > lam + 1e-4 * step * gnorm * (gnorm / s2):
                v, d, lam = v_c, d_c, lam_c
                break
            step *= 0.5
        else:
            # no step increases the objective: its rounding floor
            break
        step_try = 2.0 * step
        it += 1
    point = v + tuple(vi + di for vi, di in zip(v, d))
    return point, lam, gnorm, it, degenerate or gnorm <= grad_tol * s2


def run_starts(starts, theta):
    """Ascend from every start rotation. Serial, order-independent per start.

    Returns ndarrays: points (n, 6), objectives, |omega|, int64 iterations
    and bool convergence flags.
    """
    columns = zip(*(ascend(rot, theta) for rot in starts))
    dtypes = (np.float64, np.float64, np.float64, np.int64, np.bool_)
    return tuple(np.array(col, dtype=t) for col, t in zip(columns, dtypes))
