"""The optimizer's gradient ascent on the sphere S^2, on Python floats.

An optimizer point u = (u0, u1) holds the two rows of the cloning map in
sphere coordinates (x_i, y_i, sqrt(2)*b_i), which qbc.optimizer alone
defines. The isometry constraints |u0| = |u1| = 1, dot(u0, u1) =
cos(theta) define one SO(3) orbit, {R [e1, cos(theta) e1 + sin(theta) e2]}.
On it the objective, the squared smallest eigenvalue of the clone-marginal
difference, is lambda = |x0 (y0, z0) - x1 (y1, z1)|^2. Rotating both rows
about the x axis leaves it unchanged, so lambda depends on R only through
its first row n = R^T e1, a unit vector, and the ascent moves n on S^2
(the quotient of SO(3) by that circle; Absil, Mahony and Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008, ch. 3).

With h = sin(theta/2), delta = (-2 h^2, sin(theta), 0), x0 = n0,
e = dot(n, delta), x1 = x0 + e and S = x0 + x1,

    lambda(n) = e^2 (1 - S^2) + 4 h^2 x0 x1.

Its Euclidean gradient is 4 S (h^2 - e^2) e1 + (2 e (1 - S^2) - 2 e^2 S +
4 h^2 x0) delta, and the Riemannian gradient is that projected onto the
tangent plane at n. Every term is a product with e or h, so lambda and its
gradient keep their accuracy relative to sin^2(theta) as theta goes to 0.
Geometrically, lambda is the squared part orthogonal to n of
x0 e1 - x1 (cos(theta), sin(theta), 0), a vector of length
|n_par| sin(theta), where n_par = (n0, n1, 0). So lambda <= |n_par|^2
sin^2(theta) <= sin^2(theta), and the maximizers are the four points
+-(cos(theta/2), sin(theta/2), 0) and +-(sin(theta/2), -cos(theta/2), 0).
Above each lies a circle of rotations, that is, of equally good cloning
maps.

The step length uses the curvature at the optimum. There the Hessian of
lambda on S^2 has eigenvalues {-8, -2} sin^2(theta) at every theta. A
fixed step length t (in units of 1/sin^2(theta)) shrinks the gradient by
max(|1 - 8t|, |1 - 2t|) per step, at best 0.6 at t = 0.2, where a doubling
ladder settles. The two-point (Barzilai-Borwein) length adapts to both
curvatures and takes about half the iterations (Barzilai and Borwein, IMA
J. Numer. Anal. 8, 1988; on manifolds, Iannazzo and Porcelli, IMA J.
Numer. Anal. 38, 2018).
"""

import math
import sys

import numpy as np

from . import tolerances as tol


def ascend(start, theta):
    """Riemannian gradient ascent on S^2 from the direction of start.

    start is a nonzero 3-vector of floats; the ascent begins at its unit
    vector n. A step moves n along the great circle through the gradient
    grad, n -> n cos(a) + (grad/|grad|) sin(a) with a = t |grad| /
    sin^2(theta), and t is halved from its first trial until the Armijo
    test passes. The first iteration's first trial is OPTIMIZER_STEP_INIT.
    Later ones take the BB1 length t = -(s.s)/(s.y) sin^2(theta), from the
    last accepted step s = t grad / sin^2(theta) and the change y of grad
    over it, both as vectors in R^3, capped at a step angle of pi; when
    s.y >= 0 there is no curvature to use, and the trial is twice the last
    accepted t. The objective and its curvature both scale with
    sin^2(theta), so t and the certificate are free of theta.

    Returns (n, objective, |grad|, iterations, converged), n being the end
    point as 3 floats. Converged means |grad| <= OPTIMIZER_GRAD_TOL *
    sin^2(theta), within OPTIMIZER_MAX_ITERS steps. When sin^2(theta) is zero
    or subnormal the objective carries no relative information, so the start
    counts as converged at once, as at theta = 0 where it is identically zero.
    """
    c2 = math.sin(theta)
    h = math.sin(0.5 * theta)
    hh = h * h
    c1 = -2.0 * hh
    s2 = c2 * c2
    degenerate = s2 < sys.float_info.min
    grad_tol = tol.OPTIMIZER_GRAD_TOL
    max_iters = tol.OPTIMIZER_MAX_ITERS
    n0, n1, n2 = start
    r = math.hypot(n0, n1, n2)
    n0, n1, n2 = n0 / r, n1 / r, n2 / r
    e = c1 * n0 + c2 * n1
    sm = n0 + n0 + e
    lam = e * e * (1.0 - sm * sm) + 4.0 * hh * n0 * (n0 + e)
    step_try = tol.OPTIMIZER_STEP_INIT
    it = 0
    while True:
        ge = 2.0 * e * (1.0 - sm * sm) - 2.0 * e * e * sm + 4.0 * hh * n0
        g0 = 4.0 * sm * (hh - e * e) + ge * c1
        g1 = ge * c2
        gn = g0 * n0 + g1 * n1
        g0, g1, g2 = g0 - gn * n0, g1 - gn * n1, -gn * n2
        # hypot, and gnorm * (gnorm / s2) below: |grad| ~ sin^2(theta), and
        # its square underflows once theta is below about 1e-77
        gnorm = math.hypot(g0, g1, g2)
        if degenerate or gnorm <= grad_tol * s2 or it == max_iters:
            break
        step = step_try
        if it:
            # BB1 from the last step p and the change of grad over it, capped
            # at a step angle of pi
            sy = p0 * (g0 - gl0) + p1 * (g1 - gl1) + p2 * (g2 - gl2)
            if sy < 0.0:
                step = min((p0 * p0 + p1 * p1 + p2 * p2) / -sy * s2, math.pi * s2 / gnorm)
        while step > 1e-12:
            angle = step * (gnorm / s2)
            c = math.cos(angle)
            s = math.sin(angle) / gnorm
            x0, x1, x2 = n0 * c + g0 * s, n1 * c + g1 * s, n2 * c + g2 * s
            e_c = c1 * x0 + c2 * x1
            sm_c = x0 + x0 + e_c
            lam_c = e_c * e_c * (1.0 - sm_c * sm_c) + 4.0 * hh * x0 * (x0 + e_c)
            if lam_c > lam + 1e-4 * step * gnorm * (gnorm / s2):
                n0, n1, n2, e, sm, lam = x0, x1, x2, e_c, sm_c, lam_c
                break
            step *= 0.5
        else:
            # no step increases the objective: its rounding floor
            break
        scale = step / s2
        p0, p1, p2 = g0 * scale, g1 * scale, g2 * scale
        step_try = 2.0 * step
        gl0, gl1, gl2 = g0, g1, g2
        it += 1
    return (n0, n1, n2), lam, gnorm, it, degenerate or gnorm <= grad_tol * s2


def run_starts(starts, theta):
    """Ascend from every start direction, the rows of an (n, 3) array.

    Serial, order-independent per start. Returns ndarrays: points (n, 3),
    objectives, |grad|, int64 iterations and bool convergence flags.
    """
    columns = zip(*(ascend(n, theta) for n in starts.tolist()))
    dtypes = (np.float64, np.float64, np.float64, np.int64, np.bool_)
    return tuple(np.array(col, dtype=t) for col, t in zip(columns, dtypes))
