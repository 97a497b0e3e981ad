"""The optimizer's ascent on the sphere S^2, by Newton and gradient steps, on Python floats.

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

The step uses the curvature. Write lambda = F(x0, e) with S = 2 x0 + e.
Its second derivatives are

    F_xx = 8 (h^2 - e^2),
    F_xe = 4 (h^2 - e^2) - 8 S e,
    F_ee = 2 (1 - S^2) - 8 S e - 2 e^2,

and with e = c1 n0 + c2 n1, (c1, c2) = (-2 h^2, sin(theta)), the Euclidean
Hessian of lambda is zero outside its (n0, n1) block, which is

    H00 = F_xx + 2 c1 F_xe + c1^2 F_ee,
    H01 = c2 (F_xe + c1 F_ee),
    H11 = c2^2 F_ee.

The Riemannian Hessian in a tangent basis t_i at n is t_i^T H t_j -
(n . grad_E lambda) delta_ij (Absil, Mahony and Sepulchre, ch. 5), and the
ascent keeps it divided by sin^2(theta), so its entries are O(1) at every
theta. At the optimum its eigenvalues are {-8, -2} sin^2(theta), where a
fixed gradient step t (in units of 1/sin^2(theta)) shrinks the gradient by
max(|1 - 8t|, |1 - 2t|) per step, at best 0.6 at t = 0.2. Where this 2x2
Hessian is negative definite, Newton's step -H^-1 grad converges
quadratically instead (ibid., ch. 6); elsewhere the ascent takes gradient
steps.
"""

import math
import sys

import numpy as np

from . import tolerances as tol


def ascend(start, theta):
    """Riemannian ascent on S^2 from the direction of start, by Newton and gradient steps.

    start is a nonzero 3-vector of floats; the ascent begins at its unit
    vector n. Every step moves n along a great circle, n -> n cos(a) +
    (xi/|xi|) sin(a) with a = |xi| for a tangent vector xi.

    From the second iteration on, the step first tries Newton's xi =
    -H^-1 grad, with H the 2x2 Riemannian Hessian in the tangent basis
    a = grad/|grad|, b = n x a (see the module docstring). It is tried only
    when H is negative definite and |xi| <= pi, and accepted when it passes
    the Armijo test lambda_new >= lambda + 1e-4 grad.xi. Otherwise the
    step is a gradient step, xi = t grad / sin^2(theta), with t halved from
    its first trial until the Armijo test passes: OPTIMIZER_STEP_INIT on the
    first iteration, after that twice the last accepted gradient t. The
    objective, its gradient and H all scale with sin^2(theta), so H is kept
    divided by it, and t and the certificate are free of theta.

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
        # the tangent basis a = grad/|grad|, b = n x a
        a0, a1, a2 = g0 / gnorm, g1 / gnorm, g2 / gnorm
        b0, b1, b2 = n1 * a2 - n2 * a1, n2 * a0 - n0 * a2, n0 * a1 - n1 * a0
        newton = False
        if it:
            # the Euclidean Hessian's (n0, n1) block over sin^2(theta), with
            # c2^2 = s2 and c2/s2 = 1/c2 cancelled
            d = hh - e * e
            fxe = 4.0 * d - 8.0 * sm * e
            fee = 2.0 * (1.0 - sm * sm) - 8.0 * sm * e - 2.0 * e * e
            h00 = (8.0 * d + c1 * (fxe + fxe + c1 * fee)) / s2
            h01 = (fxe + c1 * fee) / c2
            curv = gn / s2
            haa = a0 * (a0 * h00 + 2.0 * a1 * h01) + a1 * a1 * fee - curv
            hab = a0 * b0 * h00 + (a0 * b1 + a1 * b0) * h01 + a1 * b1 * fee
            hbb = b0 * (b0 * h00 + 2.0 * b1 * h01) + b1 * b1 * fee - curv
            det = haa * hbb - hab * hab
            if haa < 0.0 and det > 0.0:
                # xi = -H^-1 (|grad|/s2, 0) in the basis (a, b)
                w = gnorm / s2 / det
                xa, xb = -w * hbb, w * hab
                angle = math.hypot(xa, xb)
                newton = angle <= math.pi
        # the trial xi = (xa, xb) in the basis (a, b), moved by angle |xi|:
        # Newton's first, if any, then gradient steps (t |grad|/s2, 0) with t
        # halved down to the floor
        step = step_try
        while newton or step > 1e-12:
            if not newton:
                xa = angle = step * (gnorm / s2)
                xb = 0.0
            c = math.cos(angle)
            s = math.sin(angle) / angle
            ta, tb = xa * s, xb * s
            x0 = n0 * c + a0 * ta + b0 * tb
            x1 = n1 * c + a1 * ta + b1 * tb
            x2 = n2 * c + a2 * ta + b2 * tb
            e_c = c1 * x0 + c2 * x1
            sm_c = x0 + x0 + e_c
            lam_c = e_c * e_c * (1.0 - sm_c * sm_c) + 4.0 * hh * x0 * (x0 + e_c)
            armijo = lam + 1e-4 * gnorm * xa
            # a gradient step must gain, so the ladder stops at the rounding floor
            if lam_c > armijo or (newton and lam_c == armijo):
                n0, n1, n2, e, sm, lam = x0, x1, x2, e_c, sm_c, lam_c
                if not newton:
                    step_try = 2.0 * step
                break
            if not newton:
                step *= 0.5
            newton = False
        else:
            # no step increases the objective: its rounding floor
            break
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
