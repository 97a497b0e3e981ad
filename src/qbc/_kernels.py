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

With x0 = n0 and x1 = n0 cos(theta) + n1 sin(theta), lambda is the squared
part orthogonal to n of w = x0 e1 - x1 (cos(theta), sin(theta), 0), a
vector of length |(n0, n1)| sin(theta) whose part along n is x0^2 - x1^2 =
-q sin(theta), with q = 2 n0 n1 cos(theta) - (n0^2 - n1^2) sin(theta). So

    lambda(n) = sin^2(theta) g(n),   g(n) = n0^2 + n1^2 - q^2,

and the ascent maximizes g, which is O(1) at every theta, theta = 0
included. g <= |(n0, n1)|^2 <= 1, with equality at the four points
+-(cos(theta/2), sin(theta/2), 0) and +-(sin(theta/2), -cos(theta/2), 0).
Above each lies a circle of rotations, that is, of equally good cloning
maps. With qa = 2 (n1 cos(theta) - n0 sin(theta)) and qb = 2 (n0 cos(theta)
+ n1 sin(theta)), the partial derivatives of q, g's Euclidean gradient is
2 (n0 - q qa, n1 - q qb, 0), and its Euclidean Hessian is zero outside the
(n0, n1) block

    2 I - 2 (qa, qb)(qa, qb)^T - 4 q [[-sin(theta), cos(theta)],
                                      [cos(theta), sin(theta)]].

The Riemannian gradient is the Euclidean one projected onto the tangent
plane at n, and the Riemannian Hessian in a tangent basis t_i at n is
t_i^T H t_j - (n . grad_E g) delta_ij (Absil, Mahony and Sepulchre, ch. 5).
At the optimum its eigenvalues are {-8, -2}, where a fixed gradient step t
shrinks the gradient by max(|1 - 8t|, |1 - 2t|) per step, at best 0.6 at
t = 0.2. Where this 2x2 Hessian is negative definite, Newton's step -H^-1
grad converges quadratically instead (ibid., ch. 6); elsewhere the ascent
takes gradient steps.
"""

import math

import numpy as np

from . import tolerances as tol


def ascend(start, theta):
    """Riemannian ascent of g on S^2 from the direction of start, by Newton and gradient steps.

    start is a nonzero 3-vector of floats; the ascent begins at its unit
    vector n. Every step moves n along a great circle, n -> n cos(a) +
    (xi/|xi|) sin(a) with a = |xi| for a tangent vector xi.

    From the second iteration on, the step first tries Newton's xi =
    -H^-1 grad, with H the 2x2 Riemannian Hessian of g in the tangent basis
    a = grad/|grad|, b = n x a (see the module docstring). It is tried only
    when H is negative definite and |xi| <= pi, and accepted when it passes
    the Armijo test g_new >= g + 1e-4 grad.xi. Otherwise the step is a
    gradient step, xi = t grad, with t halved from its first trial until the
    Armijo test passes: OPTIMIZER_STEP_INIT on the first iteration, after
    that twice the last accepted gradient t.

    Returns (n, lambda, sin^2(theta) |grad|, iterations, converged), n being
    the end point as 3 floats and lambda = sin^2(theta) g(n). Converged
    means |grad| <= OPTIMIZER_GRAD_TOL within OPTIMIZER_MAX_ITERS steps.
    """
    st, ct = math.sin(theta), math.cos(theta)
    grad_tol = tol.OPTIMIZER_GRAD_TOL
    max_iters = tol.OPTIMIZER_MAX_ITERS
    n0, n1, n2 = start
    r = math.hypot(n0, n1, n2)
    n0, n1, n2 = n0 / r, n1 / r, n2 / r
    q = 2.0 * n0 * n1 * ct - (n0 * n0 - n1 * n1) * st
    g = n0 * n0 + n1 * n1 - q * q
    step_try = tol.OPTIMIZER_STEP_INIT
    it = 0
    while True:
        qa = 2.0 * (n1 * ct - n0 * st)
        qb = 2.0 * (n0 * ct + n1 * st)
        g0 = 2.0 * (n0 - q * qa)
        g1 = 2.0 * (n1 - q * qb)
        gn = g0 * n0 + g1 * n1
        g0, g1, g2 = g0 - gn * n0, g1 - gn * n1, -gn * n2
        gnorm = math.hypot(g0, g1, g2)
        if gnorm <= grad_tol or it == max_iters:
            break
        # the tangent basis a = grad/|grad|, b = n x a
        a0, a1, a2 = g0 / gnorm, g1 / gnorm, g2 / gnorm
        b0, b1, b2 = n1 * a2 - n2 * a1, n2 * a0 - n0 * a2, n0 * a1 - n1 * a0
        newton = False
        if it:
            # the Euclidean Hessian's (n0, n1) block
            h00 = 2.0 - 2.0 * qa * qa + 4.0 * q * st
            h01 = -2.0 * qa * qb - 4.0 * q * ct
            h11 = 2.0 - 2.0 * qb * qb - 4.0 * q * st
            haa = a0 * (a0 * h00 + 2.0 * a1 * h01) + a1 * a1 * h11 - gn
            hab = a0 * b0 * h00 + (a0 * b1 + a1 * b0) * h01 + a1 * b1 * h11
            hbb = b0 * (b0 * h00 + 2.0 * b1 * h01) + b1 * b1 * h11 - gn
            det = haa * hbb - hab * hab
            if haa < 0.0 and det > 0.0:
                # xi = -H^-1 (|grad|, 0) in the basis (a, b)
                w = gnorm / det
                xa, xb = -w * hbb, w * hab
                angle = math.hypot(xa, xb)
                newton = angle <= math.pi
        # the trial xi = (xa, xb) in the basis (a, b), moved by angle |xi|:
        # Newton's first, if any, then gradient steps (t |grad|, 0) with t
        # halved down to the floor
        step = step_try
        while newton or step > 1e-12:
            if not newton:
                xa = angle = step * gnorm
                xb = 0.0
            c = math.cos(angle)
            s = math.sin(angle) / angle
            ta, tb = xa * s, xb * s
            x0 = n0 * c + a0 * ta + b0 * tb
            x1 = n1 * c + a1 * ta + b1 * tb
            x2 = n2 * c + a2 * ta + b2 * tb
            q_c = 2.0 * x0 * x1 * ct - (x0 * x0 - x1 * x1) * st
            g_c = x0 * x0 + x1 * x1 - q_c * q_c
            armijo = g + 1e-4 * gnorm * xa
            # a gradient step must gain, so the ladder stops at the rounding floor
            if g_c > armijo or (newton and g_c == armijo):
                n0, n1, n2, q, g = x0, x1, x2, q_c, g_c
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
    s2 = st * st
    return (n0, n1, n2), s2 * g, s2 * gnorm, it, gnorm <= grad_tol


def run_starts(starts, theta):
    """Ascend from every start direction, the rows of an (n, 3) array.

    Serial, order-independent per start. Returns ndarrays: points (n, 3),
    objectives, |grad|, int64 iterations and bool convergence flags.
    """
    columns = zip(*(ascend(n, theta) for n in starts.tolist()))
    dtypes = (np.float64, np.float64, np.float64, np.int64, np.bool_)
    return tuple(np.array(col, dtype=t) for col, t in zip(columns, dtypes))
