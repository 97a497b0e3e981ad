"""Compiled numeric kernels.

Everything here operates on bare numpy arrays so it can run under numba.
The decorator comes from ``qbc._accel``: with ``QBC_DISABLE_NUMBA=1`` the
same functions run as plain Python. All loops are deterministic; no kernel
uses fastmath, so results are identical on both paths.

Conventions:
  * Hermitian matrices are complex128, dims 2..4.
  * An optimizer point is a float64 vector u of length 6: u[0:3] and u[3:6]
    are the two rows of the cloning map in sphere coordinates
    (x_i, y_i, sqrt(2)*b_i). The isometry constraints become
    |u0| = |u1| = 1 and dot(u0, u1) = cos(theta), theta the overlap angle.
    That set is one SO(3) orbit, {R [e1, cos(theta) e1 + sin(theta) e2]},
    so the ascent moves a 3x3 rotation R and never leaves the set.
"""

import numpy as np

from ._accel import njit
from .tolerances import JACOBI_MAX_SWEEPS, JACOBI_OFFDIAG_TOL


@njit(cache=True)
def jacobi_eigh(a):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvectors as columns). The phase of
    each eigenvector is fixed by making its largest-magnitude component
    real and positive, so identical input bits give identical output bits.
    """
    n = a.shape[0]
    d = a.copy()
    v = np.eye(n, dtype=np.complex128)
    for _sweep in range(JACOBI_MAX_SWEEPS):
        off2 = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off2 += abs(d[p, q]) ** 2
        if np.sqrt(2.0 * off2) < JACOBI_OFFDIAG_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = d[p, q]
                r = abs(apq)
                if r == 0.0:
                    continue
                # componentwise: complex-by-real division compiles
                # differently from numpy's and would break bit parity
                # between the compiled and fallback paths
                w = complex(apq.real / r, apq.imag / r)
                tau = (d[q, q].real - d[p, p].real) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(tau * tau + 1.0))
                else:
                    t = -1.0 / (-tau + np.sqrt(tau * tau + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                app = d[p, p].real
                aqq = d[q, q].real
                d[p, p] = app - t * r
                d[q, q] = aqq + t * r
                d[p, q] = 0.0
                d[q, p] = 0.0
                for i in range(n):
                    if i != p and i != q:
                        aip = d[i, p]
                        aiq = d[i, q]
                        d[i, p] = c * aip - s * np.conj(w) * aiq
                        d[i, q] = s * w * aip + c * aiq
                        d[p, i] = np.conj(d[i, p])
                        d[q, i] = np.conj(d[i, q])
                for i in range(n):
                    vip = v[i, p]
                    viq = v[i, q]
                    v[i, p] = c * vip - s * np.conj(w) * viq
                    v[i, q] = s * w * vip + c * viq

    evals = np.empty(n, dtype=np.float64)
    for i in range(n):
        evals[i] = d[i, i].real

    order = np.empty(n, dtype=np.int64)
    for i in range(n):
        order[i] = i
    # insertion sort: stable, deterministic for exact ties
    for i in range(1, n):
        key_val = evals[i]
        key_ord = order[i]
        j = i - 1
        while j >= 0 and evals[j] > key_val:
            evals[j + 1] = evals[j]
            order[j + 1] = order[j]
            j -= 1
        evals[j + 1] = key_val
        order[j + 1] = key_ord

    vecs = np.empty((n, n), dtype=np.complex128)
    for k in range(n):
        col = order[k]
        best = 0
        best_mag = -1.0
        for i in range(n):
            mag = abs(v[i, col])
            if mag > best_mag:
                best_mag = mag
                best = i
        lead = v[best, col]
        phase = complex(lead.real / best_mag, -lead.imag / best_mag)
        for i in range(n):
            vecs[i, k] = v[i, col] * phase
    return evals, vecs


@njit(cache=True)
def clone_lambda(v, d):
    """Distinguishability objective at the point u0 = v, u1 = v + d.

    Equals the squared smallest eigenvalue of the clone-marginal difference.
    Both squared terms are written as products with d, never as differences
    of nearly equal terms, so the value keeps its relative accuracy as the
    overlap angle (and with it d) goes to 0.
    """
    sd = d[0] + d[1]
    g = v[2] * d[0] + d[2] * (v[0] + d[0])
    q = sd * (v[0] + v[1] + 0.5 * sd) + d[2] * (v[2] + 0.5 * d[2])
    return g * g + q * q


@njit(cache=True)
def rotation_grad(v, d):
    """Riemannian gradient omega of clone_lambda over the rotation.

    Rotating both v and d by exp([h w]x) changes clone_lambda at the rate
    dot(omega, w). With Euclidean gradients g0, g1 in u0, u1,
    omega = u0 x g0 + u1 x g1 = v x G_v + d x G_d, where G_v (d fixed) is
    O(|d|^2) and G_d is O(|d|); both are formed without cancellation.
    """
    s0 = v[0] + v[1]
    sd = d[0] + d[1]
    s1 = s0 + sd
    w0 = v[0] + d[0]
    w2 = v[2] + d[2]
    g = v[2] * d[0] + d[2] * w0
    q = sd * (s0 + 0.5 * sd) + d[2] * (v[2] + 0.5 * d[2])
    gv0 = 2.0 * (g * d[2] + q * sd)
    gv1 = 2.0 * q * sd
    gv2 = 2.0 * (g * d[0] + q * d[2])
    gd0 = 2.0 * (g * w2 + q * s1)
    gd1 = 2.0 * q * s1
    gd2 = 2.0 * (g * w0 + q * w2)
    omega = np.empty(3, dtype=np.float64)
    omega[0] = v[1] * gv2 - v[2] * gv1 + d[1] * gd2 - d[2] * gd1
    omega[1] = v[2] * gv0 - v[0] * gv2 + d[2] * gd0 - d[0] * gd2
    omega[2] = v[0] * gv1 - v[1] * gv0 + d[0] * gd1 - d[1] * gd0
    return omega


@njit(cache=True)
def rotate(x, phi):
    """exp([phi]x) x by Rodrigues' formula, for a rotation vector phi."""
    out = x.copy()
    angle = np.sqrt(phi[0] * phi[0] + phi[1] * phi[1] + phi[2] * phi[2])
    if angle == 0.0:
        return out
    k0 = phi[0] / angle
    k1 = phi[1] / angle
    k2 = phi[2] / angle
    c = np.cos(angle)
    s = np.sin(angle)
    h = np.sin(0.5 * angle)
    kdx = (k0 * x[0] + k1 * x[1] + k2 * x[2]) * (2.0 * h * h)
    out[0] = x[0] * c + (k1 * x[2] - k2 * x[1]) * s + k0 * kdx
    out[1] = x[1] * c + (k2 * x[0] - k0 * x[2]) * s + k1 * kdx
    out[2] = x[2] * c + (k0 * x[1] - k1 * x[0]) * s + k2 * kdx
    return out


@njit(cache=True)
def ascend(rot, theta, step_init, grad_tol, max_iters):
    """Riemannian gradient ascent over the rotation R from one start.

    The feasible point of R is u0 = v, u1 = v + d with v = R e1 and
    d = R (-2 sin^2(theta/2), sin(theta), 0). A step is
    R -> exp([t omega / sin^2(theta)]x) R; t starts from a warm ladder
    (doubled after each accepted step) and is halved until the Armijo test
    passes. The objective and its curvature both scale with sin^2(theta),
    so t and the certificate are free of theta.

    Returns (point, objective, |omega|, iterations, converged), point being
    (u0, u1). Converged means |omega| <= grad_tol * sin^2(theta); at theta = 0
    the objective is identically zero and every start converges at once.
    """
    c2 = np.sin(theta)
    c1 = -2.0 * np.sin(0.5 * theta) ** 2
    s2 = c2 * c2
    v = np.empty(3, dtype=np.float64)
    d = np.empty(3, dtype=np.float64)
    for i in range(3):
        v[i] = rot[i, 0]
        d[i] = c1 * rot[i, 0] + c2 * rot[i, 1]
    lam = clone_lambda(v, d)
    step_try = step_init
    it = 0
    while True:
        omega = rotation_grad(v, d)
        gnorm = np.sqrt(omega[0] * omega[0] + omega[1] * omega[1] + omega[2] * omega[2])
        if gnorm <= grad_tol * s2 or s2 == 0.0 or it == max_iters:
            break
        step = step_try
        improved = False
        phi = np.empty(3, dtype=np.float64)
        while step > 1e-12:
            for i in range(3):
                phi[i] = omega[i] * (step / s2)
            v_c = rotate(v, phi)
            d_c = rotate(d, phi)
            lam_c = clone_lambda(v_c, d_c)
            if lam_c > lam + 1e-4 * step * gnorm * gnorm / s2:
                v = v_c
                d = d_c
                lam = lam_c
                improved = True
                break
            step *= 0.5
        if not improved:
            # no step increases the objective: its rounding floor
            break
        step_try = 2.0 * step
        it += 1
    point = np.empty(6, dtype=np.float64)
    for i in range(3):
        point[i] = v[i]
        point[3 + i] = v[i] + d[i]
    return point, lam, gnorm, it, gnorm <= grad_tol * s2


@njit(cache=True)
def run_starts(starts, theta, step_init, grad_tol, max_iters):
    """Ascend from every start rotation. Serial, order-independent per start."""
    n = starts.shape[0]
    points = np.empty((n, 6), dtype=np.float64)
    lams = np.empty(n, dtype=np.float64)
    gnorms = np.empty(n, dtype=np.float64)
    iters = np.empty(n, dtype=np.int64)
    conv = np.zeros(n, dtype=np.bool_)
    for k in range(n):
        u, lam, gn, it, ok = ascend(starts[k], theta, step_init, grad_tol, max_iters)
        points[k] = u
        lams[k] = lam
        gnorms[k] = gn
        iters[k] = it
        conv[k] = ok
    return points, lams, gnorms, iters, conv
