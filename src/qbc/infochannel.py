"""Classical layer: measurement-induced channels and broadcast rates.

A binary channel is stored as p[out][in] with columns summing to 1. The
broadcast construction is a cascade S -> X -> Y -> Z: a trade-off channel
with crossover epsilon, the measurement-induced channel, and an identity
post-processing, all over a uniform prior on S. Information quantities are
in nats, each one sum over weighted 2x2 tables (conditional information has
a slice per value of the condition); conventions 0 ln 0 = 0 and
"conditioning on a null event contributes nothing" make the epsilon
endpoints exact. Intermediate tables are Python floats, read once from each
input array with tolist(), and each result is one read-only array; only
marginal tables and a conditional slice's mass are numpy sums.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import hilbert
from . import tolerances as tol
from .cloner import _marginal_rows, optimal_params
from .discrimination import BinaryPOVM, binary_entropy

LN2 = math.log(2.0)


@dataclass(frozen=True)
class BinaryChannel:
    """Conditional probabilities p[out][in] of a 2-in 2-out channel."""

    p: np.ndarray

    def __post_init__(self):
        # a private copy: freezing it leaves the caller's array writable
        m = np.array(self.p)
        if m.dtype.kind == "c":
            raise ValueError("channel entries must be real")
        m = m.astype(np.float64, copy=False)
        if m.shape != (2, 2):
            raise ValueError(f"channel matrix must be 2x2, got {m.shape}")
        (p00, p01), (p10, p11) = m.tolist()
        entries = (p00, p01, p10, p11)
        if not all(map(math.isfinite, entries)):
            raise ValueError("channel entries must be finite")
        if min(entries) < 0.0 or max(entries) > 1.0:
            raise ValueError("channel entries must lie in [0, 1]")
        colsums = (p00 + p10, p01 + p11)
        if max(abs(colsums[0] - 1.0), abs(colsums[1] - 1.0)) > tol.EQUALITY_TOL:
            raise ValueError(f"channel columns must sum to 1, got {np.array(colsums)}")
        object.__setattr__(self, "p", hilbert._readonly(m))


def bsc(crossover: float) -> BinaryChannel:
    """Binary symmetric channel."""
    return BinaryChannel([[1.0 - crossover, crossover], [crossover, 1.0 - crossover]])


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over named binary variables, axes in vars order."""

    vars: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        # a tuple of the names: a caller's list would stay editable
        object.__setattr__(self, "vars", tuple(self.vars))
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("variable names must be distinct")
        # a private C-ordered copy, shaped in place so that no writable base sits behind it
        t = np.array(self.table, order="C")
        if t.dtype.kind == "c":
            raise ValueError("probabilities must be real")
        t = t.astype(np.float64, copy=False)
        t.shape = (2,) * len(self.vars)
        # tables here have at most 16 entries: Python floats beat numpy reductions
        vals = t.reshape(-1).tolist()
        if not all(map(math.isfinite, vals)):
            raise ValueError("probabilities must be finite")
        if min(vals) < 0.0:
            raise ValueError("probabilities must be nonnegative")
        total = math.fsum(vals)
        if abs(total - 1.0) > tol.EQUALITY_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        object.__setattr__(self, "table", hilbert._readonly(t))

    def axis(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise ValueError(f"variable {name!r} not in {self.vars}") from None


class RatePoint(NamedTuple):
    r1: float
    r2: float


def induced_channel(theta: float, phi: float, povm: BinaryPOVM) -> BinaryChannel:
    """Channel p(y|x) = tr(rho_x Pi_y) seen by a user measuring a clone."""
    if povm.pi0.shape != (2, 2):
        raise ValueError("POVM must act on dimension 2")
    elems = (povm.pi0.tolist(), povm.pi1.tolist())
    p = [[0.0, 0.0], [0.0, 0.0]]
    for x, ((r00, r01), (r10, r11)) in enumerate(_marginal_rows(theta, phi)):
        for y, ((q00, q01), (q10, q11)) in enumerate(elems):
            # tr(rho pi) = (rho pi)_00 + (rho pi)_11, and rho is real; rounding
            # can leave [0, 1] by an ulp
            t = (r00 * q00.real + r01 * q10.real) + (r10 * q01.real + r11 * q11.real)
            p[y][x] = min(1.0, max(0.0, t))
    return BinaryChannel(p)


def joint_clone_channel(theta: float, phi: float, povm: BinaryPOVM) -> np.ndarray:
    """Joint outcome law p[y, z, x] when both users measure their clone.

    The clones are correlated, so this is generally not the product of the
    two marginal channels. Marginalizing either outcome gives the induced
    channel up to rounding: with the closed-form POVM the largest entrywise
    gap measured over random (theta, phi) is 7.8e-16 (3.5 * 2^-52).
    """
    if povm.pi0.shape != (2, 2):
        raise ValueError("POVM must act on dimension 2")
    p = optimal_params(theta, phi)
    elems = (povm.pi0.tolist(), povm.pi1.tolist())
    out = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    for x, (s00, s01, s10, s11) in enumerate(((p.a0, p.b0, p.c0, p.d0), (p.a1, p.b1, p.c1, p.d1))):
        # sigma's component 2j+k is the real s_jk (system j, clone k), so
        # <sigma|A (x) B|sigma> = sum_ij A_ij C_ij with C = s B s^T
        for z, ((b00, b01), (b10, b11)) in enumerate(elems):
            # the rows of s B, then their products with the rows of s
            t00, t01 = s00 * b00 + s01 * b10, s00 * b01 + s01 * b11
            t10, t11 = s10 * b00 + s11 * b10, s10 * b01 + s11 * b11
            c00, c01 = t00 * s00 + t01 * s01, t00 * s10 + t01 * s11
            c10, c11 = t10 * s00 + t11 * s01, t10 * s10 + t11 * s11
            for y, ((a00, a01), (a10, a11)) in enumerate(elems):
                t = ((a00 * c00 + a01 * c01) + (a10 * c10 + a11 * c11)).real
                out[y][z][x] = min(1.0, max(0.0, t))
    return hilbert._readonly(np.array(out))


def check_degraded(p1: BinaryChannel, p2: BinaryChannel) -> float:
    """Residual of the best column-stochastic W with p2 = W p1.

    Solves the 2x2 linear system and clamps W into the stochastic box; with
    both channels column-stochastic the row residuals are complementary, so
    the reported number is the max entrywise residual. Zero (within 1e-12)
    certifies a degraded pair.

    With W = [[1 - w0, w1], [w0, 1 - w1]] and k = 1 - w0 - w1, the first
    row of p2 = W p1 reads p2[0, x] = w1 + k p1[0, x]. The solve uses only
    the difference of p1's columns, never its inverse, whose entries grow
    like 1/sin(theta) for the induced channel and lose the certificate
    near theta = 0.
    """
    q1, q2 = p1.p.tolist(), p2.p.tolist()
    a, b = q1[0]
    det = a - b  # distinct columns iff nonzero
    if abs(det) < tol.EQUALITY_TOL:
        # p1's output carries a single distribution; W can only shift it
        return abs(q2[0][0] - q2[0][1]) / 2.0
    k = (q2[0][0] - q2[0][1]) / det
    w1_raw = q2[0][0] - a * k
    w0 = min(1.0, max(0.0, 1.0 - k - w1_raw))
    w1 = min(1.0, max(0.0, w1_raw))
    w = ((1.0 - w0, w1), (w0, 1.0 - w1))
    return max(abs(q2[i][j] - (w[i][0] * q1[0][j] + w[i][1] * q1[1][j])) for i in range(2) for j in range(2))


def cascade_joint_channels(zero_channel: BinaryChannel, one_channel: BinaryChannel) -> JointDistribution:
    """Joint law of (S, X, Y, Z): uniform S, X = 0-channel(S), Y = 1-channel(X), Z = Y."""
    return _cascade(zero_channel.p.tolist(), one_channel.p.tolist())


def _cascade(zero: list, one: list) -> JointDistribution:
    table = [0.0] * 16  # (s, x, y, z) in C order from rows p[out][in]; only z = y is possible
    for s in range(2):
        for x in range(2):
            for y in range(2):
                table[8 * s + 4 * x + 3 * y] = 0.5 * zero[x][s] * one[y][x]
    return JointDistribution(vars=("S", "X", "Y", "Z"), table=table)


def _check_crossovers(pe: float, epsilon: float) -> None:
    if not 0.0 <= pe <= 0.5:
        raise ValueError(f"pe must lie in [0, 0.5], got {pe}")
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 0.5], got {epsilon}")


def cascade_joint(epsilon: float, pe: float) -> JointDistribution:
    """Degraded-broadcast cascade with symmetric crossovers epsilon and pe."""
    _check_crossovers(pe, epsilon)
    return _cascade(*([[1.0 - c, c], [c, 1.0 - c]] for c in (epsilon, pe)))


def _marginal_table(joint: JointDistribution, keep: tuple[str, ...]) -> np.ndarray:
    """The marginal table of an already validated joint law, axes in keep order.

    Raises ValueError when keep names a variable the law lacks, or one
    variable twice.
    """
    axes = [joint.axis(name) for name in keep]
    if len(set(axes)) < len(axes):
        repeated = next(name for i, name in enumerate(keep) if name in keep[:i])
        raise ValueError(f"variable {repeated!r} is named twice in {keep}: the arguments must differ")
    drop = tuple(i for i in range(len(joint.vars)) if i not in axes)
    summed = joint.table.sum(axis=drop) if drop else joint.table
    # summing keeps surviving axes in original order; permute to keep order
    return summed.transpose([sorted(axes).index(a) for a in axes])


def mutual_information(joint: JointDistribution, var_a: str, var_b: str) -> float:
    """I(A:B) in nats by direct summation."""
    return _information([(_marginal_table(joint, (var_a, var_b)).tolist(), 1.0)])


def conditional_mutual_information(joint: JointDistribution, var_a: str, var_b: str, var_cond: str) -> float:
    """I(A:B|C) in nats; null conditioning events contribute zero."""
    pabc = _marginal_table(joint, (var_a, var_b, var_cond))
    slices = pabc.transpose(2, 0, 1).tolist()
    # a slice's mass is numpy's sum, in memory order, not the sum of its rows
    return _information([(pab, float(pabc[:, :, c].sum())) for c, pab in enumerate(slices)])


def _information(slices) -> float:
    """Sum of p ln(p w / (pa pb)) over the positive entries p of weighted 2x2 tables.

    slices holds (rows, w) pairs, a 2x2 table as nested lists and its total
    mass w (1 for a whole joint law); pa and pb are its row and column sums,
    so a table with no positive entry adds nothing. The quotient keeps the
    most accuracy, but a product of tiny probabilities can underflow, and the
    quotient would then overflow or divide by zero; there the logs of the
    factors are summed instead.
    """
    info = 0.0
    for pab, w in slices:
        pa, pb = [r0 + r1 for r0, r1 in pab], [c0 + c1 for c0, c1 in zip(*pab)]
        for row, a in zip(pab, pa):
            for p, b in zip(row, pb):
                if p > 0.0:
                    num, den = p * w, a * b
                    if num > 0.0 and den >= sys.float_info.min:
                        info += p * math.log(num / den)
                    else:
                        info += p * (math.log(p) + math.log(w) - math.log(a) - math.log(b))
    return info


def binary_convolution(a: float, b: float) -> float:
    """Crossover of two symmetric channels in cascade: (1-b) a + b (1-a)."""
    return (1.0 - b) * a + b * (1.0 - a)


def rate_region_closed_form(pe: float, epsilon: float) -> RatePoint:
    """Achievable-rate corner point of the degraded broadcast cascade.

    r1 bounds the fine branch I(X:Y|S), r2 the coarse branch I(S:Z); both
    depend on the quantum layer only through the decoding error pe.
    """
    _check_crossovers(pe, epsilon)
    conv = binary_convolution(epsilon, pe)
    return RatePoint(r1=binary_entropy(conv) - binary_entropy(pe), r2=LN2 - binary_entropy(conv))


def rate_region_oracle(pe: float, epsilon: float) -> RatePoint:
    """Same rate pair evaluated from the explicit joint distribution."""
    joint = cascade_joint(epsilon, pe)
    return RatePoint(
        r1=conditional_mutual_information(joint, "X", "Y", "S"),
        r2=mutual_information(joint, "S", "Z"),
    )
