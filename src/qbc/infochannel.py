"""Classical layer: measurement-induced channels and broadcast rates.

A binary channel is stored as p[out][in] with columns summing to 1. The
broadcast construction is a cascade S -> X -> Y -> Z: a trade-off channel
with crossover epsilon, the measurement-induced channel, and an identity
post-processing, all over a uniform prior on S. Information quantities are
in nats, each one sum over weighted 2x2 tables (conditional information has
a slice per value of the condition); conventions 0 ln 0 = 0 and
"conditioning on a null event contributes nothing" make the epsilon
endpoints exact.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .cloner import marginal_closed_form, optimal_params
from .discrimination import BinaryPOVM, binary_entropy

LN2 = math.log(2.0)


@dataclass(frozen=True)
class BinaryChannel:
    """Conditional probabilities p[out][in] of a 2-in 2-out channel."""

    p: np.ndarray

    def __post_init__(self):
        # a private copy: freezing it leaves the caller's array writable
        m = np.array(self.p)
        if np.iscomplexobj(m):
            raise ValueError("channel entries must be real")
        m = m.astype(np.float64, copy=False)
        if m.shape != (2, 2):
            raise ValueError(f"channel matrix must be 2x2, got {m.shape}")
        (p00, p01), (p10, p11) = m.tolist()
        entries = (p00, p01, p10, p11)
        if not all(map(math.isfinite, entries)):
            raise ValueError("channel entries must be finite")
        if not all(0.0 <= x <= 1.0 for x in entries):
            raise ValueError("channel entries must lie in [0, 1]")
        colsums = (p00 + p10, p01 + p11)
        if max(abs(colsums[0] - 1.0), abs(colsums[1] - 1.0)) > tol.EQUALITY_TOL:
            raise ValueError(f"channel columns must sum to 1, got {np.array(colsums)}")
        m.setflags(write=False)
        object.__setattr__(self, "p", m)


def bsc(crossover: float) -> BinaryChannel:
    """Binary symmetric channel."""
    return BinaryChannel(np.array([[1.0 - crossover, crossover], [crossover, 1.0 - crossover]]))


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over named binary variables, axes in vars order."""

    vars: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("variable names must be distinct")
        # a private copy: freezing it leaves the caller's array writable
        t = np.array(self.table)
        if np.iscomplexobj(t):
            raise ValueError("probabilities must be real")
        t = t.astype(np.float64, copy=False).reshape((2,) * len(self.vars))
        # tables here have at most 16 entries: Python floats beat numpy reductions
        vals = t.reshape(-1).tolist()
        if not all(map(math.isfinite, vals)):
            raise ValueError("probabilities must be finite")
        if not all(x >= 0.0 for x in vals):
            raise ValueError("probabilities must be nonnegative")
        total = math.fsum(vals)
        if abs(total - 1.0) > tol.EQUALITY_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

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
    for x, rho in enumerate(marginal_closed_form(theta, phi)):
        (r00, r01), (r10, r11) = rho.tolist()
        for y, ((q00, q01), (q10, q11)) in enumerate(elems):
            # tr(rho pi) = (rho pi)_00 + (rho pi)_11
            p[y][x] = max(0.0, ((r00 * q00 + r01 * q10) + (r10 * q01 + r11 * q11)).real)
    return BinaryChannel(p)


def joint_clone_channel(theta: float, phi: float, povm: BinaryPOVM) -> np.ndarray:
    """Joint outcome law p[y, z, x] when both users measure their clone.

    The clones are correlated, so this is generally not the product of the
    two marginal channels; marginalizing either outcome recovers the
    induced channel exactly.
    """
    if povm.pi0.shape != (2, 2):
        raise ValueError("POVM must act on dimension 2")
    params = optimal_params(theta, phi)
    elems = (povm.pi0.tolist(), povm.pi1.tolist())
    out = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    for x in range(2):
        # sigma's component 2j+k is the real s[j][k] (system j, clone k), so
        # <sigma|A (x) B|sigma> = sum_ij A_ij C_ij with C = s B s^T
        s = params.row(x).reshape(2, 2).tolist()
        for z, ((b00, b01), (b10, b11)) in enumerate(elems):
            # row i of s B, then its products with the rows of s
            rows = [(u0 * b00 + u1 * b10, u0 * b01 + u1 * b11) for u0, u1 in s]
            c = [[w0 * v0 + w1 * v1 for v0, v1 in s] for w0, w1 in rows]
            for y, ((a00, a01), (a10, a11)) in enumerate(elems):
                val = (a00 * c[0][0] + a01 * c[0][1]) + (a10 * c[1][0] + a11 * c[1][1])
                out[y][z][x] = max(0.0, val.real)
    table = np.array(out)
    table.setflags(write=False)
    return table


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
    a, b = p1.p[0, 0], p1.p[0, 1]
    det = a - b  # distinct columns iff nonzero
    if abs(det) < tol.EQUALITY_TOL:
        # p1's output carries a single distribution; W can only shift it
        return abs(p2.p[0, 0] - p2.p[0, 1]) / 2.0
    k = (p2.p[0, 0] - p2.p[0, 1]) / det
    w1_raw = p2.p[0, 0] - a * k
    w0 = min(1.0, max(0.0, 1.0 - k - w1_raw))
    w1 = min(1.0, max(0.0, w1_raw))
    w = np.array([[1.0 - w0, w1], [w0, 1.0 - w1]])
    return float(np.max(np.abs(p2.p - w @ p1.p)))


def cascade_joint_channels(zero_channel: BinaryChannel, one_channel: BinaryChannel) -> JointDistribution:
    """Joint law of (S, X, Y, Z): uniform S, X = 0-channel(S), Y = 1-channel(X), Z = Y."""
    table = np.zeros((2, 2, 2, 2))
    for s in range(2):
        for x in range(2):
            for y in range(2):
                table[s, x, y, y] = 0.5 * zero_channel.p[x, s] * one_channel.p[y, x]
    return JointDistribution(vars=("S", "X", "Y", "Z"), table=table)


def _check_crossovers(pe: float, epsilon: float) -> None:
    if not 0.0 <= pe <= 0.5:
        raise ValueError(f"pe must lie in [0, 0.5], got {pe}")
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 0.5], got {epsilon}")


def cascade_joint(epsilon: float, pe: float) -> JointDistribution:
    """Degraded-broadcast cascade with symmetric crossovers epsilon and pe."""
    _check_crossovers(pe, epsilon)
    return cascade_joint_channels(bsc(epsilon), bsc(pe))


def _marginal_table(joint: JointDistribution, keep: tuple[str, ...]) -> np.ndarray:
    """The marginal table of an already validated joint law, axes in keep order.

    Raises ValueError when keep names a variable the law lacks, or one
    variable twice.
    """
    axes = tuple(joint.axis(name) for name in keep)
    repeated = [name for i, name in enumerate(keep) if name in keep[:i]]
    if repeated:
        raise ValueError(f"variable {repeated[0]!r} is named twice in {keep}: the arguments must differ")
    drop = tuple(i for i in range(len(joint.vars)) if i not in axes)
    summed = joint.table.sum(axis=drop) if drop else joint.table
    # summing keeps surviving axes in original order; permute to keep order
    ranks = [sorted(axes).index(a) for a in axes]
    return np.transpose(summed, ranks)


def mutual_information(joint: JointDistribution, var_a: str, var_b: str) -> float:
    """I(A:B) in nats by direct summation."""
    return _information([(_marginal_table(joint, (var_a, var_b)), 1.0)])


def conditional_mutual_information(
    joint: JointDistribution, var_a: str, var_b: str, var_cond: str
) -> float:
    """I(A:B|C) in nats; null conditioning events contribute zero."""
    pabc = _marginal_table(joint, (var_a, var_b, var_cond))
    return _information([(pabc[:, :, c], float(pabc[:, :, c].sum())) for c in range(2)])


def _information(slices) -> float:
    """Sum of p ln(p w / (pa pb)) over the positive entries p of weighted 2x2 tables.

    slices holds (table, w) pairs; pa and pb are a table's row and column
    sums and w its total mass (1 for a whole joint law), so a table with no
    positive entry adds nothing. The quotient keeps the most accuracy, but a product of tiny
    probabilities can underflow, and the quotient would then overflow or
    divide by zero; there the logs of the factors are summed instead.
    """
    info = 0.0
    for pab, w in slices:
        pa, pb = pab.sum(axis=1).tolist(), pab.sum(axis=0).tolist()
        for i, row in enumerate(pab.tolist()):
            for j, p in enumerate(row):
                if p > 0.0:
                    num, den = p * w, pa[i] * pb[j]
                    if num > 0.0 and den >= sys.float_info.min:
                        info += p * math.log(num / den)
                    else:
                        info += p * (math.log(p) + math.log(w) - math.log(pa[i]) - math.log(pb[j]))
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
    return RatePoint(
        r1=binary_entropy(conv) - binary_entropy(pe),
        r2=LN2 - binary_entropy(conv),
    )


def rate_region_oracle(pe: float, epsilon: float) -> RatePoint:
    """Same rate pair evaluated from the explicit joint distribution."""
    joint = cascade_joint(epsilon, pe)
    return RatePoint(
        r1=conditional_mutual_information(joint, "X", "Y", "S"),
        r2=mutual_information(joint, "S", "Z"),
    )
