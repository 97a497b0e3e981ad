"""The three benchmark workloads: inputs from a seed, one operation, its check.

Each workload is a class with

  * ``inputs(k)``: the inputs of operation k, a pure function of the run
    seed and k (made outside the timed region);
  * ``op(inp)``: run one operation and return its raw outputs;
  * ``check(inp, out)``: compare those outputs with values the benchmark
    computes apart from the program (``math`` and ``numpy.linalg``), or with
    properties the method must have; returns a list of failure messages,
    empty when the operation is correct.

The module reaches the library through module attributes (``cloner.X``, not
``from qbc.cloner import X``) so that a traced run, which rebinds those
attributes, sees every call made here.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

from qbc import cli, cloner, discrimination, hilbert, infochannel, optimizer
from qbc.tolerances import FEASIBILITY_TOL

HERE = os.path.dirname(os.path.abspath(__file__))
VERIFY_CHECKS_FILE = os.path.join(HERE, "verify_checks.json")

# log-spaced from pi/48 (the slowest angle of `qbc verify`) to pi/2
OPTIMIZE_GRID = tuple(
    [math.pi / 48.0 * 24.0 ** (i / 5.0) for i in range(5)] + [math.pi / 2.0]
)
OPTIMIZE_STARTS = 8
# observed relative error on the grid is at most ~2.3e-12 (theta = pi/48)
LAMBDA_REL_TOL = 1e-9
# exact-in-real-arithmetic identities on the closed-form pipeline
PIPELINE_TOL = 1e-12
# the entropy goes through an eigensolver and a logarithm near 0
ENTROPY_TOL = 1e-10
# check_degraded loses its 1e-12 certificate below theta ~ 2e-5, where the
# induced channel's determinant sin(theta) vanishes (see CHANGES.md, FOUND)
PIPELINE_THETA_MIN = 1e-3


def op_seed(seed: int, *path: int) -> int:
    """A 32-bit seed drawn from (run seed, stream, op, ...)."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def binary_entropy(p: float) -> float:
    return -sum(x * math.log(x) for x in (p, 1.0 - p) if x > 0.0)


class Optimize:
    """maximize_lambda at every grid angle, 8 starts, an op-specific seed."""

    name = "optimize"

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, k: int):
        return [
            (theta, optimizer.OptimizerConfig(n_starts=OPTIMIZE_STARTS, seed=op_seed(self.seed, 0, k, i)))
            for i, theta in enumerate(OPTIMIZE_GRID)
        ]

    def op(self, inp):
        return [optimizer.maximize_lambda(theta, config) for theta, config in inp]

    def check(self, inp, out) -> list[str]:
        bad = []
        for (theta, _), report in zip(inp, out):
            bad += check_optimum(theta, report)
        return bad


def check_optimum(theta: float, report) -> list[str]:
    """lambda_max against sin^2(theta) and against numpy's eigenvalues."""
    bad = []
    ref = math.sin(theta) ** 2
    p = report.best_params
    rows = (
        np.array([p.a0, p.b0, p.c0, p.d0]),
        np.array([p.a1, p.b1, p.c1, p.d1]),
    )
    if abs(report.lambda_max / ref - 1.0) > LAMBDA_REL_TOL:
        bad.append(f"theta={theta}: lambda_max {report.lambda_max!r} vs sin^2 {ref!r}")
    # clone x is the ket rows[x] in the 2*system + blank basis; tracing the
    # blank out of |row><row| leaves M M^T with M[system, blank] = row
    marg = [row.reshape(2, 2) @ row.reshape(2, 2).T for row in rows]
    lam_eig = float(np.linalg.eigvalsh(marg[0] - marg[1])[0]) ** 2
    if abs(lam_eig - report.lambda_max) > LAMBDA_REL_TOL * ref:
        bad.append(f"theta={theta}: lambda_max {report.lambda_max!r} vs eigvalsh {lam_eig!r}")
    residuals = (
        rows[0] @ rows[0] - 1.0,
        rows[1] @ rows[1] - 1.0,
        rows[0] @ rows[1] - math.cos(theta),
    )
    if max(abs(r) for r in residuals) > FEASIBILITY_TOL:
        bad.append(f"theta={theta}: constraint residuals {residuals}")
    if report.starts_converged < 1:
        bad.append(f"theta={theta}: no start converged")
    return bad


class Pipeline:
    """One seeded (theta, phi, epsilon) point from source to rate pair."""

    name = "pipeline"

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, k: int) -> tuple[float, float, float]:
        u = np.random.default_rng(op_seed(self.seed, 1, k)).random(3)
        theta = PIPELINE_THETA_MIN + float(u[0]) * (math.pi / 2.0 - PIPELINE_THETA_MIN)
        phi = float(u[1]) * (2.0 * math.pi)
        if phi >= 2.0 * math.pi:  # rounding of the product can reach 2 pi
            phi = 0.0
        return theta, phi, float(u[2]) * 0.5

    def op(self, inp) -> dict:
        theta, phi, eps = inp
        params = cloner.optimal_params(theta, phi)
        rho0 = cloner.marginals(cloner.clone_state(params, 0))[0]
        rho1 = cloner.marginals(cloner.clone_state(params, 1))[0]
        decode = discrimination.helstrom(rho0, rho1)
        povm = discrimination.clone_povm_closed_form(phi)
        channel = infochannel.induced_channel(theta, phi, povm)
        joint = infochannel.joint_clone_channel(theta, phi, povm)
        # the user behind a further BSC(eps) is a degraded copy of this one
        weaker = infochannel.BinaryChannel(infochannel.bsc(eps).p @ channel.p)
        pe = decode.error_prob
        return {
            "decode": decode,
            "povm": povm,
            "channel": channel.p,
            "joint": joint,
            "degraded_residual": infochannel.check_degraded(channel, weaker),
            "entropy": hilbert.von_neumann_entropy(rho0),
            "closed": tuple(infochannel.rate_region_closed_form(pe, eps)),
            "oracle": tuple(infochannel.rate_region_oracle(pe, eps)),
        }

    def check(self, inp, out: dict) -> list[str]:
        theta, phi, eps = inp
        bad = []
        pe = 0.5 * (1.0 - math.sin(theta))
        if abs(out["decode"].error_prob - pe) > PIPELINE_TOL:
            bad.append(f"P_e {out['decode'].error_prob!r} vs 1/2 (1 - sin theta) = {pe!r}")
        for name, povm in (("helstrom", out["decode"].povm), ("closed form", out["povm"])):
            if np.max(np.abs(povm.pi0 + povm.pi1 - np.eye(2))) > PIPELINE_TOL:
                bad.append(f"{name} POVM does not sum to the identity")
            for elem in (povm.pi0, povm.pi1):
                if np.linalg.eigvalsh(elem)[0] < -PIPELINE_TOL:
                    bad.append(f"{name} POVM element is not positive semidefinite")
        bsc_pe = np.array([[1.0 - pe, pe], [pe, 1.0 - pe]])
        if np.max(np.abs(out["channel"] - bsc_pe)) > PIPELINE_TOL:
            bad.append(f"induced channel {out['channel'].tolist()} is not BSC({pe!r})")
        for axis, user in ((1, "first"), (0, "second")):
            if np.max(np.abs(out["joint"].sum(axis=axis) - out["channel"])) > PIPELINE_TOL:
                bad.append(f"joint channel does not marginalise to the {user} user's channel")
        if not out["degraded_residual"] <= PIPELINE_TOL:
            bad.append(f"degradedness residual {out['degraded_residual']!r}")
        if abs(out["entropy"] - binary_entropy(pe)) > ENTROPY_TOL:
            bad.append(f"marginal entropy {out['entropy']!r} vs h(P_e) {binary_entropy(pe)!r}")
        conv = eps * (1.0 - pe) + pe * (1.0 - eps)
        want = (binary_entropy(conv) - binary_entropy(pe), math.log(2.0) - binary_entropy(conv))
        for route in ("closed", "oracle"):
            got = out[route]
            if max(abs(got[0] - want[0]), abs(got[1] - want[1])) > PIPELINE_TOL:
                bad.append(f"{route} rates {got} vs (h(eps*P_e) - h(P_e), ln 2 - h(eps*P_e)) = {want}")
        return bad


class Verify:
    """`qbc verify --seed S` in-process; every op of a run uses the same S."""

    name = "verify"

    def __init__(self, seed: int):
        self.verify_seed = op_seed(seed, 2) % 1_000_000
        self.first_bytes = None
        with open(VERIFY_CHECKS_FILE, encoding="utf-8") as fh:
            self.expected_checks = [tuple(row) for row in json.load(fh)]

    def inputs(self, k: int) -> int:
        return self.verify_seed

    def op(self, inp: int) -> tuple[int, bytes]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--seed", str(inp)])
        return code, buf.getvalue().encode("utf-8")

    def check(self, inp, out: tuple[int, bytes]) -> list[str]:
        code, text = out
        if self.first_bytes is None:
            self.first_bytes = text
        return check_verify_output(code, text, self.first_bytes, self.expected_checks)


def parse_verify_table(text: bytes) -> list[tuple[str, str, int, str]]:
    """(suite, check, count, status) for every row of the summary table."""
    rows = []
    for line in text.decode("utf-8").splitlines():
        fields = line.split()
        if len(fields) == 6 and fields[5] in ("PASS", "FAIL") and fields[2].isdigit():
            rows.append((fields[0], fields[1], int(fields[2]), fields[5]))
    return rows


def check_verify_output(code: int, text: bytes, first: bytes, expected) -> list[str]:
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    rows = parse_verify_table(text)
    if [(suite, check) for suite, check, _, _ in rows] != list(expected):
        bad.append(f"checks {[(s, c) for s, c, _, _ in rows]} differ from {VERIFY_CHECKS_FILE}")
    for suite, check, count, status in rows:
        if status != "PASS" or count <= 0:
            bad.append(f"{suite}/{check}: {status} with count {count}")
    if text != first:
        bad.append("output bytes differ from the first op with the same seed")
    return bad


WORKLOADS = {w.name: w for w in (Optimize, Pipeline, Verify)}


def warm_up(seed: int) -> None:
    """First calls into every layer, made before any op is timed."""
    pipeline = Pipeline(seed)
    pipeline.op(pipeline.inputs(0))
    optimizer.maximize_lambda(math.pi / 2.0, optimizer.OptimizerConfig(n_starts=1, seed=seed))
