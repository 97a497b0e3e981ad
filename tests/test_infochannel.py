"""Induced channels, the degraded cascade, and the rate region."""

import hashlib
import itertools
import math
import struct

import numpy as np
import pytest

from qbc import hilbert
from qbc.discrimination import BinaryPOVM, clone_povm_closed_form, helstrom, pure_pair_error
from qbc.cloner import clone_state, marginal_closed_form, optimal_params
from qbc.infochannel import (
    BinaryChannel,
    JointDistribution,
    binary_convolution,
    binary_entropy,
    bsc,
    cascade_joint,
    cascade_joint_channels,
    check_degraded,
    conditional_mutual_information,
    induced_channel,
    joint_clone_channel,
    marginal,
    mutual_information,
    rate_region_closed_form,
    rate_region_oracle,
)

LN2 = math.log(2.0)
H_03 = 0.6108643020548935  # -0.3 ln 0.3 - 0.7 ln 0.7
H_QUARTER = 0.5623351446188083


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-14)

    def test_symmetry(self):
        for x in (0.1, 0.3, 0.47):
            assert binary_entropy(x) == binary_entropy(1 - x)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)


class TestInducedChannel:
    def test_orthogonal_clones_identity_channel(self):
        ch = induced_channel(math.pi / 2, 0.0, clone_povm_closed_form(0.0))
        np.testing.assert_allclose(ch.p, np.eye(2), atol=1e-14)

    def test_theta_zero_useless(self):
        ch = induced_channel(0.0, 0.9, clone_povm_closed_form(0.9))
        np.testing.assert_allclose(ch.p[:, 0], ch.p[:, 1], atol=1e-14)

    def test_bsc_with_matched_povm(self):
        for theta in (0.2, math.pi / 6, 1.0, 1.4):
            for k in range(8):
                phi = 2 * math.pi * k / 8
                ch = induced_channel(theta, phi, clone_povm_closed_form(phi))
                pe = pure_pair_error(theta)
                np.testing.assert_allclose(
                    ch.p, [[1 - pe, pe], [pe, 1 - pe]], atol=1e-12
                )

    def test_helstrom_povm_equivalent(self):
        theta, phi = 0.7, 2.1
        povm = helstrom(*marginal_closed_form(theta, phi)).povm
        ch = induced_channel(theta, phi, povm)
        assert ch.p[1, 0] == pytest.approx(pure_pair_error(theta), abs=1e-12)


class TestJointCloneChannel:
    def test_orthogonal_point_deterministic(self):
        joint = joint_clone_channel(math.pi / 2, 0.0, clone_povm_closed_form(0.0))
        assert joint[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert joint[1, 1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_normalization_and_marginals(self):
        for theta, phi in ((0.4, 0.9), (1.1, 3.7), (math.pi / 4, math.pi / 2)):
            povm = clone_povm_closed_form(phi)
            joint = joint_clone_channel(theta, phi, povm)
            ch = induced_channel(theta, phi, povm)
            for x in range(2):
                assert joint[:, :, x].sum() == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(joint[:, :, x].sum(axis=1), ch.p[:, x], atol=1e-12)
                np.testing.assert_allclose(joint[:, :, x].sum(axis=0), ch.p[:, x], atol=1e-12)

    def test_clone_outcomes_are_correlated(self):
        # entanglement shows up as a gap between the joint law and the
        # product of its marginals
        povm = clone_povm_closed_form(math.pi / 2)
        joint = joint_clone_channel(math.pi / 4, math.pi / 2, povm)
        ch = induced_channel(math.pi / 4, math.pi / 2, povm)
        product = np.outer(ch.p[:, 0], ch.p[:, 0])
        assert np.max(np.abs(joint[:, :, 0] - product)) > 1e-3

    def test_matches_clone_ket_route(self):
        # independent route: <sigma_x| Pi_y (x) Pi_z |sigma_x> on the clone kets
        rng = np.random.default_rng(21)
        for _ in range(300):
            theta, phi = rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            w = np.array([-v[1].conjugate(), v[0].conjugate()])
            lo, hi = sorted(rng.uniform(0, 1, 2))
            pi0 = lo * np.outer(v, v.conj()) + hi * np.outer(w, w.conj())
            povm = BinaryPOVM(pi0=pi0, pi1=np.eye(2) - pi0)
            elems = (povm.pi0, povm.pi1)
            joint = joint_clone_channel(theta, phi, povm)
            params = optimal_params(theta, phi)
            for x in range(2):
                sigma = clone_state(params, x)
                for y in range(2):
                    for z in range(2):
                        op = hilbert.tensor_op(elems[y], elems[z])
                        ref = np.vdot(sigma, op @ sigma).real
                        assert abs(joint[y, z, x] - ref) <= 1e-15, (theta, phi, x, y, z)

    def test_golden_bytes(self):
        # sha1 prefix of the tables on a (theta, phi) grid with the
        # closed-form and Helstrom POVMs; no LAPACK runs, so no BLAS build
        # moves these bytes. A change here is to be recorded in CHANGES.md.
        h = hashlib.sha1()
        for theta in np.linspace(0.0, math.pi / 2, 13).tolist():
            for k in range(12):
                phi = 2 * math.pi * k / 12
                povms = (clone_povm_closed_form(phi), helstrom(*marginal_closed_form(theta, phi)).povm)
                for povm in povms:
                    h.update(joint_clone_channel(theta, phi, povm).tobytes())
        assert h.hexdigest()[:12] == "80cbc3d0325c"


# induced channels whose columns differ by only sin(theta); solving through
# the inverse channel matrix missed the 1e-12 certificate on both
SMALL_ANGLE_CHANNELS = ((1e-6, 1.0), (1.8e-5, 0.06 * math.pi))


class TestCheckDegraded:
    def test_equal_channels(self):
        ch = bsc(0.13)
        assert check_degraded(ch, ch) == pytest.approx(0.0, abs=1e-15)
        for theta, phi in SMALL_ANGLE_CHANNELS:
            ch = induced_channel(theta, phi, clone_povm_closed_form(phi))
            assert check_degraded(ch, ch) <= 1e-15, theta

    def test_bsc_cascade(self):
        # 0.2 = 0.1 * (1 - w) + 0.9 * w has the stochastic solution w = 1/8
        assert check_degraded(bsc(0.1), bsc(0.2)) == pytest.approx(0.0, abs=1e-12)
        for theta, phi in SMALL_ANGLE_CHANNELS:
            ch = induced_channel(theta, phi, clone_povm_closed_form(phi))
            weaker = BinaryChannel(bsc(0.2).p @ ch.p)
            assert check_degraded(ch, weaker) <= 1e-12, theta

    def test_not_degraded(self):
        useless = BinaryChannel(np.full((2, 2), 0.5))
        assert check_degraded(useless, bsc(0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_reverse_direction_requires_clamping(self):
        # a cleaner channel cannot be a post-processing of a noisier one
        assert check_degraded(bsc(0.2), bsc(0.1)) > 1e-3
        ch = induced_channel(0.5, 1.0, clone_povm_closed_form(1.0))
        assert check_degraded(BinaryChannel(bsc(0.2).p @ ch.p), ch) > 1e-3


class TestCascadeJoint:
    def test_noiseless_chain(self):
        joint = cascade_joint(0.0, 0.0)
        assert joint.table[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-15)
        assert joint.table[1, 1, 1, 1] == pytest.approx(0.5, abs=1e-15)
        assert joint.table.sum() == pytest.approx(1.0, abs=1e-15)

    def test_fully_noisy_tradeoff_decouples_source(self):
        joint = cascade_joint(0.5, 0.25)
        assert mutual_information(joint, "S", "X") == pytest.approx(0.0, abs=1e-14)
        assert mutual_information(joint, "S", "Z") == pytest.approx(0.0, abs=1e-14)

    def test_documented_entry(self):
        joint = cascade_joint(0.1, 0.25)
        assert marginal(joint, ("S", "Z")).table[0, 0] == pytest.approx(0.35, abs=1e-15)

    def test_z_copies_y(self):
        joint = cascade_joint(0.2, 0.3)
        t = joint.table
        assert t[:, :, 0, 1].sum() == 0.0
        assert t[:, :, 1, 0].sum() == 0.0

    def test_markov_property(self):
        joint = cascade_joint(0.15, 0.3)
        pxys = marginal(joint, ("S", "X", "Y")).table
        for s in range(2):
            for x in range(2):
                p_y_given_xs = pxys[s, x, 1] / pxys[s, x, :].sum()
                assert p_y_given_xs == pytest.approx(0.3 if x == 0 else 0.7, abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            cascade_joint(0.7, 0.1)
        with pytest.raises(ValueError):
            cascade_joint(0.1, -0.2)
        # one check serves the cascade and the closed form, pe first
        with pytest.raises(ValueError, match="pe must lie"):
            cascade_joint(0.7, 0.9)


class TestInformationFunctionals:
    def test_independent_pair(self):
        t = np.full((2, 2), 0.25)
        joint = JointDistribution(vars=("A", "B"), table=t)
        assert mutual_information(joint, "A", "B") == pytest.approx(0.0, abs=1e-15)

    def test_perfectly_correlated(self):
        t = np.array([[0.5, 0.0], [0.0, 0.5]])
        joint = JointDistribution(vars=("A", "B"), table=t)
        assert mutual_information(joint, "A", "B") == pytest.approx(LN2, abs=1e-15)

    def test_tiny_corner_keeps_relative_accuracy(self):
        # pa * pb = 1e-400 underflows to 0; the quotient must not divide by it
        t = np.array([[1e-200, 0.0], [0.0, 1.0]])
        joint = JointDistribution(vars=("A", "B"), table=t)
        assert mutual_information(joint, "A", "B") == pytest.approx(200 * math.log(10) * 1e-200, rel=1e-12)
        rates = rate_region_oracle(0.0, 3e-224)  # its conditional sums hit the same underflow
        assert rates.r1 == pytest.approx(rate_region_closed_form(0.0, 3e-224).r1, rel=1e-12)

    def test_symmetric_in_arguments(self):
        joint = cascade_joint(0.1, 0.3)
        assert mutual_information(joint, "S", "Z") == pytest.approx(
            mutual_information(joint, "Z", "S"), abs=1e-15
        )

    def test_cascade_mi_closed_form(self):
        joint = cascade_joint(0.1, 0.25)
        assert mutual_information(joint, "S", "Z") == pytest.approx(LN2 - H_03, abs=1e-12)

    def test_cmi_zero_when_conditionally_independent(self):
        # X uniform given S, Y a copy of S: I(X:Y|S) = 0
        t = np.zeros((2, 2, 2))
        for s in range(2):
            for x in range(2):
                t[s, x, s] = 0.25
        joint = JointDistribution(vars=("S", "X", "Y"), table=t)
        assert conditional_mutual_information(joint, "X", "Y", "S") == pytest.approx(
            0.0, abs=1e-15
        )

    def test_cmi_reduces_to_mi_for_constant_condition(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 0.5
        t[0, 1, 1] = 0.5
        joint = JointDistribution(vars=("S", "X", "Y"), table=t)
        assert conditional_mutual_information(joint, "X", "Y", "S") == pytest.approx(
            LN2, abs=1e-15
        )

    def test_cascade_cmi_closed_form(self):
        joint = cascade_joint(0.1, 0.25)
        assert conditional_mutual_information(joint, "X", "Y", "S") == pytest.approx(
            H_03 - H_QUARTER, abs=1e-12
        )


class TestInformationGoldenBytes:
    """sha1 prefix of the information layer on inputs that no CLI command prints.

    rate_region_oracle runs on a (pe, epsilon) grid with tiny and subnormal
    crossovers, and mutual information, conditional mutual information and
    marginal on seeded C-ordered random tables of 2 to 4 variables. No LAPACK
    runs, so no BLAS build moves these bytes. A change here is to be recorded
    in CHANGES.md.
    """

    GRID = (0.0, 5e-324, 1e-300, 3e-224, 1e-200, 1e-100, 1e-17, 1e-8, 1e-3, 0.1, 0.2, 0.25, 0.3, 0.4, 0.49, 0.5)

    def test_golden_bytes(self):
        h = hashlib.sha1()
        for pe in self.GRID:
            for eps in self.GRID:
                h.update(struct.pack("<2d", *rate_region_oracle(pe, eps)))
        rng = np.random.default_rng(2024)
        for k in range(90):
            n = 2 + k % 3
            t = rng.random((2,) * n) * (rng.random((2,) * n) < 0.8)
            joint = JointDistribution(vars=tuple("ABCD"[:n]), table=t / t.sum())
            for a, b in itertools.permutations(joint.vars, 2):
                h.update(struct.pack("<d", mutual_information(joint, a, b)))
                h.update(marginal(joint, (a, b)).table.tobytes())
                for c in joint.vars:
                    if c not in (a, b):
                        h.update(struct.pack("<d", conditional_mutual_information(joint, a, b, c)))
                        h.update(marginal(joint, (a, b, c)).table.tobytes())
        assert h.hexdigest()[:12] == "77905935d0fb"


class TestRateRegion:
    def test_epsilon_zero_endpoint(self):
        pt = rate_region_closed_form(0.25, 0.0)
        assert pt.r1 == pytest.approx(0.0, abs=1e-15)
        assert pt.r2 == pytest.approx(LN2 - H_QUARTER, abs=1e-14)

    def test_epsilon_half_endpoint(self):
        pt = rate_region_closed_form(0.25, 0.5)
        assert pt.r1 == pytest.approx(LN2 - H_QUARTER, abs=1e-14)
        assert pt.r2 == pytest.approx(0.0, abs=1e-15)

    def test_documented_point(self):
        pt = rate_region_closed_form(0.25, 0.1)
        assert pt.r1 == pytest.approx(H_03 - H_QUARTER, abs=1e-14)
        assert pt.r2 == pytest.approx(LN2 - H_03, abs=1e-14)

    def test_binary_convolution(self):
        assert binary_convolution(0.1, 0.25) == pytest.approx(0.3, abs=1e-15)

    def test_matches_oracle_on_grid(self):
        for i in range(12):
            for j in range(12):
                pe, eps = 0.5 * i / 11, 0.5 * j / 11
                closed = rate_region_closed_form(pe, eps)
                brute = rate_region_oracle(pe, eps)
                assert closed.r1 == pytest.approx(brute.r1, abs=1e-12)
                assert closed.r2 == pytest.approx(brute.r2, abs=1e-12)

    def test_tradeoff_monotonicity(self):
        # exact in epsilon, also where the convolved crossover passes the
        # log1p switch of binary_entropy at 1/4
        for i in range(201):
            pts = [rate_region_closed_form(0.5 * i / 200, 0.5 * j / 499) for j in range(500)]
            assert all(b.r1 >= a.r1 for a, b in zip(pts, pts[1:])), i
            assert all(b.r2 <= a.r2 for a, b in zip(pts, pts[1:])), i

    def test_quantum_layer_end_to_end(self):
        for theta in (0.0, 0.5, 1.0, math.pi / 2):
            phi = 0.8
            channel = induced_channel(theta, phi, clone_povm_closed_form(phi))
            for eps in (0.0, 0.2, 0.5):
                joint = cascade_joint_channels(bsc(eps), channel)
                closed = rate_region_closed_form(pure_pair_error(theta), eps)
                got_r1 = conditional_mutual_information(joint, "X", "Y", "S")
                got_r2 = mutual_information(joint, "S", "Z")
                assert got_r1 == pytest.approx(closed.r1, abs=1e-12)
                assert got_r2 == pytest.approx(closed.r2, abs=1e-12)


class TestChannelValidation:
    def test_rejects_nonstochastic(self):
        with pytest.raises(ValueError):
            BinaryChannel(np.array([[0.9, 0.3], [0.2, 0.7]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BinaryChannel(np.array([[1.1, 0.0], [-0.1, 1.0]]))

    def test_rejects_nan(self):
        # every comparison with NaN is false, so range checks alone pass it
        with pytest.raises(ValueError, match="finite"):
            BinaryChannel(np.array([[math.nan, 0.5], [math.nan, 0.5]]))

    def test_rejects_complex(self):
        # the cast to float would drop the imaginary parts, with only a warning
        with pytest.raises(ValueError, match="channel entries must be real"):
            BinaryChannel(np.array([[0.9 + 1j, 0.1], [0.1, 0.9]]))
        with pytest.raises(ValueError, match="probabilities must be real"):
            JointDistribution(vars=("A", "B"), table=np.array([[0.25 + 1j, 0.25], [0.25, 0.25]]))

    def test_bsc_range_checked_by_channel(self):
        with pytest.raises(ValueError, match=r"channel entries must lie in \[0, 1\]"):
            bsc(1.5)
        with pytest.raises(ValueError, match="channel entries must be finite"):
            bsc(math.nan)

    def test_caller_array_stays_writable(self):
        p = np.array([[0.9, 0.2], [0.1, 0.8]])
        channel = BinaryChannel(p)
        assert p.flags.writeable
        assert not channel.p.flags.writeable
        p[0, 0] = 0.0
        assert channel.p[0, 0] == 0.9

    def test_joint_distribution_requires_unit_mass(self):
        with pytest.raises(ValueError):
            JointDistribution(vars=("A", "B"), table=np.full((2, 2), 0.3))

    def test_joint_distribution_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            JointDistribution(vars=("A", "B"), table=np.array([[math.nan, 0.5], [0.25, 0.25]]))

    def test_joint_distribution_caller_table_stays_writable(self):
        table = np.array([[0.25, 0.5], [0.125, 0.125]])
        joint = JointDistribution(vars=("A", "B"), table=table)
        assert table.flags.writeable
        assert not joint.table.flags.writeable
        table[0, 0] = 0.0
        assert joint.table[0, 0] == 0.25
