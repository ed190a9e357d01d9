import re

import numpy as np
import pytest

from so3kin.algebra import Axis, elementary_rotation, exp_so3, hat, infinitesimal_rotation
from so3kin.core import validate_rotation
from so3kin.differential import (
    DegenerateInput,
    NonUniformSampling,
    TooFewSamples,
    differential_increment,
    estimate_convergence_order,
    finite_difference_residual,
    residual_order_report,
    rotation_rate,
)
from so3kin.propagator import (
    Interpolation,
    Method,
    RateProfile,
    Trajectory,
    propagate,
    sample_rate,
)

from oracles import matmul3, random_rotation, rz, skew3


def exact_trajectory(omega, t0, tf, h):
    """Trajectory of the closed-form solution R(t) = exp(t * hat(omega))."""
    n = int(round((tf - t0) / h))
    times = t0 + h * np.arange(n + 1)
    mats = np.array([exp_so3(t * np.asarray(omega)).matrix for t in times])
    return Trajectory(times=times, matrices=mats, method="exact", dt=h)


class TestDifferentialIncrement:
    def test_zero_rotation_gives_zero(self):
        rng = np.random.default_rng(1)
        r = validate_rotation(random_rotation(rng))
        assert np.array_equal(differential_increment((0.0, 0.0, 0.0), r), np.zeros((3, 3)))

    def test_identity_attitude_gives_hat(self):
        d = np.array([0.1, -0.2, 0.3])
        out = differential_increment(d, validate_rotation(np.eye(3)))
        assert np.array_equal(out, hat(d).matrix)

    def test_z_increment_on_rz_quarter_of_pi(self):
        r = elementary_rotation(Axis.Z, np.pi / 4)
        out = differential_increment((0.0, 0.0, 1e-3), r)
        c = np.sqrt(2.0) / 2.0
        expected = 1e-3 * np.array([[-c, -c, 0.0], [c, -c, 0.0], [0.0, 0.0, 0.0]])
        assert np.linalg.norm(out - expected) <= 1e-18
        # independent 3x3 product oracle
        assert np.array_equal(out, matmul3(hat((0.0, 0.0, 1e-3)).matrix, r.matrix))

    def test_two_forms_agree_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            d = rng.uniform(-1e-2, 1e-2, size=3)
            r = validate_rotation(random_rotation(rng))
            lhs = differential_increment(d, r)
            rhs = (infinitesimal_rotation(d) - np.eye(3)) @ r.matrix
            assert np.array_equal(lhs, rhs)


class TestRotationRate:
    def test_zero_rate(self):
        rng = np.random.default_rng(2)
        r = validate_rotation(random_rotation(rng))
        assert np.array_equal(rotation_rate((0.0, 0.0, 0.0), r), np.zeros((3, 3)))

    def test_identity_attitude(self):
        w = np.array([1.0, 2.0, 3.0])
        out = rotation_rate(w, validate_rotation(np.eye(3)))
        assert np.array_equal(out, hat(w).matrix)

    def test_z_spin_matches_symbolic_derivative(self):
        # d/dtheta Rz(theta) = [[-sin, -cos, 0], [cos, -sin, 0], [0, 0, 0]]
        theta = 0.37
        out = rotation_rate((0.0, 0.0, 1.0), validate_rotation(rz(theta)))
        s, c = np.sin(theta), np.cos(theta)
        expected = np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])
        assert np.linalg.norm(out - expected) <= 1e-15

    def test_scaling_consistency_with_increment(self):
        rng = np.random.default_rng(3)
        for dt in (1e-6, 1e-3, 0.25):
            w = rng.normal(size=3)
            r = validate_rotation(random_rotation(rng))
            assert np.allclose(rotation_rate(w, r),
                               differential_increment(w * dt, r) / dt,
                               rtol=0.0, atol=1e-15)

    def test_tangency(self):
        # hat(w) R R^T must be skew: the rate lies in the tangent space at R
        rng = np.random.default_rng(4)
        for _ in range(100):
            w = rng.normal(size=3)
            r = validate_rotation(random_rotation(rng))
            m = rotation_rate(w, r) @ r.matrix.T
            assert np.linalg.norm(m + m.T) <= 1e-13


class TestFiniteDifferenceResidual:
    def test_exact_rz_trajectory_small_residual(self):
        h = 1e-3
        traj = exact_trajectory((0.0, 0.0, 1.0), 0.0, 1.0, h)
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        report = finite_difference_residual(traj, profile)
        assert report.max_residual <= 1e-6
        assert report.step_sizes == [pytest.approx(h)]
        assert len(report.per_sample) == len(traj) - 2

    def test_per_sample_is_an_array_of_time_residual_rows(self):
        traj = exact_trajectory((0.0, 0.0, 1.0), 0.0, 1.0, 1e-2)
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        report = residual_order_report(traj, profile)
        assert isinstance(report.per_sample, np.ndarray)
        assert report.per_sample.shape == (len(traj) - 2, 2)
        assert np.array_equal(report.per_sample[:, 0], traj.times[1:-1])
        assert report.max_residual == report.per_sample[:, 1].max()

    def test_constant_trajectory_zero_residual(self):
        times = np.linspace(0.0, 1.0, 11)
        mats = np.array([np.eye(3)] * 11)
        traj = Trajectory(times=times, matrices=mats, method="const", dt=0.1)
        profile = RateProfile.constant((0.0, 0.0, 0.0), 0.0, 1.0)
        report = finite_difference_residual(traj, profile)
        assert report.max_residual == 0.0

    def test_halving_h_quarters_residual(self):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        res = {}
        for h in (2e-3, 1e-3):
            traj = exact_trajectory((0.0, 0.0, 1.0), 0.0, 1.0, h)
            res[h] = finite_difference_residual(traj, profile).max_residual
        ratio = res[2e-3] / res[1e-3]
        assert abs(ratio - 4.0) <= 0.4

    def test_frame_independence(self):
        # right-multiplying the whole trajectory by a fixed Q preserves residuals
        rng = np.random.default_rng(5)
        q = random_rotation(rng)
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        traj = exact_trajectory((0.0, 0.0, 1.0), 0.0, 1.0, 1e-2)
        shifted = Trajectory(times=traj.times, matrices=traj.matrices @ q,
                             method="exact", dt=traj.dt)
        a = finite_difference_residual(traj, profile)
        b = finite_difference_residual(shifted, profile)
        for (_, ra), (_, rb) in zip(a.per_sample, b.per_sample):
            assert abs(ra - rb) <= 1e-12

    def test_too_few_samples(self):
        times = np.array([0.0, 1.0])
        mats = np.array([np.eye(3), np.eye(3)])
        traj = Trajectory(times=times, matrices=mats, method="x", dt=1.0)
        profile = RateProfile.constant((0.0, 0.0, 0.0), 0.0, 1.0)
        with pytest.raises(TooFewSamples):
            finite_difference_residual(traj, profile)

    def test_non_uniform_sampling_rejected(self):
        class Fake:
            times = np.array([0.0, 0.1, 0.3, 0.4])
            matrices = np.array([np.eye(3)] * 4)

        profile = RateProfile.constant((0.0, 0.0, 0.0), 0.0, 1.0)
        with pytest.raises(NonUniformSampling):
            finite_difference_residual(Fake(), profile)

    def test_trajectory_rejects_non_uniform_times_with_the_same_check(self):
        with pytest.raises(NonUniformSampling) as info:
            Trajectory(times=np.array([0.0, 0.1, 0.3, 0.4]), matrices=np.array([np.eye(3)] * 4),
                       method="x", dt=0.1)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("interp", list(Interpolation))
    @pytest.mark.parametrize("method", list(Method))
    def test_matches_loop_oracle(self, interp, method):
        rng = np.random.default_rng(11)
        knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 15)), [1.0]])
        profile = RateProfile(knots, 2.0 * rng.normal(size=(17, 3)), interp)
        traj = propagate(validate_rotation(random_rotation(rng)), profile, 1e-3, method)
        report = finite_difference_residual(traj, profile)
        m, h = traj.matrices, traj.dt
        assert len(report.per_sample) == len(traj) - 2
        for k, (t, residual) in enumerate(report.per_sample, start=1):
            rate_term = matmul3(skew3(sample_rate(profile, traj.times[k])), m[k])
            err = (m[k + 1] - m[k - 1]) / (2.0 * h) - rate_term
            expected = np.sqrt(sum(x * x for x in err.ravel()))
            # The residual is a difference of O(|w|) terms, so roundoff is
            # bounded relative to the rate term, not to the residual itself.
            assert t == traj.times[k]
            assert abs(residual - expected) <= 1e-15 * np.linalg.norm(rate_term)


class TestEstimateConvergenceOrder:
    def test_exact_powers(self):
        assert estimate_convergence_order([(1e-2, 1e-4), (1e-3, 1e-6)]) == pytest.approx(2.0)

    def test_linear_relation(self):
        c = 3.7
        pairs = [(h, c * h) for h in (1e-1, 1e-3)]
        assert estimate_convergence_order(pairs) == pytest.approx(1.0)

    def test_needs_two_entries(self):
        with pytest.raises(DegenerateInput):
            estimate_convergence_order([(1e-2, 1e-4)])

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(DegenerateInput):
            estimate_convergence_order([(0.0, 1e-4), (1e-3, 1e-6)])

    def test_rejects_duplicate_steps(self):
        with pytest.raises(DegenerateInput):
            estimate_convergence_order([(1e-2, 1e-4), (1e-2, 1e-6)])


class TestResidualOrderReport:
    @pytest.mark.parametrize("strides", [(1,), (1, 1), (), (0, 1)])
    def test_needs_two_distinct_positive_strides(self, strides):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        traj = exact_trajectory((0.0, 0.0, 1.0), 0.0, 1.0, 1e-2)
        with pytest.raises(DegenerateInput, match=re.escape(
                f"need at least two distinct positive strides, got {list(strides)}")):
            residual_order_report(traj, profile, strides)

    def test_trajectory_at_rest_has_no_order(self):
        profile = RateProfile.constant((0.0, 0.0, 0.0), 0.0, 1.0)
        traj = exact_trajectory((0.0, 0.0, 0.0), 0.0, 1.0, 1e-2)
        report = residual_order_report(traj, profile, strides=(1, 2, 4))
        assert report.max_residual == 0.0
        assert report.estimated_order is None

    def test_zero_residual_at_some_strides_names_them(self):
        profile = RateProfile.constant((0.0, 0.0, 0.0), 0.0, 1.0)
        mats = np.tile(np.eye(3), (101, 1, 1))
        mats[50, 0, 0] = 1.001  # off stride 4's grid
        traj = Trajectory(np.arange(101) * 1e-2, mats, "exp", 1e-2)
        with pytest.raises(DegenerateInput, match=re.escape(
                "max residual is exactly 0 at strides [4] of [1, 2, 4]")):
            residual_order_report(traj, profile, strides=(4, 2, 1))

    def test_exact_trajectory_order_two(self):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        traj = exact_trajectory((0.0, 0.0, 1.0), 0.0, 1.0, 1e-3)
        report = residual_order_report(traj, profile, strides=(1, 2, 4))
        assert report.estimated_order == pytest.approx(2.0, abs=0.2)
        assert len(report.step_sizes) == 3
