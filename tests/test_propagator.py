import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from so3kin.algebra import Axis, elementary_rotation, exp_so3
from so3kin.core import (
    NonFinite,
    NotOrthogonal,
    RotationMatrix,
    So3Error,
    ToleranceConfig,
    ortho_defect,
    validate_rotation,
)
from so3kin.differential import finite_difference_residual, geodesic_distance
from so3kin.propagator import (
    BadStep,
    EmptyProfile,
    Interpolation,
    Method,
    NonUniformSampling,
    OutOfRange,
    RateProfile,
    RateSampling,
    Trajectory,
    _polar_increments,
    drift_report,
    propagate,
    sample_rate,
    sample_rates,
    step_euler,
    step_euler_renorm,
    step_exponential,
    subsample,
)

from oracles import matmul3, random_rotation, rz, series_exp, skew3, svd_project


class TestRateProfile:
    def test_rejects_empty(self):
        with pytest.raises(EmptyProfile):
            RateProfile(np.array([]), np.zeros((0, 3)))

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            RateProfile(np.array([0.0, 1.0, 0.5]), np.zeros((3, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RateProfile(np.array([0.0, 1.0]), np.array([[0, 0, np.nan], [0, 0, 0.0]]))

    def test_rejects_omegas_of_another_shape(self):
        with pytest.raises(ValueError, match=re.escape(
                "omegas shape (2, 2) does not match 2 samples")):
            RateProfile(np.array([0.0, 1.0]), np.zeros((2, 2)))

    def test_copies_writable_input_and_is_read_only(self):
        times, omegas = np.array([0.0, 1.0]), np.ones((2, 3))
        profile = RateProfile(times, omegas)
        assert not np.shares_memory(profile.times, times)
        assert not np.shares_memory(profile.omegas, omegas)
        assert not profile.times.flags.writeable
        assert not profile.omegas.flags.writeable

    def test_holds_read_only_input_without_copy(self):
        times, omegas = np.array([0.0, 1.0]), np.ones((2, 3))
        times.flags.writeable = False
        omegas.flags.writeable = False
        profile = RateProfile(times, omegas)
        assert np.shares_memory(profile.times, times)
        assert np.shares_memory(profile.omegas, omegas)


class TestSampleRate:
    two = RateProfile(np.array([0.0, 1.0]), np.array([[0, 0, 0.0], [0, 0, 2.0]]))

    def test_single_sample_profile(self):
        profile = RateProfile(np.array([0.5]), np.array([[1.0, 2.0, 3.0]]))
        assert np.array_equal(sample_rate(profile, 0.5), np.array([1.0, 2.0, 3.0]))

    def test_linear_interpolation(self):
        profile = RateProfile(self.two.times, self.two.omegas, Interpolation.LINEAR)
        assert np.array_equal(sample_rate(profile, 0.25), np.array([0.0, 0.0, 0.5]))

    def test_zero_order_hold(self):
        profile = RateProfile(self.two.times, self.two.omegas, Interpolation.ZERO_ORDER_HOLD)
        assert np.array_equal(sample_rate(profile, 0.25), np.array([0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("interp", list(Interpolation))
    def test_exact_at_sample_times(self, interp):
        profile = RateProfile(self.two.times, self.two.omegas, interp)
        assert np.array_equal(sample_rate(profile, 0.0), np.array([0.0, 0.0, 0.0]))
        assert np.array_equal(sample_rate(profile, 1.0), np.array([0.0, 0.0, 2.0]))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            sample_rate(self.two, 1.5)
        with pytest.raises(OutOfRange):
            sample_rate(self.two, -0.5)

    def test_out_of_range_names_t(self):
        with pytest.raises(OutOfRange, match=r"t = 1\.5 outside profile span \[0\.0, 1\.0\]"):
            sample_rate(self.two, 1.5)
        with pytest.raises(OutOfRange, match=r"t = -0\.5 "):
            sample_rates(self.two, np.array([0.0, 0.5, -0.5, 2.0]))

    @pytest.mark.parametrize("interp", list(Interpolation))
    def test_batch_equals_scalar(self, interp):
        # knots, both endpoints, points inside the 1e-9 slack, and midpoints
        knots = np.array([0.0, 0.1, 0.35, 0.6, 1.0])
        rng = np.random.default_rng(7)
        profile = RateProfile(knots, rng.normal(size=(5, 3)), interp)
        ts = np.concatenate([knots, [-5e-10, 1.0 + 5e-10], rng.uniform(0.0, 1.0, 50)])
        expected = np.array([sample_rate(profile, float(t)) for t in ts])
        assert np.array_equal(sample_rates(profile, ts), expected)


class TestSteppers:
    def test_exponential_quarter_turn(self):
        out = step_exponential(RotationMatrix.identity(), (0.0, 0.0, 1.0), np.pi / 2)
        assert np.linalg.norm(out.matrix - rz(np.pi / 2)) <= 1e-14

    def test_exponential_zero_rate_is_identity_map(self):
        rng = np.random.default_rng(1)
        r = validate_rotation(random_rotation(rng))
        out = step_exponential(r, (0.0, 0.0, 0.0), 0.5)
        assert np.array_equal(out.matrix, r.matrix)

    def test_exponential_group_property(self):
        rng = np.random.default_rng(2)
        r = validate_rotation(random_rotation(rng))
        w = np.array([0.4, -1.1, 0.3])
        h = 1e-2
        twice = step_exponential(step_exponential(r, w, h), w, h)
        once = step_exponential(r, w, 2 * h)
        assert np.linalg.norm(twice.matrix - once.matrix) <= 1e-13

    def test_euler_zero_rate(self):
        rng = np.random.default_rng(3)
        r = random_rotation(rng)
        assert np.array_equal(step_euler(r, (0.0, 0.0, 0.0), 1e-3), r)

    def test_euler_single_step_pattern(self):
        out = step_euler(np.eye(3), (0.0, 0.0, 1.0), 1e-3)
        expected = np.array([[1.0, -1e-3, 0.0], [1e-3, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(out, expected)

    def test_euler_step_ortho_defect_is_dt_squared(self):
        # (I + S)^T (I + S) = I + S^T S; for unit rate ||S^T S||_F = sqrt(2),
        # so the defect is sqrt(2) * dt^2
        dt = 1e-3
        out = step_euler(np.eye(3), (1.0, 0.0, 0.0), dt)
        assert ortho_defect(out) == pytest.approx(np.sqrt(2.0) * dt * dt, rel=1e-3)

    def test_euler_renorm_zero_rate(self):
        rng = np.random.default_rng(4)
        r = validate_rotation(random_rotation(rng))
        out = step_euler_renorm(r, (0.0, 0.0, 0.0), 1e-3)
        assert np.linalg.norm(out.matrix - r.matrix) <= 1e-14

    def test_euler_renorm_close_to_exponential(self):
        out = step_euler_renorm(RotationMatrix.identity(), (0.0, 0.0, 1.0), 1e-3)
        ref = step_exponential(RotationMatrix.identity(), (0.0, 0.0, 1.0), 1e-3)
        assert np.linalg.norm(out.matrix - ref.matrix) <= 1e-9

    @given(seed=st.integers(0, 2 ** 32 - 1), log_theta=st.floats(-8.0, np.log10(0.3)))
    def test_euler_renorm_rotates_by_atan_of_the_increment(self, seed, log_theta):
        # the polar factor of I + hat(phi) is the rotation by atan|phi| about phi
        rng = np.random.default_rng(seed)
        r = validate_rotation(random_rotation(rng))
        axis = rng.normal(size=3)
        phi = 10.0 ** log_theta * axis / np.linalg.norm(axis)
        theta = float(np.linalg.norm(phi))
        expected = matmul3(series_exp(skew3(np.arctan(theta) / theta * phi)), r.matrix)
        out = step_euler_renorm(r, phi, 1.0)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-14

    @given(seed=st.integers(0, 2 ** 32 - 1), log_theta=st.floats(-8.0, 1.0))
    def test_polar_increment_is_the_svd_projection(self, seed, log_theta):
        # euler_renorm's closed-form increment is the nearest rotation to I + hat(phi)
        axis = np.random.default_rng(seed).normal(size=3)
        phi = 10.0 ** log_theta * axis / np.linalg.norm(axis)
        expected = svd_project(np.eye(3) + skew3(phi))
        assert np.max(np.abs(_polar_increments(phi) - expected)) <= 2e-14

    def test_euler_renorm_stays_orthogonal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = validate_rotation(random_rotation(rng))
            w = rng.normal(size=3)
            dt = rng.uniform(1e-4, 0.1)
            out = step_euler_renorm(r, w, dt)
            assert ortho_defect(out.matrix) <= 1e-12

    def test_bad_step_rejected(self):
        with pytest.raises(BadStep):
            step_exponential(RotationMatrix.identity(), (0.0, 0.0, 1.0), 0.0)
        with pytest.raises(BadStep):
            step_euler(np.eye(3), (0.0, 0.0, 1.0), -1e-3)


class TestPropagate:
    def test_constant_spin_exponential_exact(self):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, np.pi / 2)
        traj = propagate(RotationMatrix.identity(), profile, np.pi / 2000, Method.EXPONENTIAL)
        assert np.linalg.norm(traj.final() - rz(np.pi / 2)) <= 1e-12

    @pytest.mark.parametrize("method", list(Method))
    def test_zero_profile_stationary(self, method):
        rng = np.random.default_rng(6)
        r0 = validate_rotation(random_rotation(rng))
        profile = RateProfile.constant((0.0, 0.0, 0.0), 0.0, 1.0)
        traj = propagate(r0, profile, 0.1, method)
        for m in traj.matrices:
            assert np.linalg.norm(m - r0.matrix) <= 1e-14

    def test_first_sample_is_initial(self):
        profile = RateProfile.constant((0.0, 1.0, 0.0), 0.0, 1.0)
        traj = propagate(RotationMatrix.identity(), profile, 0.1, Method.EULER)
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.matrices[0], np.eye(3))

    def test_euler_drift_accumulates(self):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 10.0)
        traj = propagate(RotationMatrix.identity(), profile, 1e-3, Method.EULER)
        drift = drift_report(traj)
        assert 1e-4 <= drift.max_ortho_err <= 1e-1

    def test_euler_renorm_random_spins_stay_at_roundoff(self):
        # chained closed-form increments alone drift to ~1e-12 over these spins;
        # the Newton step at every sample holds them at roundoff
        rng = np.random.default_rng(1)
        for _ in range(10):
            axis = rng.normal(size=3)
            w = rng.uniform(0.2, 3.0) * axis / np.linalg.norm(axis)
            profile = RateProfile.constant(w, 0.0, 10.0)
            traj = propagate(RotationMatrix.identity(), profile, 1e-3, Method.EULER_RENORM)
            assert drift_report(traj).max_ortho_err <= 1e-14

    def test_span_truncation(self):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.05)
        traj = propagate(RotationMatrix.identity(), profile, 0.1, Method.EXPONENTIAL)
        assert traj.truncated_span
        assert len(traj) == 11
        assert traj.times[-1] == pytest.approx(1.0)

    def test_exact_multiple_not_truncated(self):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        traj = propagate(RotationMatrix.identity(), profile, 0.1, Method.EXPONENTIAL)
        assert not traj.truncated_span
        assert len(traj) == 11

    def test_dt_larger_than_span_rejected(self):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 0.5)
        with pytest.raises(BadStep):
            propagate(RotationMatrix.identity(), profile, 1.0, Method.EXPONENTIAL)

    def test_midpoint_sampling_option(self):
        ts = np.linspace(0.0, 1.0, 101)
        ws = np.column_stack([np.sin(ts), np.cos(ts), 0.5 * np.ones_like(ts)])
        profile = RateProfile(ts, ws)
        start = propagate(RotationMatrix.identity(), profile, 0.01, Method.EXPONENTIAL,
                          RateSampling.START)
        mid = propagate(RotationMatrix.identity(), profile, 0.01, Method.EXPONENTIAL,
                        RateSampling.MIDPOINT)
        assert np.linalg.norm(start.final() - mid.final()) > 1e-6

    def test_propagated_trajectory_passes_fd_check(self):
        profile = RateProfile.constant((0.6, 0.0, 0.8), 0.0, 1.0)
        orders = []
        for h in (1e-2, 1e-3):
            traj = propagate(RotationMatrix.identity(), profile, h, Method.EXPONENTIAL)
            report = finite_difference_residual(traj, profile)
            orders.append((h, report.max_residual))
        from so3kin.differential import estimate_convergence_order
        assert estimate_convergence_order(orders) >= 1.8

    def test_euler_global_error_first_order(self):
        # halving dt halves the geodesic error against a converged reference
        ts = np.linspace(0.0, 2.0, 2001)
        ws = np.column_stack([np.sin(ts), np.cos(ts), 0.5 * np.ones_like(ts)])
        profile = RateProfile(ts, ws)
        ref = propagate(RotationMatrix.identity(), profile, 1e-4, Method.EXPONENTIAL,
                        RateSampling.MIDPOINT)
        r_ref = validate_rotation(ref.final())
        errs = {}
        for dt in (1e-2, 5e-3):
            for method in (Method.EULER, Method.EULER_RENORM):
                traj = propagate(RotationMatrix.identity(), profile, dt, method)
                from so3kin.core import project_to_so3
                errs[(method, dt)] = geodesic_distance(r_ref, project_to_so3(traj.final()))
        for method in (Method.EULER, Method.EULER_RENORM):
            ratio = errs[(method, 1e-2)] / errs[(method, 5e-3)]
            assert abs(ratio - 2.0) <= 0.3


def public_chain(r0, profile, dt, method, sampling, n_steps):
    """propagate written as a loop over the public sample_rate and step_* calls."""
    offset = 0.5 * dt if sampling is RateSampling.MIDPOINT else 0.0
    t0 = profile.span[0]
    state = r0.matrix if method is Method.EULER else r0
    mats = [r0.matrix]
    for k in range(n_steps):
        w = sample_rate(profile, t0 + k * dt + offset)
        if method is Method.EXPONENTIAL:
            state = step_exponential(state, w, dt)
        elif method is Method.EULER:
            state = step_euler(state, w, dt)
        else:
            state = step_euler_renorm(state, w, dt)
        mats.append(state if method is Method.EULER else state.matrix)
    return np.array(mats)


class TestPropagateMatchesPublicSteps:
    rng = np.random.default_rng(12)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 9)), [1.0]])
    rates = 3.0 * rng.normal(size=(11, 3))

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("interp", list(Interpolation))
    @pytest.mark.parametrize("sampling", list(RateSampling))
    def test_bit_identical(self, method, interp, sampling):
        profile = RateProfile(self.knots, self.rates, interp)
        r0 = validate_rotation(random_rotation(np.random.default_rng(13)))
        traj = propagate(r0, profile, 1e-3, method, sampling)
        assert len(traj) == 1001
        assert np.array_equal(traj.matrices,
                              public_chain(r0, profile, 1e-3, method, sampling, 1000))

    @pytest.mark.parametrize("method", list(Method))
    def test_truncated_span(self, method):
        profile = RateProfile(np.array([0.0, 0.4, 1.05]), self.rates[:3])
        traj = propagate(RotationMatrix.identity(), profile, 0.1, method)
        assert traj.truncated_span and len(traj) == 11
        assert np.array_equal(traj.matrices, public_chain(
            RotationMatrix.identity(), profile, 0.1, method, RateSampling.START, 10))

    @pytest.mark.parametrize("method", list(Method))
    def test_steps_on_knots_end_on_last_knot(self, method):
        # every step starts on a knot (zero blend weight) and the grid ends on the last knot
        knots = np.linspace(0.0, 0.5, 6)
        profile = RateProfile(knots, self.rates[:6])
        traj = propagate(RotationMatrix.identity(), profile, 0.1, method)
        assert not traj.truncated_span and traj.times[-1] == pytest.approx(0.5)
        assert np.array_equal(traj.matrices, public_chain(
            RotationMatrix.identity(), profile, 0.1, method, RateSampling.START, 5))


PUBLIC_STEPS = {
    Method.EXPONENTIAL: (exp_so3, step_exponential),
    Method.EULER_RENORM: (lambda phi, tol: RotationMatrix(_polar_increments(phi), tol),
                          step_euler_renorm),
}


def first_public_failure(r0, profile, dt, n_steps, method):
    """Message prefix and error type of the first check the step-by-step
    public path fails: step k checks its increment, as the public step_*
    call builds it, then the sample k + 1 that call produces."""
    increment, step = PUBLIC_STEPS[method]
    state = r0
    for k in range(n_steps):
        w = sample_rate(profile, k * dt)
        try:
            increment(dt * w, r0.tol)
        except So3Error as exc:
            return f"increment of step {k} (t = {k * dt}): ", type(exc)
        try:
            state = step(state, w, dt)
        except So3Error as exc:
            return f"sample {k + 1} (t = {(k + 1) * dt}): ", type(exc)
    return None


class TestPropagateValidation:
    @pytest.mark.parametrize("method,ortho_tol,where", [
        (Method.EXPONENTIAL, 1e-15, "sample"),
        (Method.EXPONENTIAL, 1e-17, "increment"),
        (Method.EULER_RENORM, 4.5e-16, "sample"),
        (Method.EULER_RENORM, 1e-16, "increment"),
    ])
    def test_tight_tolerance_names_first_failure(self, method, ortho_tol, where):
        ts = np.linspace(0.0, 1.0, 11)
        ws = np.column_stack([np.sin(3 * ts), np.cos(2 * ts), 0.5 + ts])
        profile = RateProfile(ts, ws)
        r0 = RotationMatrix.identity(ToleranceConfig(ortho_tol=ortho_tol))
        prefix, error = first_public_failure(r0, profile, 1e-3, 1000, method)
        assert error is NotOrthogonal and prefix.startswith(where)
        with pytest.raises(NotOrthogonal) as info:
            propagate(r0, profile, 1e-3, method)
        assert str(info.value).startswith(prefix)

    def test_euler_is_never_validated(self):
        tight = ToleranceConfig(ortho_tol=1e-15)
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        traj = propagate(RotationMatrix.identity(tight), profile, 1e-2, Method.EULER)
        assert drift_report(traj).max_ortho_err > 1e-6


class TestHugeRates:
    """Rates whose |dt * w|^2 overflows: no RuntimeWarning (the suite turns
    one into an error), and a named error or a true rotation, never I."""

    @staticmethod
    def profile(rate, span):
        return RateProfile(np.array([0.0, span]), np.array([[rate, 0.0, 0.0]] * 2))

    def test_euler_renorm_step_turns_by_atan_of_the_increment(self):
        out = step_euler_renorm(RotationMatrix.identity(), (1e300, 0.0, 0.0), 0.5)
        assert np.max(np.abs(out.matrix - elementary_rotation(Axis.X, np.pi / 2).matrix)) \
            <= 1e-15

    def test_euler_renorm_step_keeps_the_axis_of_an_overflowing_increment(self):
        out = step_euler_renorm(RotationMatrix.identity(), (-1.7e308, 1.7e308, 0.0), 1.0)
        expected = exp_so3(np.pi / 2 * np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0))
        assert np.max(np.abs(out.matrix - expected.matrix)) <= 1e-15

    def test_euler_renorm_propagation_is_the_chain_of_its_steps(self):
        traj = propagate(RotationMatrix.identity(), self.profile(1e300, 1.0), 0.5,
                         Method.EULER_RENORM)
        r = RotationMatrix.identity()
        for k in range(2):
            r = step_euler_renorm(r, (1e300, 0.0, 0.0), 0.5)
            assert np.array_equal(traj.matrices[k + 1], r.matrix)
        assert np.max(np.abs(traj.final() - elementary_rotation(Axis.X, np.pi).matrix)) \
            <= 1e-15

    def test_exponential_increment_is_named_non_finite(self):
        with pytest.raises(NonFinite, match=re.escape(
                "increment of step 0 (t = 0.0): matrix has non-finite entries")):
            propagate(RotationMatrix.identity(), self.profile(1e300, 1.0), 0.5,
                      Method.EXPONENTIAL)
        with pytest.raises(NonFinite, match="matrix has non-finite entries"):
            exp_so3((1e300, 0.0, 0.0))

    @pytest.mark.parametrize("method", [Method.EXPONENTIAL, Method.EULER_RENORM])
    def test_overflowing_dt_times_w_is_named_non_finite(self, method):
        with pytest.raises(NonFinite, match=re.escape(
                "step 0 (t = 0.0): rotation increment dt * w has non-finite components")):
            propagate(RotationMatrix.identity(), self.profile(1e308, 2.0), 2.0, method)

    @pytest.mark.parametrize("step", [step_exponential, step_euler_renorm])
    def test_overflowing_dt_times_w_of_one_step_is_named_non_finite(self, step):
        with pytest.raises(NonFinite, match=re.escape(
                "rotation increment dt * w has non-finite components")):
            step(RotationMatrix.identity(), (1e308, 0.0, 0.0), 2.0)


class TestDriftReport:
    def test_exact_rotations_have_tiny_drift(self):
        times = np.linspace(0.0, 1.0, 11)
        mats = np.array([exp_so3(t * np.array([0.0, 0.0, 1.0])).matrix for t in times])
        traj = Trajectory(times=times, matrices=mats, method="exact", dt=0.1)
        drift = drift_report(traj)
        assert drift.max_ortho_err <= 1e-12
        assert drift.max_det_err <= 1e-12

    def test_single_perturbed_entry(self):
        m = np.eye(3)
        m[0, 0] = 1.0 + 1e-6
        traj = Trajectory(times=np.array([0.0]), matrices=np.array([m]), method="x",
                          dt=1.0)
        drift = drift_report(traj)
        # ||R^T R - I||_F for a single scaled diagonal entry is ~2e-6
        assert drift.max_ortho_err == pytest.approx(2e-6, rel=1e-3)

    def test_maxima_consistent_with_per_sample(self):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        traj = propagate(RotationMatrix.identity(), profile, 0.01, Method.EULER)
        drift = drift_report(traj)
        assert drift.max_ortho_err == max(p[1] for p in drift.per_sample)
        assert drift.max_det_err == max(p[2] for p in drift.per_sample)

    def test_per_sample_is_an_array_of_per_matrix_errors(self):
        profile = RateProfile.constant((0.3, -0.2, 1.0), 0.0, 1.0)
        traj = propagate(RotationMatrix.identity(), profile, 0.05, Method.EULER)
        drift = drift_report(traj)
        assert isinstance(drift.per_sample, np.ndarray)
        assert drift.per_sample.shape == (len(traj), 3)
        for (t, ortho, det), time, m in zip(drift.per_sample, traj.times, traj.matrices):
            assert t == time
            assert ortho == ortho_defect(m)
            assert det == abs(np.linalg.det(m) - 1.0)


class TestSubsample:
    def test_every_other_sample(self):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        traj = propagate(RotationMatrix.identity(), profile, 0.1, Method.EXPONENTIAL)
        half = subsample(traj, 2)
        assert half.dt == pytest.approx(0.2)
        assert np.array_equal(half.times, traj.times[::2])
        assert np.array_equal(half.matrices, traj.matrices[::2])

    def test_rejects_a_stride_below_one(self):
        traj = propagate(RotationMatrix.identity(), RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0),
                         0.1, Method.EXPONENTIAL)
        with pytest.raises(ValueError, match="stride must be >= 1, got 0"):
            subsample(traj, 0)

    def test_shares_the_parent_arrays(self):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        traj = propagate(RotationMatrix.identity(), profile, 0.1, Method.EXPONENTIAL)
        half = subsample(traj, 2)
        assert np.shares_memory(half.times, traj.times)
        assert np.shares_memory(half.matrices, traj.matrices)


class TestTrajectory:
    def test_copies_writable_input_and_is_read_only(self):
        times = np.arange(4) * 0.1
        mats = np.tile(np.eye(3), (4, 1, 1))
        traj = Trajectory(times, mats, "exp", 0.1)
        assert not np.shares_memory(traj.times, times)
        assert not np.shares_memory(traj.matrices, mats)
        assert not traj.times.flags.writeable
        assert not traj.matrices.flags.writeable
        mats[0, 0, 0] = 2.0
        assert traj.matrices[0, 0, 0] == 1.0

    def test_holds_read_only_input_without_copy(self):
        times = np.arange(4) * 0.1
        mats = np.tile(np.eye(3), (4, 1, 1))
        times.flags.writeable = False
        mats.flags.writeable = False
        traj = Trajectory(times, mats, "exp", 0.1)
        assert np.shares_memory(traj.times, times)
        assert np.shares_memory(traj.matrices, mats)

    def test_rejects_matrices_of_another_shape(self):
        with pytest.raises(ValueError, match=re.escape(
                "matrices shape (3, 3, 3) does not match 2 samples")):
            Trajectory(np.array([0.0, 0.1]), np.zeros((3, 3, 3)), "exp", 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_time_naming_the_sample(self, bad):
        times = np.arange(5) * 0.1
        times[2] = bad
        with pytest.raises(NonUniformSampling, match=re.escape(
                f"sample 2 (t = {bad}): time is not finite; "
                "trajectory sample times must lie on a uniform grid")):
            Trajectory(times, np.tile(np.eye(3), (5, 1, 1)), "exp", 0.1)

    def test_non_uniform_times_name_the_first_step_off_the_mean(self):
        times = np.arange(11) * 0.1
        times[4] = 0.42
        with pytest.raises(NonUniformSampling, match=re.escape("sample 4 (t = 0.42): step ")):
            Trajectory(times, np.tile(np.eye(3), (11, 1, 1)), "exp", 0.1)
