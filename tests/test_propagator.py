import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from so3kin import core, propagator
from so3kin import io as kio
from so3kin.algebra import Axis, elementary_rotation, exp_matrices, exp_so3
from so3kin.core import (
    NonFinite,
    NotOrthogonal,
    RotationMatrix,
    So3Error,
    ToleranceConfig,
    ortho_defect,
    ortho_defects,
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
    uniform_step,
)

from oracles import gram_operands, matmul3, random_rotation, rz, series_exp, skew3, svd_project


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

    @pytest.mark.parametrize("times, k, t", [([0.0, 0.5, 0.4], 2, 0.4),
                                             ([0.0, 0.0, 1.0], 1, 0.0),
                                             ([0.0, 1.0, 2.0, 2.0, 1.0], 3, 2.0)])
    def test_names_the_first_time_not_after_its_predecessor(self, times, k, t):
        with pytest.raises(ValueError) as exc:
            RateProfile(np.array(times), np.zeros((len(times), 3)))
        assert str(exc.value) == f"sample {k} (t = {t}): sample times must be strictly increasing"

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

    def test_interpolation_is_read_as_its_enum(self):
        ramp = np.array([0.0, 1.0]), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        assert sample_rate(RateProfile(*ramp, "linear"), 0.5)[2] == 1.0
        with pytest.raises(ValueError, match="'cubic' is not a valid Interpolation"):
            RateProfile(*ramp, "cubic")

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

    # the slack past either end scales with the span, not with where its clock starts
    @pytest.mark.parametrize("t0", [0.0, 1e9, 1.7e9])
    def test_a_time_past_the_span_is_out_of_range_at_any_epoch(self, t0):
        profile = RateProfile.constant((0.0, 0.0, 1.0), t0, t0 + 10.0)
        assert np.array_equal(sample_rates(profile, np.array([t0, t0 + 10.0])),
                              [[0.0, 0.0, 1.0]] * 2)
        with pytest.raises(OutOfRange, match=re.escape(f"t = {t0 + 10.9} outside")):
            sample_rates(profile, np.array([t0 + 10.9]))

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

    def test_euler_renorm_stays_at_roundoff_on_forty_random_spins(self):
        # the random constant rates on which exp ends 16 of 40 above 1e-12:
        # correcting each sample of the uncorrected chain once holds all 40
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(40):
            axis = rng.normal(size=3)
            w = rng.uniform(0.2, 3.0) * axis / np.linalg.norm(axis)
            profile = RateProfile.constant(w, 0.0, 10.0)
            traj = propagate(RotationMatrix.identity(), profile, 1e-3, Method.EULER_RENORM)
            worst = max(worst, drift_report(traj).max_ortho_err)
        assert worst <= 1e-14

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

    @pytest.mark.parametrize("dt", [1e-320, 1e-15, 1e-300])
    def test_a_step_count_too_large_to_form_is_a_bad_step(self, dt):
        # span / dt is inf, or a time grid no address space holds: each fails
        # before any memory is touched
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        with pytest.raises(BadStep, match=rf"^dt = {dt} makes .* steps over profile span 1\.0"):
            propagate(RotationMatrix.identity(), profile, dt, Method.EXPONENTIAL)

    def test_method_is_read_as_its_enum(self):
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        assert propagate(RotationMatrix.identity(), profile, 0.1, "exp").method == "exp"
        with pytest.raises(ValueError, match="'exponential' is not a valid Method"):
            propagate(RotationMatrix.identity(), profile, 0.1, "exponential")

    @pytest.mark.parametrize("method", list(Method))
    def test_each_method_is_read_from_its_value(self, method):
        profile = RateProfile.constant((0.3, -0.2, 1.0), 0.0, 0.1)
        r0 = validate_rotation(random_rotation(np.random.default_rng(22)))
        by_value = propagate(r0, profile, 1e-2, method.value)
        assert by_value.method == method.value
        assert np.array_equal(by_value.matrices, propagate(r0, profile, 1e-2, method).matrices)

    def test_rate_sampling_is_read_as_its_enum(self):
        profile = RateProfile(np.array([0.0, 1.0]), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
        r0, exp = RotationMatrix.identity(), Method.EXPONENTIAL
        assert np.array_equal(propagate(r0, profile, 0.1, exp, "midpoint").matrices,
                              propagate(r0, profile, 0.1, exp, RateSampling.MIDPOINT).matrices)
        with pytest.raises(ValueError, match="'middle' is not a valid RateSampling"):
            propagate(r0, profile, 0.1, exp, "middle")

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


def newton_reference(x):
    """One Newton-Schulz step on one 3x3 sample: x (3I - x^T x) / 2."""
    return np.dot(x, 3.0 * np.eye(3) - np.dot(x.T, x)) * 0.5


def renorm_reference(r0, profile, dt, sampling, n_steps):
    """propagate's euler_renorm output, one sample at a time: the closed-form
    increments of the public sample_rate chained with np.dot, then one
    Newton-Schulz step on each sample.  A chain of step_euler_renorm calls,
    which corrects every step, stays within 1e-14 of it."""
    offset = 0.5 * dt if sampling is RateSampling.MIDPOINT else 0.0
    t0 = profile.span[0]
    raw = [r0.matrix]
    for k in range(n_steps):
        w = sample_rate(profile, t0 + k * dt + offset)
        raw.append(np.dot(_polar_increments(dt * w), raw[-1]))
    return np.array([r0.matrix] + [newton_reference(x) for x in raw[1:]])


def expected_chain(r0, profile, dt, method, sampling, n_steps):
    """What propagate must reproduce bit for bit: the chain of public steps,
    or for euler_renorm the per-sample reference."""
    if method is Method.EULER_RENORM:
        return renorm_reference(r0, profile, dt, sampling, n_steps)
    return public_chain(r0, profile, dt, method, sampling, n_steps)


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
                              expected_chain(r0, profile, 1e-3, method, sampling, 1000))

    @pytest.mark.parametrize("method", list(Method))
    def test_rate_sampling_defaults_to_start(self, method):
        # a change of the default must edit this test on purpose
        profile = RateProfile(self.knots, self.rates)
        r0 = validate_rotation(random_rotation(np.random.default_rng(13)))
        assert np.array_equal(propagate(r0, profile, 1e-3, method).matrices,
                              propagate(r0, profile, 1e-3, method, RateSampling.START).matrices)

    @pytest.mark.parametrize("method", list(Method))
    def test_truncated_span(self, method):
        profile = RateProfile(np.array([0.0, 0.4, 1.05]), self.rates[:3])
        traj = propagate(RotationMatrix.identity(), profile, 0.1, method)
        assert traj.truncated_span and len(traj) == 11
        assert np.array_equal(traj.matrices, expected_chain(
            RotationMatrix.identity(), profile, 0.1, method, RateSampling.START, 10))

    @pytest.mark.parametrize("method", list(Method))
    def test_steps_on_knots_end_on_last_knot(self, method):
        # every step starts on a knot (zero blend weight) and the grid ends on the last knot
        knots = np.linspace(0.0, 0.5, 6)
        profile = RateProfile(knots, self.rates[:6])
        traj = propagate(RotationMatrix.identity(), profile, 0.1, method)
        assert not traj.truncated_span and traj.times[-1] == pytest.approx(0.5)
        assert np.array_equal(traj.matrices, expected_chain(
            RotationMatrix.identity(), profile, 0.1, method, RateSampling.START, 5))

    @pytest.mark.parametrize("interp", list(Interpolation))
    @pytest.mark.parametrize("sampling", list(RateSampling))
    def test_euler_renorm_step_chain_stays_within_1e_14(self, interp, sampling):
        # step_euler_renorm corrects every step; propagate corrects each
        # sample of the uncorrected chain once
        profile = RateProfile(self.knots, self.rates, interp)
        r0 = validate_rotation(random_rotation(np.random.default_rng(13)))
        traj = propagate(r0, profile, 1e-3, Method.EULER_RENORM, sampling)
        steps = public_chain(r0, profile, 1e-3, Method.EULER_RENORM, sampling, 1000)
        assert np.max(np.abs(traj.matrices - steps)) <= 1e-14

    @pytest.mark.parametrize("n_steps", [1, 10, 1000])
    def test_euler_renorm_corrects_all_samples_in_one_call(self, monkeypatch, n_steps):
        calls = []

        def counting(x):
            calls.append(x.shape)
            return newton_polar(x)

        build, rotations, newton_polar = propagator._SCHEMES[Method.EULER_RENORM]
        monkeypatch.setitem(propagator._SCHEMES, Method.EULER_RENORM, (build, rotations, counting))
        profile = RateProfile.constant((0.3, -0.2, 1.0), 0.0, 1.0)
        propagate(RotationMatrix.identity(), profile, 1.0 / n_steps, Method.EULER_RENORM)
        assert calls == [(n_steps, 3, 3)]


@pytest.mark.parametrize("layout, x", gram_operands().items())
def test_newton_polar_is_the_plain_gram_product_bit_for_bit(layout, x):
    # _newton_polar multiplies a contiguous copy of x^T, numpy's fast stacked path
    plain = np.matmul(x, 3.0 * np.eye(3) - np.matmul(np.swapaxes(x, -1, -2), x)) * 0.5
    got = propagator._newton_polar(x)
    assert got.shape == plain.shape
    assert np.array_equal(got.view(np.uint64), plain.view(np.uint64))


PUBLIC_INCREMENTS = {
    Method.EXPONENTIAL: exp_so3,
    Method.EULER_RENORM: lambda phi, tol: RotationMatrix(_polar_increments(phi), tol),
}


def first_public_failure(r0, profile, dt, n_steps, method):
    """Message prefix and error type of the first check the step-by-step
    path fails: step k checks its dt * w, as _rotation_vector does, then
    its increment, as the public step_* call builds it, then the sample
    k + 1: the one step_exponential produces, or for euler_renorm the one
    renorm_reference corrects."""
    state, raw = r0, r0.matrix
    for k in range(n_steps):
        w = sample_rate(profile, k * dt)
        try:
            phi = propagator._rotation_vector(w, dt)
        except So3Error as exc:
            return f"step {k} (t = {k * dt}): ", type(exc)
        try:
            inc = PUBLIC_INCREMENTS[method](phi, r0.tol)
        except So3Error as exc:
            return f"increment of step {k} (t = {k * dt}): ", type(exc)
        try:
            if method is Method.EXPONENTIAL:
                state = step_exponential(state, w, dt)
            else:
                raw = np.dot(inc.matrix, raw)
                RotationMatrix(newton_reference(raw), r0.tol)
        except So3Error as exc:
            return f"sample {k + 1} (t = {(k + 1) * dt}): ", type(exc)
    return None


class TestPropagateValidation:
    @pytest.mark.parametrize("method,ortho_tol,where", [
        (Method.EXPONENTIAL, 1e-15, "sample"),
        (Method.EXPONENTIAL, 1e-17, "increment"),
        (Method.EULER_RENORM, 4.5e-16, "sample"),
        (Method.EULER_RENORM, 1e-16, "increment"),
        (Method.EULER_RENORM, 1e-15, "step"),
    ])
    def test_tight_tolerance_names_first_failure(self, method, ortho_tol, where):
        ts = np.linspace(0.0, 1.0, 11)
        ws = np.column_stack([np.sin(3 * ts), np.cos(2 * ts), 0.5 + ts])
        dt = 1e-3
        if where == "step":  # the same profile slowed to dt = 2, where dt * w can overflow
            ts, ws, dt = 2000.0 * ts, ws / 2000.0, 2.0
            ws[-2:] = 1e308
        profile = RateProfile(ts, ws)
        r0 = RotationMatrix.identity(ToleranceConfig(ortho_tol=ortho_tol))
        prefix, error = first_public_failure(r0, profile, dt, 1000, method)
        assert error is (NonFinite if where == "step" else NotOrthogonal)
        assert prefix.startswith(where)
        with pytest.raises(error) as info:
            propagate(r0, profile, dt, method)
        assert str(info.value).startswith(prefix)

    def test_euler_is_never_validated(self):
        tight = ToleranceConfig(ortho_tol=1e-15)
        profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0)
        traj = propagate(RotationMatrix.identity(tight), profile, 1e-2, Method.EULER)
        assert drift_report(traj).max_ortho_err > 1e-6


def raised(call):
    """(type, message) of the So3Error that call raises."""
    with pytest.raises(So3Error) as info:
        call()
    return type(info.value), str(info.value)


class TestPropagateFailures:
    """What each method's pass names when a step fails, and what it owns when none does."""

    @pytest.mark.parametrize("method", list(Method))
    def test_a_non_finite_rate_names_its_step(self, method):
        profile = RateProfile(np.array([0.0, 30.0, 40.0]),
                              np.array([[1.0, 0.0, 0.0], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]]),
                              Interpolation.ZERO_ORDER_HOLD)
        error, text = raised(lambda: propagate(RotationMatrix.identity(), profile, 2.0, method))
        assert error is NonFinite and text.startswith(
            "step 15 (t = 30.0): rotation increment dt * w has non-finite components")

    # From t = 5 on |dt * w|^2 overflows: the exp increment is not finite; euler's
    # increments are never judged, so its chain overflows a step later; euler_renorm
    # turns by atan|dt * w| and stays finite.
    bad_increment = {
        Method.EXPONENTIAL: "increment of step 10 (t = 5.0): matrix has non-finite entries",
        Method.EULER: "sample 12 (t = 6.0): matrix has non-finite entries",
        Method.EULER_RENORM: None,
    }

    @pytest.mark.parametrize("method", list(Method))
    def test_a_bad_increment_names_its_step(self, method):
        profile = RateProfile(np.array([0.0, 5.0, 10.0]),
                              np.array([[1.0, 0.0, 0.0], [1e300, 0.0, 0.0], [1e300, 0.0, 0.0]]),
                              Interpolation.ZERO_ORDER_HOLD)
        r0, expected = RotationMatrix.identity(), self.bad_increment[method]
        if expected is None:
            assert len(propagate(r0, profile, 0.5, method)) == 21
        else:
            assert raised(lambda: propagate(r0, profile, 0.5, method)) == (NonFinite, expected)

    @pytest.mark.parametrize("method", list(Method))
    def test_each_trajectory_owns_its_samples(self, method):
        profile = RateProfile.constant((0.3, -0.2, 1.0), 0.0, 0.1)
        r0 = validate_rotation(random_rotation(np.random.default_rng(22)))
        assert propagate(r0, profile, 1e-3, method).matrices.flags.owndata


class TestFailureOrder:
    """propagate raises the error that stepping in turn meets first: step k
    checks its dt * w, then its increment, then the sample k + 1."""

    # |dt * w|^2 overflows from step 3 (t = 6) on, dt * w itself at step 5 (t = 10).
    profile = RateProfile(np.array([0.0, 5.0, 10.0, 12.0]),
                          np.array([[1.0, 0.0, 0.0], [1e300, 0.0, 0.0],
                                    [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]]),
                          Interpolation.ZERO_ORDER_HOLD)

    messages = {
        Method.EXPONENTIAL: "increment of step 3 (t = 6.0): matrix has non-finite entries",
        Method.EULER: "sample 5 (t = 10.0): matrix has non-finite entries",
        Method.EULER_RENORM: "step 5 (t = 10.0): rotation increment dt * w "
                             "has non-finite components: [inf  0.  0.]",
    }

    @pytest.mark.parametrize("method", list(Method))
    def test_each_method_raises_its_first_failure(self, method):
        r0 = RotationMatrix.identity()
        assert raised(lambda: propagate(r0, self.profile, 2.0, method)) == \
            (NonFinite, self.messages[method])
        if method in PUBLIC_INCREMENTS:
            prefix, _ = first_public_failure(r0, self.profile, 2.0, 6, method)
            assert self.messages[method].startswith(prefix)

    @pytest.mark.parametrize("method", [Method.EXPONENTIAL, Method.EULER_RENORM])
    def test_an_increment_off_so3_precedes_a_late_overflowing_rate(self, method):
        profile = RateProfile(np.array([0.0, 5.0, 10.0]),
                              np.array([[0.3, -0.2, 1.0], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]]),
                              Interpolation.ZERO_ORDER_HOLD)
        r0 = RotationMatrix.identity(ToleranceConfig(ortho_tol=1e-17))
        error, message = raised(lambda: propagate(r0, profile, 2.0, method))
        assert error is NotOrthogonal and message.startswith("increment of step 0 (t = 0.0): ")

    @pytest.mark.parametrize("method, ortho_tol, step", [
        (Method.EXPONENTIAL, 1e-9, 3), (Method.EXPONENTIAL, 1e-17, 0),
        (Method.EULER_RENORM, 1e-17, 0)])
    def test_no_step_is_chained_after_a_failing_increment(self, monkeypatch, method,
                                                          ortho_tol, step):
        chained, terms = [], propagator._membership_terms
        monkeypatch.setattr(propagator, "_membership_terms",
                            lambda mats: chained.append(len(mats)) or terms(mats))
        profile = RateProfile(self.profile.times, np.vstack([[0.3, -0.2, 1.0],
                                                             self.profile.omegas[1:]]),
                              Interpolation.ZERO_ORDER_HOLD)
        r0 = RotationMatrix.identity(ToleranceConfig(ortho_tol=ortho_tol))
        _, message = raised(lambda: propagate(r0, profile, 2.0, method))
        assert message.startswith(f"increment of step {step} ")
        assert chained == [step + 1]  # sample 0 and the samples of the steps before it


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

    def test_overflowing_dt_times_w_of_one_euler_step_is_named_non_finite(self):
        with pytest.raises(NonFinite, match=re.escape(
                "rotation increment dt * w has non-finite components")):
            step_euler(np.eye(3), (1e308, 0.0, 0.0), 2.0)

    def test_euler_chain_that_overflows_names_its_first_non_finite_sample(self):
        # The increments I + hat(5e299 x) are finite; their square is not.
        with pytest.raises(NonFinite, match=re.escape(
                "sample 2 (t = 1.0): matrix has non-finite entries")):
            propagate(RotationMatrix.identity(), self.profile(1e300, 1.0), 0.5, Method.EULER)

    def test_finite_euler_samples_of_a_huge_rate_are_kept(self):
        # The drift is the measurement: a finite sample far off SO(3) is no error.
        traj = propagate(RotationMatrix.identity(), self.profile(1e300, 0.5), 0.5, Method.EULER)
        assert traj.matrices[1, 2, 1] == 5e299
        assert drift_report(traj).max_ortho_err > 1e300


class TestIncrementDeterminants:
    """propagate judges its increments on finiteness and orthogonality only:
    both builders are Rodrigues' I + a S + b S^2, whose det
    (1 - b|phi|^2)^2 + (a|phi|)^2 is 1 to rounding for every finite phi.
    This fails if a builder could ever hand the chain a reflection."""

    rng = np.random.default_rng(24)
    # |phi| from 1e-300 to 1e150, 200 random vectors at each power of 1e5
    phis = (10.0 ** np.arange(-300, 151, 5)[:, None, None]
            * rng.normal(size=(91, 200, 3))).reshape(-1, 3)
    # |phi|^2 overflows: _polar_increments turns by pi/2 about phi
    overflowing = (10.0 ** np.arange(160, 308, 4)[:, None, None]
                   * rng.uniform(-1.0, 1.0, size=(37, 200, 3))).reshape(-1, 3)

    @staticmethod
    def det_errors(incs):
        finite = np.isfinite(incs).all(axis=(1, 2))
        return np.abs(np.linalg.det(incs[finite]) - 1.0), finite

    @pytest.mark.parametrize("build", [exp_matrices, _polar_increments])
    def test_every_finite_increment_has_det_one(self, build):
        errors, finite = self.det_errors(build(self.phis))
        assert finite.all() and errors.max() <= 1e-14

    def test_an_overflowing_polar_increment_has_det_one(self):
        with np.errstate(over="ignore"):
            assert np.isinf(core.row_norms(self.overflowing)).all()
        errors, finite = self.det_errors(_polar_increments(self.overflowing))
        assert finite.all() and errors.max() <= 1e-14

    def test_an_overflowing_exp_increment_is_not_finite(self):
        # so the finiteness half of the increments' check rejects it
        assert not self.det_errors(exp_matrices(self.overflowing))[1].any()


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


class TestDriftOfAPropagatedTrajectory:
    profile = RateProfile(np.linspace(0.0, 1.0, 11),
                          np.column_stack([np.sin(np.arange(11.0)), np.cos(np.arange(11.0)),
                                           np.full(11, 0.5)]))

    @staticmethod
    def fresh(traj):
        return np.column_stack([traj.times, ortho_defects(traj.matrices),
                                np.abs(np.linalg.det(traj.matrices) - 1.0)])

    @pytest.mark.parametrize("method", list(Method))
    def test_is_the_fresh_measurement_bit_for_bit(self, method):
        traj = propagate(RotationMatrix.identity(), self.profile, 1e-3, method)
        drift = drift_report(traj)
        assert drift is traj.drift
        assert np.array_equal(drift.per_sample.view(np.uint64),
                              self.fresh(traj).view(np.uint64))
        assert drift.max_ortho_err == drift.per_sample[:, 1].max()
        assert drift.max_det_err == drift.per_sample[:, 2].max()

    @pytest.mark.parametrize("method", list(Method))
    def test_a_subsampled_trajectory_measures_its_own(self, method):
        full = propagate(RotationMatrix.identity(), self.profile, 1e-3, method)
        traj = Trajectory(full.times[::3], full.matrices[::3], full.method, 3 * full.dt)
        assert traj.drift is None
        drift = drift_report(traj)
        assert len(drift.per_sample) == len(traj) == 334
        assert np.array_equal(drift.per_sample, self.fresh(traj))

    def test_samples_are_measured_once(self, monkeypatch):
        """propagate then drift_report make one defect and one det pass over
        the samples; the increments get their own check."""
        seen = {"ortho_defects": [], "det": []}

        def counting(name, fn):
            def spy(mats):
                seen[name].append(mats)
                return fn(mats)
            return spy

        for module in (core, propagator):
            monkeypatch.setattr(module, "ortho_defects",
                                counting("ortho_defects", core.ortho_defects))
        monkeypatch.setattr(np.linalg, "det", counting("det", np.linalg.det))
        traj = propagate(RotationMatrix.identity(), self.profile, 1e-3, Method.EXPONENTIAL)
        drift_report(traj)
        for name, args in seen.items():
            assert sum(np.shares_memory(a, traj.matrices) for a in args) == 1, name


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_the_non_finite_time_of_a_single_sample(self, bad):
        with pytest.raises(NonUniformSampling, match=re.escape(
                f"sample 0 (t = {bad}): time is not finite")):
            Trajectory(np.array([bad]), np.eye(3)[None], "exp", 0.1)

    def test_non_uniform_times_name_the_first_step_off_the_mean(self):
        times = np.arange(11) * 0.1
        times[4] = 0.42
        with pytest.raises(NonUniformSampling, match=re.escape("sample 4 (t = 0.42): step ")):
            Trajectory(times, np.tile(np.eye(3), (11, 1, 1)), "exp", 0.1)

    # evenly spaced, so no step is off the mean: the sign of the step names them
    @pytest.mark.parametrize("times, first", [(np.zeros(21), "0.0"),
                                              (-0.01 * np.arange(21), "-0.01")])
    def test_times_that_do_not_step_forward_name_the_first_sample(self, times, first):
        with pytest.raises(NonUniformSampling, match=re.escape(
                f"sample 1 (t = {first}): step {first} is not positive; "
                "trajectory sample times must increase")):
            Trajectory(times, np.tile(np.eye(3), (21, 1, 1)), "exp", 0.01)

    # at t = 1e9 the tolerance 1e-12 * max|t| alone is 1e-3 s, a whole 1 kHz step
    @pytest.mark.parametrize("t0", [1e9, 1.7e9])
    def test_a_sample_dropped_at_an_epoch_timestamp_is_named(self, t0):
        times = np.delete(t0 + 1e-3 * np.arange(1001), 500)
        with pytest.raises(NonUniformSampling, match=re.escape(
                f"sample 500 (t = {float(times[500])}): step ")):
            uniform_step(times)

    @pytest.mark.parametrize("t0", [0.0, 1e9, 1.7e9])
    @pytest.mark.parametrize("h", [1e-3, 1e-5])
    def test_a_clean_grid_at_an_epoch_timestamp_is_uniform(self, t0, h):
        assert uniform_step(t0 + h * np.arange(1001)) == pytest.approx(h, rel=1e-3)


class TestGridCheckedOnce:
    """propagate builds its uniform grid itself, so its trajectories skip
    Trajectory's check of it; a trajectory read from a file is checked once."""

    profile = RateProfile.constant((0.3, -0.2, 1.0), 0.0, 0.5)

    @pytest.fixture
    def checks(self, monkeypatch):
        seen = []

        def spy(times):
            seen.append(len(times))
            return uniform_step(times)

        uniform_step = propagator.uniform_step
        monkeypatch.setattr(propagator, "uniform_step", spy)
        return seen

    @pytest.mark.parametrize("method", list(Method))
    def test_propagate_makes_no_check(self, checks, method):
        traj = propagate(RotationMatrix.identity(), self.profile, 0.01, method)
        assert len(traj) == 51 and checks == []
        assert not (traj.times.flags.writeable or traj.matrices.flags.writeable)

    def test_read_trajectory_checks_once(self, checks, tmp_path):
        traj = propagate(RotationMatrix.identity(), self.profile, 0.01, Method.EXPONENTIAL)
        kio.write_trajectory(tmp_path / "traj.csv", traj)
        read = kio.read_trajectory(tmp_path / "traj.csv")
        assert checks == [51] and np.array_equal(read.matrices, traj.matrices)
