import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from so3kin.algebra import (
    Axis,
    compose_fixed,
    compose_infinitesimal,
    elementary_rotation,
    exp_so3,
    hat,
    infinitesimal_matrices,
    infinitesimal_rotation,
    log_so3,
    rotation_from_frames,
    vee,
)
from so3kin.core import DegenerateFrame, Frame, NonFinite, NotProperRotation, validate_rotation
from so3kin.differential import estimate_convergence_order
from so3kin.propagator import step_euler

from oracles import matmul3, random_rotation, series_exp

component = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestHatVee:
    def test_pattern(self):
        expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
        assert np.array_equal(hat((1.0, 2.0, 3.0)).matrix, expected)

    def test_zero(self):
        assert np.array_equal(hat((0.0, 0.0, 0.0)).matrix, np.zeros((3, 3)))

    def test_z_unit(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(hat((0.0, 0.0, 1.0)).matrix, expected)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            hat((np.nan, 0.0, 0.0))

    @given(x=component, y=component, z=component)
    def test_vee_inverts_hat_exactly(self, x, y, z):
        v = np.array([x, y, z])
        assert np.array_equal(vee(hat(v)), v)

    @given(x=component, y=component, z=component, a=st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0]))
    def test_hat_is_linear(self, x, y, z, a):
        u = np.array([x, y, z])
        assert np.array_equal(hat(a * u).matrix, a * hat(u).matrix)

    def test_hat_additive(self):
        u, v = np.array([1.0, -2.0, 0.25]), np.array([0.5, 4.0, -1.0])
        assert np.array_equal(hat(u + v).matrix, hat(u).matrix + hat(v).matrix)


class TestElementaryRotation:
    def test_z_quarter_turn(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        r = elementary_rotation(Axis.Z, np.pi / 2)
        assert np.linalg.norm(r.matrix - expected) < 1e-15

    def test_zero_angle_is_identity(self):
        assert np.array_equal(elementary_rotation(Axis.X, 0.0).matrix, np.eye(3))

    def test_y_half_turn(self):
        r = elementary_rotation(Axis.Y, np.pi)
        assert np.linalg.norm(r.matrix - np.diag([-1.0, 1.0, -1.0])) < 1e-15

    @pytest.mark.parametrize("axis", list(Axis))
    def test_matches_cos_sin_oracle(self, axis):
        angle = 0.7
        c, s = np.cos(angle), np.sin(angle)
        oracle = {
            Axis.X: np.array([[1, 0, 0], [0, c, -s], [0, s, c]]),
            Axis.Y: np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]]),
            Axis.Z: np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]),
        }[axis]
        assert np.array_equal(elementary_rotation(axis, angle).matrix, oracle)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(NonFinite):
            elementary_rotation(Axis.Z, np.inf)

    def test_rejects_an_axis_that_is_not_an_axis(self):
        with pytest.raises(ValueError, match="unknown axis: 'x'"):
            elementary_rotation("x", 0.1)


class TestRotationFromFrames:
    ref = Frame(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))

    def test_same_frame_gives_identity(self):
        assert np.array_equal(rotation_from_frames(self.ref, self.ref).matrix, np.eye(3))

    def test_quarter_turn_about_k(self):
        target = Frame(np.array([0, 1.0, 0]), np.array([-1.0, 0, 0]), np.array([0, 0, 1.0]))
        # nine dot products evaluated by hand
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(rotation_from_frames(target, self.ref).matrix, expected)

    def test_left_handed_target_rejected(self):
        target = Frame(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, -1.0]))
        with pytest.raises(NotProperRotation):
            rotation_from_frames(target, self.ref)

    def test_basis_outside_the_orthogonality_test_fails_when_built(self):
        # ||B^T B - I||_F = 3.118e-9 > ortho_tol: Frame raises before
        # rotation_from_frames could raise NotOrthogonal on the same matrix
        with pytest.raises(DegenerateFrame, match="3.118e-09 exceeds ortho_tol"):
            rotation_from_frames(Frame(*((1.0 - 0.9e-9) * np.eye(3))), self.ref)


class TestComposeFixed:
    def test_identity_composition(self):
        rng = np.random.default_rng(1)
        r = validate_rotation(random_rotation(rng))
        out = compose_fixed(r, validate_rotation(np.eye(3)))
        assert np.array_equal(out.matrix, r.matrix)

    def test_x_then_z_quarter_turns(self):
        first = elementary_rotation(Axis.X, np.pi / 2)
        second = elementary_rotation(Axis.Z, np.pi / 2)
        expected = matmul3(second.matrix, first.matrix)
        assert np.linalg.norm(expected - np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 1.0, 0]])) < 1e-15
        assert np.array_equal(compose_fixed(first, second).matrix, expected)

    def test_inverse_composition_is_identity(self):
        rng = np.random.default_rng(2)
        r = validate_rotation(random_rotation(rng))
        out = compose_fixed(r, r.inverse())
        assert np.linalg.norm(out.matrix - np.eye(3)) <= 1e-14

    def test_associative(self):
        rng = np.random.default_rng(4)
        a, b, c = (validate_rotation(random_rotation(rng)) for _ in range(3))
        left = compose_fixed(compose_fixed(a, b), c)
        right = compose_fixed(a, compose_fixed(b, c))
        assert np.linalg.norm(left.matrix - right.matrix) <= 1e-13


class TestInfinitesimalRotation:
    def test_zero_is_identity(self):
        assert np.array_equal(infinitesimal_rotation((0.0, 0.0, 0.0)), np.eye(3))

    def test_single_axis_pattern(self):
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1e-3], [0.0, 1e-3, 1.0]])
        assert np.array_equal(infinitesimal_rotation((1e-3, 0.0, 0.0)), expected)

    def test_equals_identity_plus_hat(self):
        d = np.array([0.3, -0.1, 0.7])
        assert np.array_equal(infinitesimal_rotation(d), np.eye(3) + hat(d).matrix)
        # the stack form is the one I + hat(phi): per row, and inside step_euler, bit for bit
        rng = np.random.default_rng(21)
        phis = rng.normal(scale=0.1, size=(50, 3))
        per_row = np.array([infinitesimal_rotation(phi) for phi in phis])
        stack = infinitesimal_matrices(phis)
        assert np.array_equal(stack.view(np.uint64), per_row.view(np.uint64))
        r, w, dt = random_rotation(rng), rng.normal(size=3), 1e-3
        assert np.array_equal(step_euler(r, w, dt).view(np.uint64),
                              (infinitesimal_rotation(dt * w) @ r).view(np.uint64))

    def test_order_independence_and_first_order_accuracy(self):
        # all 6 orderings of elementary rotations by (eps, eps, eps) agree
        # with I + hat to O(eps^2), and with each other
        residuals, pair_residuals = [], []
        eps_values = (1e-2, 1e-3, 1e-4)
        for eps in eps_values:
            m = infinitesimal_rotation((eps, eps, eps))
            products = []
            for perm in itertools.permutations((Axis.X, Axis.Y, Axis.Z)):
                p = np.eye(3)
                for axis in perm:
                    p = elementary_rotation(axis, eps).matrix @ p
                products.append(p)
            res = max(np.linalg.norm(p - m) for p in products)
            pair = max(np.linalg.norm(a - b) for a, b in itertools.combinations(products, 2))
            assert res <= 3.0 * eps * eps
            assert pair <= 3.0 * eps * eps
            residuals.append(res)
            pair_residuals.append(pair)
        slope = estimate_convergence_order(list(zip(eps_values, residuals)))
        assert abs(slope - 2.0) <= 0.1
        slope = estimate_convergence_order(list(zip(eps_values, pair_residuals)))
        assert abs(slope - 2.0) <= 0.1


class TestComposeInfinitesimal:
    def test_componentwise_sum(self):
        out = compose_infinitesimal((1e-4, 0.0, 0.0), (0.0, 2e-4, 0.0))
        assert np.array_equal(out, np.array([1e-4, 2e-4, 0.0]))

    def test_additive_identity(self):
        d = np.array([1e-3, -2e-3, 5e-4])
        assert np.array_equal(compose_infinitesimal(d, (0.0, 0.0, 0.0)), d)

    def test_additive_inverse(self):
        d = np.array([1e-3, 1e-3, 1e-3])
        assert np.array_equal(compose_infinitesimal(d, -d), np.zeros(3))

    def test_commutativity_and_additivity_at_second_order(self):
        rng = np.random.default_rng(12345)
        pairs = rng.uniform(-1.0, 1.0, size=(100, 2, 3))
        for eps in (1e-2, 1e-3, 1e-4):
            for u, v in pairs:
                d1, d2 = eps * u, eps * v
                m1 = infinitesimal_rotation(d1)
                m2 = infinitesimal_rotation(d2)
                ms = infinitesimal_rotation(compose_infinitesimal(d1, d2))
                assert np.linalg.norm(m1 @ m2 - ms) <= 3.0 * eps * eps
                assert np.linalg.norm(m1 @ m2 - m2 @ m1) <= 3.0 * eps * eps


class TestExpLog:
    def test_exp_of_zero(self):
        assert np.array_equal(exp_so3((0.0, 0.0, 0.0)).matrix, np.eye(3))

    def test_exp_quarter_turn_z(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        r = exp_so3((0.0, 0.0, np.pi / 2))
        assert np.linalg.norm(r.matrix - expected) <= 1e-14
        assert np.linalg.norm(r.matrix - series_exp(hat((0.0, 0.0, np.pi / 2)).matrix)) <= 1e-14

    def test_exp_half_turn_x(self):
        r = exp_so3((np.pi, 0.0, 0.0))
        assert np.linalg.norm(r.matrix - np.diag([1.0, -1.0, -1.0])) <= 1e-14
        assert np.linalg.norm(r.matrix - series_exp(hat((np.pi, 0.0, 0.0)).matrix)) <= 1e-14

    def test_exp_matches_truncated_series(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            phi = rng.normal(size=3)
            phi *= rng.uniform(0.0, np.pi) / np.linalg.norm(phi)
            diff = exp_so3(phi).matrix - series_exp(hat(phi).matrix)
            assert np.linalg.norm(diff) <= 1e-12

    def test_exp_small_angle_branch(self):
        phi = np.array([1e-9, -2e-9, 0.5e-9])
        diff = exp_so3(phi).matrix - series_exp(hat(phi).matrix)
        assert np.linalg.norm(diff) <= 1e-15

    def test_log_of_identity(self):
        assert np.array_equal(log_so3(validate_rotation(np.eye(3))), np.zeros(3))

    def test_log_quarter_turn_z(self):
        r = validate_rotation([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.linalg.norm(log_so3(r) - np.array([0.0, 0.0, np.pi / 2])) <= 1e-14

    def test_log_half_turn_canonical_axis_sign(self):
        r = validate_rotation(np.diag([1.0, -1.0, -1.0]))
        phi = log_so3(r)
        assert np.linalg.norm(phi - np.array([np.pi, 0.0, 0.0])) <= 1e-12
        assert np.linalg.norm(exp_so3(phi).matrix - r.matrix) <= 1e-12

    def test_log_half_turn_negative_axis_canonicalized(self):
        # rotation by pi about -z equals rotation by pi about +z
        phi = log_so3(exp_so3((0.0, 0.0, -np.pi)))
        assert phi[2] > 0.0
        assert abs(np.linalg.norm(phi) - np.pi) <= 1e-9

    def test_log_exact_half_turn_flips_a_negative_first_component(self):
        # 2 a a^T - I for a = (-0.6, 0.8, 0): symmetric, so sin(theta) is exactly 0
        r = validate_rotation([[-0.28, -0.96, 0.0], [-0.96, 0.28, 0.0], [0.0, 0.0, -1.0]])
        assert np.max(np.abs(log_so3(r) - np.pi * np.array([0.6, -0.8, 0.0]))) <= 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            phi = rng.normal(size=3)
            phi *= rng.uniform(0.0, np.pi - 0.1) / np.linalg.norm(phi)
            back = log_so3(exp_so3(phi))
            assert np.linalg.norm(back - phi) <= 1e-9

    def test_round_trip_near_pi(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            phi = rng.normal(size=3)
            phi *= (np.pi - 1e-5) / np.linalg.norm(phi)
            back = log_so3(exp_so3(phi))
            assert np.linalg.norm(exp_so3(back).matrix - exp_so3(phi).matrix) <= 1e-9

    @pytest.mark.parametrize("k", range(9))
    def test_round_trip_up_to_pi(self, k):
        rng = np.random.default_rng(9)
        for _ in range(200):
            axis = rng.normal(size=3)
            r = exp_so3((np.pi - 10.0 ** -k) * axis / np.linalg.norm(axis))
            assert np.linalg.norm(exp_so3(log_so3(r)).matrix - r.matrix) <= 1e-14

    @given(offset_exp=st.floats(min_value=-9.0, max_value=-3.0),
           near_pi=st.booleans(),
           axis=st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3))
    def test_angle_accurate_near_zero_and_pi(self, offset_exp, near_pi, axis):
        axis = np.array(axis)
        assume(np.linalg.norm(axis) > 1e-3)
        offset = 10.0 ** offset_exp
        angle = np.pi - offset if near_pi else offset
        phi = angle * axis / np.linalg.norm(axis)
        r = validate_rotation(series_exp(hat(phi).matrix))
        assert abs(np.linalg.norm(log_so3(r)) - angle) <= 1e-12

