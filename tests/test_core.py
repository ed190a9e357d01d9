import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from so3kin.core import (
    DegenerateFrame,
    Frame,
    NonFinite,
    NotOrthogonal,
    NotProjectable,
    NotProperRotation,
    NotSkewSymmetric,
    RotationMatrix,
    SkewMatrix,
    So3Error,
    ToleranceConfig,
    as_mat3,
    as_vec3,
    ortho_defect,
    project_to_so3,
    skew_from_matrix,
    validate_rotation,
)

from oracles import matmul3, random_rotation, svd_project, two_tolerance_membership

finite_component = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.ortho_tol == 1e-9

    @pytest.mark.parametrize("kwargs", [
        {"ortho_tol": 0.0},
        {"ortho_tol": 1e-2},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceConfig(**kwargs)


class TestValidateRotation:
    def test_identity_accepted(self):
        r = validate_rotation(np.eye(3))
        assert np.array_equal(r.matrix, np.eye(3))

    def test_reflection_rejected(self):
        with pytest.raises(NotProperRotation):
            validate_rotation(np.diag([1.0, 1.0, -1.0]))

    def test_quarter_turn_accepted(self):
        m = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        # direct 3x3 arithmetic: columns orthonormal, det = +1
        assert np.array_equal(m.T @ m, np.eye(3))
        assert np.linalg.det(m) == 1.0
        r = validate_rotation(m)
        assert np.array_equal(r.matrix, m)

    def test_non_finite_rejected(self):
        m = np.eye(3).copy()
        m[0, 0] = np.nan
        with pytest.raises(NonFinite):
            validate_rotation(m)

    def test_ortho_defect_rejected(self):
        with pytest.raises(NotOrthogonal):
            validate_rotation(np.eye(3) * (1.0 + 1e-6))

    def test_matrix_is_immutable(self):
        r = validate_rotation(np.eye(3))
        with pytest.raises(ValueError):
            r.matrix[0, 0] = 2.0

    def test_custom_tolerance_widens_gate(self):
        m = np.eye(3) * (1.0 + 1e-7)
        with pytest.raises(NotOrthogonal):
            validate_rotation(m)
        loose = ToleranceConfig(ortho_tol=1e-5)
        assert validate_rotation(m, loose) is not None

    def test_loose_ortho_tol_alone_accepts_noisy_rotation(self):
        # defect ~3e-6: orthogonal within 1e-5, and det is near +1
        rng = np.random.default_rng(8)
        m = random_rotation(rng) + 1e-6 * rng.normal(size=(3, 3))
        assert 1e-6 < ortho_defect(m) < 1e-5
        assert np.array_equal(validate_rotation(m, ToleranceConfig(ortho_tol=1e-5)).matrix, m)

    def test_near_reflection_is_not_proper(self):
        m = np.diag([1.0, 1.0, -1.0]) * (1.0 + 1e-7)
        with pytest.raises(NotProperRotation, match="det = -1.000000 is not positive"):
            validate_rotation(m, ToleranceConfig(ortho_tol=1e-5))

    @given(seed=st.integers(0, 2 ** 32 - 1), log_noise=st.floats(-15.0, -3.0),
           log_tol=st.floats(-12.0, -2.1), reflect=st.booleans())
    def test_membership_matches_two_tolerance_oracle(self, seed, log_noise, log_tol, reflect):
        # |det M - 1| <= (sqrt(3)/2) ||M^T M - I||_F to first order, so the
        # sign of det decides exactly what a det_tol = ortho_tol test did.
        rng = np.random.default_rng(seed)
        m = random_rotation(rng) + 10.0 ** log_noise * rng.normal(size=(3, 3))
        if reflect:
            m = m @ np.diag([1.0, 1.0, -1.0])
        tol = ToleranceConfig(ortho_tol=10.0 ** log_tol)
        defect = np.linalg.norm(m.T @ m - np.eye(3))
        assume(abs(defect - tol.ortho_tol) > 1e-6 * tol.ortho_tol)
        try:
            RotationMatrix(m, tol)
            verdict = None
        except So3Error as exc:
            verdict = type(exc).__name__
        assert verdict == two_tolerance_membership(m, tol.ortho_tol)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        r = validate_rotation(random_rotation(rng))
        assert np.linalg.norm(r.inverse().matrix @ r.matrix - np.eye(3)) < 1e-14


@pytest.mark.parametrize("coerce, value, message", [
    (as_vec3, [1.0, 2.0], "expected 3 components, got shape (2,)"),
    (as_mat3, np.eye(2), "expected a 3x3 matrix, got shape (2, 2)"),
])
def test_coercion_rejects_another_shape(coerce, value, message):
    with pytest.raises(ValueError) as info:
        coerce(value)
    assert str(info.value) == message


class TestSkewMatrix:
    def test_materialized_form(self):
        s = SkewMatrix(np.array([1.0, 2.0, 3.0]))
        expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
        assert np.array_equal(s.matrix, expected)

    @given(x=finite_component, y=finite_component, z=finite_component)
    def test_exactly_skew_with_zero_diagonal(self, x, y, z):
        m = SkewMatrix(np.array([x, y, z])).matrix
        assert np.array_equal(m + m.T, np.zeros((3, 3)))
        assert m[0, 0] == 0.0 and m[1, 1] == 0.0 and m[2, 2] == 0.0
        assert np.trace(m) == 0.0

    def test_skew_from_matrix_round_trip(self):
        s = SkewMatrix(np.array([-0.5, 0.25, 0.0]))
        assert np.array_equal(skew_from_matrix(s.matrix).v, s.v)

    def test_skew_from_matrix_rejects_non_skew(self):
        with pytest.raises(NotSkewSymmetric):
            skew_from_matrix(np.eye(3))


class TestProjectToSo3:
    def test_fixed_point_on_exact_rotation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = random_rotation(rng)
            p = project_to_so3(r)
            assert np.linalg.norm(p.matrix - r) <= 1e-14

    def test_small_skew_perturbation(self):
        m = np.eye(3) + SkewMatrix(np.array([1e-3, 0.0, 0.0])).matrix
        p = project_to_so3(m)
        assert ortho_defect(p.matrix) <= 1e-14
        assert np.linalg.norm(p.matrix - m) <= 1e-6
        # independent SVD oracle
        assert np.linalg.norm(p.matrix - svd_project(m)) <= 1e-13

    def test_matches_svd_oracle_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = random_rotation(rng) + 1e-2 * rng.normal(size=(3, 3))
            if np.linalg.det(m) <= 0:
                continue
            p = project_to_so3(m)
            assert np.linalg.norm(p.matrix - svd_project(m)) <= 1e-12

    @given(entries=st.lists(finite_component, min_size=9, max_size=9))
    @example(entries=[0, 0, 0, 1, 0, 0, 0, 2.225073858507e-311, 1])
    def test_defining_condition_of_polar_factor(self, entries):
        # P is the polar factor of m exactly when P^T m is symmetric
        # positive definite; checked without any factorization.
        m = np.array(entries).reshape(3, 3)
        size = np.linalg.norm(m)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = np.linalg.det(m)  # a subnormal entry warns inside the LU factorization
        assume(det > 1e-6 * size ** 3)
        p = project_to_so3(m).matrix
        h = p.T @ m
        assert np.linalg.norm(h - h.T) <= 1e-12 * size
        assert np.all(np.linalg.eigvalsh(0.5 * (h + h.T)) > 0.0)

    def test_tiny_singular_value(self):
        p = project_to_so3(np.diag([1e-300, 1.0, 1.0]))
        assert np.array_equal(p.matrix, np.eye(3))

    def test_negative_determinant_rejected(self):
        with pytest.raises(NotProjectable):
            project_to_so3(np.diag([-1.0, 1.0, 1.0]))

    def test_singular_rejected(self):
        with pytest.raises(NotProjectable):
            project_to_so3(np.diag([1.0, 1.0, 0.0]))

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = random_rotation(rng) + 1e-3 * rng.normal(size=(3, 3))
            once = project_to_so3(m).matrix
            twice = project_to_so3(once).matrix
            assert np.linalg.norm(twice - once) <= 1e-13

    def test_recovers_rotation_from_small_perturbation(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            r = random_rotation(rng)
            e = rng.normal(size=(3, 3))
            e *= 1e-4 / np.linalg.norm(e) * rng.uniform(0.1, 1.0)
            p = project_to_so3(r @ (np.eye(3) + e))
            assert np.linalg.norm(p.matrix - r) <= 10.0 * np.linalg.norm(e)


class TestFrame:
    def test_standard_frame(self):
        f = Frame(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
        assert f.is_right_handed()
        assert np.array_equal(f.basis, np.eye(3))

    def test_non_unit_basis_rejected(self):
        with pytest.raises(DegenerateFrame):
            Frame(np.array([2.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))

    def test_non_orthogonal_basis_rejected(self):
        s = 1.0 / np.sqrt(2.0)
        with pytest.raises(DegenerateFrame):
            Frame(np.array([1.0, 0, 0]), np.array([s, s, 0.0]), np.array([0, 0, 1.0]))

    def test_left_handed_detected(self):
        f = Frame(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, -1.0]))
        assert not f.is_right_handed()

    def test_handedness_is_the_sign_of_det_at_the_tolerance_edge(self):
        # ||B^T B - I||_F = 2 * sqrt(3) * 0.9e-9 = 3.1e-9 > ortho_tol: not a frame
        for scale in (1.0 - 0.9e-9, 0.9e-9 - 1.0):
            with pytest.raises(DegenerateFrame):
                Frame(*(scale * np.eye(3)))
        # ||B^T B - I||_F = 2 * sqrt(3) * 2.5e-10 = 8.66e-10 <= ortho_tol: a frame
        assert Frame(*((1.0 - 2.5e-10) * np.eye(3))).is_right_handed()
        assert not Frame(*((2.5e-10 - 1.0) * np.eye(3))).is_right_handed()

    @given(seed=st.integers(0, 2 ** 32 - 1), log_noise=st.floats(-15.0, 0.0),
           log_tol=st.floats(-12.0, -2.1), reflect=st.booleans())
    def test_accepts_exactly_the_bases_within_the_gram_defect(self, seed, log_noise,
                                                             log_tol, reflect):
        rng = np.random.default_rng(seed)
        b = random_rotation(rng) + 10.0 ** log_noise * rng.normal(size=(3, 3))
        if reflect:
            b = b @ np.diag([1.0, 1.0, -1.0])
        tol = ToleranceConfig(ortho_tol=10.0 ** log_tol)
        gram = matmul3(b.T, b) - np.eye(3)
        defect = np.sqrt(np.sum(gram * gram))
        assume(abs(defect - tol.ortho_tol) > 1e-6 * tol.ortho_tol)
        try:
            Frame(b[:, 0], b[:, 1], b[:, 2], tol)
            accepted = True
        except DegenerateFrame:
            accepted = False
        assert accepted == (defect <= tol.ortho_tol)
