"""The closed-form cone is an exact solution of dR/dt = hat(w) R.

Checked with plain numpy (a local skew matrix and central differences),
never with so3kin's hat or exp_so3, so the oracle does not lean on the
code it gates.
"""
import numpy as np
import pytest

import cone


def skew(v):
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def central_residual(c, t, h):
    diff = (c.attitude(t + h) - c.attitude(t - h)) / (2.0 * h)
    return np.linalg.norm(diff - skew(c.rate(t)) @ c.attitude(t))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_closed_form_solves_rate_identity_to_second_order(seed):
    c = cone.Cone.from_seed(seed)
    for t in (0.0, 0.37, 1.9):
        coarse, fine = central_residual(c, t, 2e-3), central_residual(c, t, 1e-3)
        assert coarse < 1e-5
        # halving h divides an O(h^2) residual by 4
        assert 3.6 < coarse / fine < 4.4


def test_attitudes_are_rotations_and_seed_fixes_inputs():
    t = np.linspace(0.0, 2.0, 11)
    mats = cone.Cone.from_seed(3).attitude(t)
    ortho, det = cone.ortho_det_errors(mats)
    assert ortho.max() < 1e-14 and det.max() < 1e-14
    assert np.array_equal(mats, cone.Cone.from_seed(3).attitude(t))
    assert not np.allclose(mats, cone.Cone.from_seed(4).attitude(t))


def test_rate_magnitude_is_fixed_by_the_cone_not_the_seed():
    t = np.linspace(0.0, 2.0, 5)
    norms = [np.linalg.norm(cone.Cone.from_seed(s).rate(t), axis=1) for s in (0, 9)]
    expected = np.hypot(cone.SIGMA - cone.OMEGA + cone.OMEGA * np.cos(cone.BETA),
                        cone.OMEGA * np.sin(cone.BETA))
    assert np.allclose(norms, expected, rtol=1e-14)


@pytest.mark.parametrize("angle", [1e-9, 1e-4, 0.5, np.pi - 1e-6])
def test_geodesic_angle_of_a_known_rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    q = cone.random_rotation(np.random.default_rng(5))
    got = cone.geodesic_angle(q @ rz @ q.T, np.eye(3))
    assert got == pytest.approx(angle, rel=1e-6)
