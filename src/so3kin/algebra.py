"""Static rotation algebra: hat/vee, elementary and frame-derived rotations,
fixed-frame composition, infinitesimal rotations, and the exp/log bridge.

Composition is always with respect to the fixed reference frame: applying
rotation A first and then B yields the product B @ A.
"""
from __future__ import annotations

import enum

import numpy as np

from .core import (
    DEFAULT_TOL,
    Frame,
    NonFinite,
    RotationMatrix,
    SkewMatrix,
    ToleranceConfig,
    as_vec3,
    row_norms,
    skew_matrices,
)

__all__ = [
    "Axis",
    "hat",
    "vee",
    "elementary_rotation",
    "rotation_from_frames",
    "compose_fixed",
    "infinitesimal_rotation",
    "compose_infinitesimal",
    "exp_so3",
    "exp_matrices",
    "log_so3",
]


_SMALL_ANGLE = 1e-7  # radians below which exp and log use their Taylor expansions
_LOG_NEAR_PI = 1e-3  # radians from pi below which the symmetric-part branch is used


class Axis(enum.Enum):
    X = "x"
    Y = "y"
    Z = "z"


def hat(v) -> SkewMatrix:
    """Map a 3-vector to its skew-symmetric matrix:

    hat((x, y, z)) = [[0, -z, y], [z, 0, -x], [-y, x, 0]]
    """
    return SkewMatrix(v)


def vee(s: SkewMatrix) -> np.ndarray:
    """Inverse of hat: recover the generating vector, exactly."""
    return s.v


def elementary_rotation(axis: Axis, angle: float, tol: ToleranceConfig = DEFAULT_TOL) -> RotationMatrix:
    """Right-handed rotation about one of the fixed coordinate axes."""
    if not np.isfinite(angle):
        raise NonFinite(f"angle is not finite: {angle}")
    c, s = np.cos(angle), np.sin(angle)
    if axis is Axis.X:
        m = [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]
    elif axis is Axis.Y:
        m = [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]
    elif axis is Axis.Z:
        m = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    else:
        raise ValueError(f"unknown axis: {axis!r}")
    return RotationMatrix(m, tol)


def rotation_from_frames(target: Frame, reference: Frame, tol: ToleranceConfig = DEFAULT_TOL) -> RotationMatrix:
    """Rotation matrix representing `target` with respect to `reference`.

    Entry (r, c) is the dot product of the c-th basis vector of the target
    frame with the r-th basis vector of the reference frame, so each column
    is a target basis vector expressed in reference coordinates.  Frames
    of opposite handedness give det < 0: NotProperRotation.
    """
    return RotationMatrix(reference.basis.T @ target.basis, tol)


def compose_fixed(first: RotationMatrix, second: RotationMatrix) -> RotationMatrix:
    """Compose two rotations performed about the fixed reference frame.

    The rotation applied first appears on the right: result = second @ first.
    """
    return RotationMatrix(second.matrix @ first.matrix, first.tol)


def infinitesimal_rotation(dphi) -> np.ndarray:
    """First-order rotation matrix I + hat(dphi) for an infinitesimal rotation.

    Returned as a plain 3x3 array, not a RotationMatrix: it is orthogonal
    only to first order in ||dphi||.
    """
    return np.eye(3) + skew_matrices(as_vec3(dphi))


def compose_infinitesimal(d1, d2) -> np.ndarray:
    """Compose two infinitesimal rotations: componentwise addition."""
    return as_vec3(d1) + as_vec3(d2)


def exp_so3(phi, tol: ToleranceConfig = DEFAULT_TOL) -> RotationMatrix:
    """Exponential map (Rodrigues formula) from an axis-angle vector.

    R = I + a * hat(phi) + b * hat(phi)^2 with a = sin(t)/t and
    b = (1 - cos(t))/t^2, t = ||phi||, or their Taylor expansions below
    _SMALL_ANGLE, as in log_so3.  R must pass the membership test of tol:
    ||R^T R - I||_F <= tol.ortho_tol and det R > 0.
    """
    return RotationMatrix(exp_matrices(as_vec3(phi)), tol)


def exp_matrices(phis: np.ndarray) -> np.ndarray:
    """The Rodrigues formula of exp_so3 over (..., 3) finite axis-angle
    vectors, giving (..., 3, 3) matrices without the SO(3) check.  A vector
    whose squared norm overflows gives a non-finite matrix, silently: the
    check rejects it."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        theta = row_norms(phis)[..., None, None]
        t2 = theta * theta
        a = np.where(theta < _SMALL_ANGLE, 1.0 - t2 / 6.0, np.sin(theta) / theta)
        b = np.where(theta < _SMALL_ANGLE, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / t2)
        s = skew_matrices(phis)
        return np.eye(3) + a * s + b * (s @ s)


def log_so3(r: RotationMatrix) -> np.ndarray:
    """Logarithm map: canonical axis-angle vector with norm in [0, pi].

    At angle pi the axis sign is ambiguous; it is canonicalized so the
    first nonzero component among (x, y, z) is positive.
    """
    m = r.matrix
    # (m - m^T)/2 = sin(theta) * hat(axis)
    w = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]]) / 2.0
    sin_theta = float(np.linalg.norm(w))
    cos_theta = np.clip((np.trace(m) - 1.0) / 2.0, -1.0, 1.0)
    # atan2 keeps the angle accurate near 0 and pi, where arccos is ill-conditioned.
    theta = float(np.arctan2(sin_theta, cos_theta))

    if theta < _SMALL_ANGLE:
        # phi = theta * axis = w * (theta / sin theta); correction is O(theta^3)
        return w
    if theta < np.pi - _LOG_NEAR_PI:
        return (theta / np.sin(theta)) * w

    # Near pi: recover axis*axis^T from the symmetric part.
    outer = ((m + m.T) / 2.0 - cos_theta * np.eye(3)) / (1.0 - cos_theta)
    k = int(np.argmax(np.diag(outer)))
    axis = outer[:, k] / np.sqrt(outer[k, k])
    if sin_theta > 1e-12:
        if float(axis @ w) < 0.0:
            axis = -axis
    else:
        for comp in axis:
            if abs(comp) > 1e-12:
                if comp < 0.0:
                    axis = -axis
                break
    return theta * axis
