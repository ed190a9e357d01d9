"""Closed-form spinning cone: the benchmark's seeded input family and oracle.

The attitude is

    R(t) = Q . Rc(t) . Rz(sigma t) . Q^T,   Rc(t) = Rz(a) Rx(beta) Rz(-a),
    a = Omega t + phase,

and it solves dR/dt = hat(w) R exactly for the spatial rate

    w(t) = Q (Omega z + (sigma - Omega) Rc(t) z).

Omega, beta and sigma are fixed: they set every method's truncation error
and the verdict of `so3kin verify`.  The seed draws only Q and the phase,
which conjugate the whole problem, so accuracy figures are seed-invariant
up to roundoff while the input files differ from seed to seed.

Everything here is plain numpy; nothing calls so3kin, so the closed form
and the error measure stay independent of the code they check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OMEGA = 2.0 * np.pi * 0.1  # cone precession rate, rad/s
BETA = 0.2                 # cone half-angle, rad
SIGMA = 2.0                # spin about the cone axis, rad/s

PROFILE_HEADER = "t,wx,wy,wz"
TRAJECTORY_HEADER = "t,r11,r12,r13,r21,r22,r23,r31,r32,r33,ortho_err,det_err"


def _rz(a: np.ndarray) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    out = np.zeros(a.shape + (3, 3))
    out[..., 0, 0], out[..., 0, 1] = c, -s
    out[..., 1, 0], out[..., 1, 1] = s, c
    out[..., 2, 2] = 1.0
    return out


def _rx(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed rotation from a normalised Gaussian quaternion."""
    quat = rng.standard_normal(4)
    w, x, y, z = quat / np.linalg.norm(quat)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@dataclass(frozen=True)
class Cone:
    """One seeded instance of the spinning cone."""

    q: np.ndarray
    phase: float

    @classmethod
    def from_seed(cls, seed: int) -> "Cone":
        rng = np.random.default_rng(seed)
        q = random_rotation(rng)
        return cls(q=q, phase=float(rng.uniform(0.0, 2.0 * np.pi)))

    def _rc(self, t: np.ndarray) -> np.ndarray:
        a = OMEGA * t + self.phase
        return _rz(a) @ _rx(BETA) @ _rz(-a)

    def attitude(self, t) -> np.ndarray:
        """R(t), shape t.shape + (3, 3)."""
        t = np.asarray(t, dtype=float)
        return self.q @ self._rc(t) @ _rz(SIGMA * t) @ self.q.T

    def rate(self, t) -> np.ndarray:
        """Spatial angular velocity w(t), shape t.shape + (3,)."""
        t = np.asarray(t, dtype=float)
        z = np.array([0.0, 0.0, 1.0])
        body = OMEGA * z + (SIGMA - OMEGA) * (self._rc(t) @ z)
        return body @ self.q.T


def vee_skew(e: np.ndarray) -> np.ndarray:
    """vee((E - E^T) / 2) for a stack of 3x3 matrices."""
    return 0.5 * np.stack([e[..., 2, 1] - e[..., 1, 2],
                           e[..., 0, 2] - e[..., 2, 0],
                           e[..., 1, 0] - e[..., 0, 1]], axis=-1)


def geodesic_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle of a @ b^T by atan2(||vee(skew)||, (tr - 1) / 2).

    atan2 keeps full relative accuracy for small angles, where
    arccos((tr - 1) / 2) loses about half the digits.
    """
    e = np.asarray(a) @ np.asarray(b).T
    return float(np.arctan2(np.linalg.norm(vee_skew(e)), (np.trace(e) - 1.0) / 2.0))


def ortho_det_errors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix ||M^T M - I||_F and |det M - 1|."""
    gram = np.swapaxes(mats, -1, -2) @ mats - np.eye(3)
    return np.linalg.norm(gram, axis=(-2, -1)), np.abs(np.linalg.det(mats) - 1.0)


def fmt(x: float) -> str:
    """17 significant digits: enough for a bit-exact round trip."""
    return f"{float(x) + 0.0:.17g}"


def write_profile(path, times: np.ndarray, rates: np.ndarray) -> None:
    lines = [PROFILE_HEADER]
    lines += [",".join(map(fmt, (t, *w))) for t, w in zip(times, rates)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_trajectory(path, times: np.ndarray, mats: np.ndarray, dt: float) -> None:
    ortho, det = ortho_det_errors(mats)
    lines = ["# closed-form spinning cone", "# method=closed_form", f"# dt={fmt(dt)}",
             TRAJECTORY_HEADER]
    lines += [",".join(map(fmt, (t, *m.reshape(9), o, d)))
              for t, m, o, d in zip(times, mats, ortho, det)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_matrix(path, m: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("\n".join(",".join(map(fmt, row)) for row in m) + "\n")
