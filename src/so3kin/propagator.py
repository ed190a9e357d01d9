"""Attitude propagation from a sampled angular-velocity profile.

Three steppers integrate dR/dt = hat(w) @ R:

* exponential: R <- exp(dt * w) @ R, stays on SO(3) to roundoff
* euler: R <- (I + hat(dt * w)) @ R, leaves the manifold at O(dt^2) per step
* euler_renorm: the Euler step followed by polar projection back onto SO(3).
  The polar factor of I + hat(phi) is the rotation by atan|phi| about phi,
  and polar(A @ R) = polar(A) @ R for orthogonal R, so each step is that
  closed-form increment times R; one Newton-Schulz step per sample,
  X <- X (3I - X^T X) / 2, removes only the roundoff of the product.

Euler trajectories store the raw drifted matrices; the drift is the
measurement, not an error.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .algebra import _SMALL_ANGLE, exp_matrices, exp_so3
from .core import (
    NonFinite,
    RotationMatrix,
    So3Error,
    as_vec3,
    first_non_rotation,
    ortho_defects,
    row_norms,
    skew_matrices,
)

__all__ = [
    "NonUniformSampling",
    "OutOfRange",
    "EmptyProfile",
    "BadStep",
    "Interpolation",
    "Method",
    "RateSampling",
    "RateProfile",
    "Trajectory",
    "DriftReport",
    "sample_rate",
    "sample_rates",
    "uniform_step",
    "step_exponential",
    "step_euler",
    "step_euler_renorm",
    "propagate",
    "subsample",
    "drift_report",
]


class NonUniformSampling(So3Error, ValueError):
    """Trajectory sample times are not uniformly spaced.

    Also a ValueError, so a malformed trajectory file reads as a parse error.
    """


class OutOfRange(So3Error):
    """Requested time lies outside the profile's sampled span."""


class EmptyProfile(So3Error):
    """Rate profile has no samples."""


class BadStep(So3Error):
    """Step size is nonpositive or exceeds the profile span."""


class Interpolation(enum.Enum):
    ZERO_ORDER_HOLD = "zoh"
    LINEAR = "linear"


class Method(enum.Enum):
    EXPONENTIAL = "exp"
    EULER = "euler"
    EULER_RENORM = "euler_renorm"


class RateSampling(enum.Enum):
    """Where the per-step angular velocity is evaluated.

    START keeps the classic first-order accuracy story for the Euler
    stepper.  With MIDPOINT evaluation euler_renorm is second order, like
    the exponential stepper: the polar factor of I + hat(phi) is the
    rotation by atan|phi| about phi, and atan t = t - t^3/3 + ..., so a
    step of dt turns O(dt^3) short of the exponential step.  START is
    therefore the default.
    """

    START = "start"
    MIDPOINT = "midpoint"


@dataclass(frozen=True)
class RateProfile:
    """Sampled angular velocity w(t), rad/s in the fixed frame.

    times: strictly increasing sample times, shape (N,)
    omegas: corresponding rate vectors, shape (N, 3)
    """

    times: np.ndarray
    omegas: np.ndarray
    interpolation: Interpolation = Interpolation.LINEAR

    def __post_init__(self):
        times = _read_only(np.asarray(self.times, dtype=float).reshape(-1))
        omegas = _read_only(np.asarray(self.omegas, dtype=float))
        if times.size == 0:
            raise EmptyProfile("rate profile has no samples")
        if omegas.shape != (times.size, 3):
            raise ValueError(f"omegas shape {omegas.shape} does not match {times.size} samples")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(omegas))):
            raise ValueError("rate profile contains non-finite values")
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "omegas", omegas)

    @classmethod
    def constant(cls, omega, t0: float, tf: float,
                 interpolation: Interpolation = Interpolation.LINEAR) -> "RateProfile":
        w = as_vec3(omega)
        return cls(np.array([t0, tf]), np.array([w, w]), interpolation)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled attitude history R(t) from one propagation run.

    Matrices are raw stepper output; for the Euler method they may have
    drifted off SO(3).  degrees_input records that the rates it was
    propagated from were read in deg/s.
    """

    times: np.ndarray
    matrices: np.ndarray
    method: str
    dt: float
    truncated_span: bool = False
    degrees_input: bool = False

    def __post_init__(self):
        times = _read_only(np.asarray(self.times, dtype=float).reshape(-1))
        mats = _read_only(np.asarray(self.matrices, dtype=float))
        if times.size == 0 or mats.shape != (times.size, 3, 3):
            raise ValueError(f"matrices shape {mats.shape} does not match {times.size} samples")
        if times.size > 1:
            uniform_step(times)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", mats)

    def __len__(self) -> int:
        return int(self.times.size)

    def final(self) -> np.ndarray:
        return self.matrices[-1]


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr itself if it is read-only, else a read-only copy: an array is
    held once, and no caller can write to it afterwards."""
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DriftReport:
    """Per-sample departure from SO(3): orthogonality and determinant errors."""

    per_sample: np.ndarray  # (N, 3) rows of (t, ortho_err, det_err)
    max_ortho_err: float
    max_det_err: float


def uniform_step(times: np.ndarray) -> float:
    """The step of a uniform time grid (at least 2 samples); raises
    NonUniformSampling, naming the first bad sample, when a time is not
    finite or an interval deviates from the mean by more than
    1e-12 * max(1, max|t|)."""
    finite = np.isfinite(times)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonUniformSampling(f"sample {k} (t = {float(times[k])}): time is not finite; "
                                 "trajectory sample times must lie on a uniform grid")
    diffs = np.diff(times)
    h = float(np.mean(diffs))
    scale = max(1.0, float(np.max(np.abs(times))))
    off = np.abs(diffs - h) > 1e-12 * scale
    if off.any():
        k = int(np.argmax(off)) + 1
        raise NonUniformSampling(f"sample {k} (t = {float(times[k])}): step {float(diffs[k - 1])} "
                                 f"is off the mean step {h} of a uniform grid")
    return h


def sample_rate(profile: RateProfile, t: float) -> np.ndarray:
    """Evaluate the profile at time t (inclusive of both endpoints).

    Zero-order hold takes the latest sample at or before t; linear
    interpolation blends the bracketing samples.  Both are exact at the
    sample times.
    """
    return sample_rates(profile, np.array([t], dtype=float))[0]


def sample_rates(profile: RateProfile, ts: np.ndarray) -> np.ndarray:
    """sample_rate at every time of a 1-D array, as an (N, 3) array.

    Raises OutOfRange naming the first time outside the span.
    """
    times, omegas = profile.times, profile.omegas
    t0, tf = profile.span
    slack = 1e-9 * max(1.0, abs(t0), abs(tf))
    outside = (ts < t0 - slack) | (ts > tf + slack)
    if outside.any():
        t = float(ts[np.argmax(outside)])
        raise OutOfRange(f"t = {t} outside profile span [{t0}, {tf}]")
    ts = np.minimum(np.maximum(ts, t0), tf)
    idx = np.searchsorted(times, ts, side="right") - 1  # ts >= times[0], so idx >= 0
    out = omegas[idx]
    if profile.interpolation is Interpolation.LINEAR:
        blend = idx < times.size - 1
        i, t = idx[blend], ts[blend]
        frac = ((t - times[i]) / (times[i + 1] - times[i]))[:, None]
        out[blend] = (1.0 - frac) * omegas[i] + frac * omegas[i + 1]
    return out


def step_exponential(r: RotationMatrix, omega, dt: float) -> RotationMatrix:
    """Exact flow of the rate identity for omega frozen over the step."""
    return RotationMatrix(exp_so3(_rotation_vector(omega, dt), r.tol).matrix @ r.matrix, r.tol)


def step_euler(r, omega, dt: float) -> np.ndarray:
    """First-order step (I + hat(dt * omega)) @ R; output is a plain matrix
    whose orthogonality defect grows as dt^2."""
    _check_step(dt)
    m = r.matrix if isinstance(r, RotationMatrix) else np.asarray(r, dtype=float)
    return (np.eye(3) + skew_matrices(dt * as_vec3(omega))) @ m


def step_euler_renorm(r: RotationMatrix, omega, dt: float) -> RotationMatrix:
    """Euler step followed by polar projection back onto SO(3).

    Since polar(A @ R) = polar(A) @ R for orthogonal R, the step is the
    closed-form polar factor of I + hat(dt * omega), validated like the
    exp increment, times R; one Newton-Schulz step then removes the
    product's roundoff.
    """
    inc = RotationMatrix(_polar_increments(_rotation_vector(omega, dt)), r.tol)
    return RotationMatrix(_newton_polar(inc.matrix @ r.matrix), r.tol)


def _rotation_vector(omega, dt: float) -> np.ndarray:
    """dt * omega of one step; NonFinite when the product overflows."""
    _check_step(dt)
    with np.errstate(over="ignore"):
        phi = dt * as_vec3(omega)
    if not np.isfinite(phi).all():
        raise NonFinite(f"rotation increment dt * w has non-finite components: {phi}")
    return phi


def _polar_increments(phis: np.ndarray) -> np.ndarray:
    """Polar factors of I + hat(phi) over (..., 3) finite vectors: the
    rotations by atan|phi| about phi, without the SO(3) check.  Where
    |phi|^2 overflows, atan|phi| rounds to pi/2 and the axis comes from phi
    scaled by its largest component."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        theta = row_norms(phis)[..., None]
        scale = np.where(theta < _SMALL_ANGLE, 1.0 - theta * theta / 3.0,
                         np.arctan(theta) / theta)
    rotvecs = scale * phis
    huge = np.isinf(theta[..., 0])
    if huge.any():
        axes = phis[huge] / np.max(np.abs(phis[huge]), axis=-1, keepdims=True)
        rotvecs[huge] = (0.5 * np.pi) * axes / row_norms(axes)[..., None]
    return exp_matrices(rotvecs)


_THREE_I = 3.0 * np.eye(3)


def _newton_polar(x: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step towards the polar factor of a near-orthogonal
    3x3 array: x (3I - x^T x) / 2."""
    return np.dot(x, _THREE_I - np.dot(x.T, x)) * 0.5


def _check_step(dt: float) -> None:
    if not (np.isfinite(dt) and dt > 0.0):
        raise BadStep(f"dt must be positive and finite, got {dt}")


def propagate(r0: RotationMatrix, profile: RateProfile, dt: float, method: Method,
              rate_sampling: RateSampling = RateSampling.START) -> Trajectory:
    """Integrate the rate identity over the profile span on a uniform grid.

    The rate for each step is evaluated at the step start (see
    RateSampling).  If the span is not an integer multiple of dt the grid
    is truncated to the last full step (never extrapolated); the
    truncation is recorded on the trajectory.
    """
    _check_step(dt)
    t0, tf = profile.span
    span = tf - t0
    if span < dt:
        raise BadStep(f"dt = {dt} exceeds profile span {span}")
    ratio = span / dt
    n_steps = int(round(ratio)) if abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio) \
        else int(np.floor(ratio))
    truncated = n_steps * dt < span * (1.0 - 1e-12)

    times = t0 + dt * np.arange(n_steps + 1)
    offset = 0.5 * dt if rate_sampling is RateSampling.MIDPOINT else 0.0
    phis = sample_rates(profile, t0 + np.arange(n_steps) * dt + offset)
    with np.errstate(over="ignore"):  # an overflow is named just below
        phis *= dt
    nonfinite = ~np.isfinite(phis).all(axis=1)
    if nonfinite.any():
        k = int(np.argmax(nonfinite))
        raise NonFinite(f"step {k} (t = {float(times[k])}): rotation increment dt * w "
                        f"has non-finite components: {phis[k]}")
    if method is Method.EXPONENTIAL:
        increments = exp_matrices(phis)
    elif method is Method.EULER_RENORM:
        increments = _polar_increments(phis)
    else:
        increments = np.eye(3) + skew_matrices(phis)

    # Only the chain R[k+1] = E[k] @ R[k] is serial.
    mats = np.empty((n_steps + 1, 3, 3))
    mats[0] = r0.matrix
    for inc, cur, nxt in zip(increments, mats[:-1], mats[1:]):
        np.dot(inc, cur, out=nxt)
        if method is Method.EULER_RENORM:
            nxt[...] = _newton_polar(nxt)
    if method is not Method.EULER:
        _check_chain(increments, mats, times, r0.tol)

    times.flags.writeable = False
    mats.flags.writeable = False
    return Trajectory(times=times, matrices=mats, method=method.value, dt=dt,
                      truncated_span=truncated)


def _check_chain(increments, mats, times, tol) -> None:
    """Raise the SO(3) error that checking each step in turn meets first:
    step k checks its increment, then the sample k + 1 it produced.  The
    message names the index and time."""
    sample = first_non_rotation(mats[1:], tol)
    inc = first_non_rotation(increments, tol)
    if inc is not None and (sample is None or inc[0] <= sample[0]):
        k, error = inc
        raise type(error)(f"increment of step {k} (t = {float(times[k])}): {error}")
    if sample is not None:
        k, error = sample
        raise type(error)(f"sample {k + 1} (t = {float(times[k + 1])}): {error}")


def subsample(traj: Trajectory, stride: int) -> Trajectory:
    """Every stride-th sample of a trajectory (effective step stride * dt)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if stride == 1:
        return traj
    return replace(traj, times=traj.times[::stride], matrices=traj.matrices[::stride],
                   dt=traj.dt * stride)


def drift_report(traj: Trajectory) -> DriftReport:
    """Measure orthogonality and determinant drift at every sample."""
    ortho = ortho_defects(traj.matrices)
    det = np.abs(np.linalg.det(traj.matrices) - 1.0)
    return DriftReport(per_sample=np.column_stack([traj.times, ortho, det]),
                       max_ortho_err=float(ortho.max()),
                       max_det_err=float(det.max()))
