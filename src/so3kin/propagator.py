"""Attitude propagation from a sampled angular-velocity profile.

Three steppers integrate dR/dt = hat(w) @ R:

* exponential: R <- exp(dt * w) @ R, stays on SO(3) to roundoff
* euler: R <- (I + hat(dt * w)) @ R, leaves the manifold at O(dt^2) per step
* euler_renorm: the Euler step followed by polar projection back onto SO(3).
  The polar factor of I + hat(phi) is the rotation by atan|phi| about phi,
  and polar(A @ R) = polar(A) @ R for orthogonal R, so each step is that
  closed-form increment times R; one batched Newton-Schulz step over the
  chained samples, X <- X (3I - X^T X) / 2, removes only their roundoff.

Euler trajectories store the raw drifted matrices; the drift is the
measurement, not an error.  Only a sample that overflows to a non-finite
entry is an error.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import _SMALL_ANGLE, exp_matrices, exp_so3, infinitesimal_matrices
from .core import (
    NonFinite,
    RotationMatrix,
    So3Error,
    _first_failure,
    _membership_terms,
    as_vec3,
    ortho_defects,
    row_norms,
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
    """Step size is nonpositive, exceeds the profile span, or makes too many steps to form."""


class Interpolation(enum.Enum):
    ZERO_ORDER_HOLD = "zoh"
    LINEAR = "linear"


class Method(enum.Enum):
    EXPONENTIAL = "exp"
    EULER = "euler"
    EULER_RENORM = "euler_renorm"


class RateSampling(enum.Enum):
    """Where the per-step angular velocity is evaluated.

    START, the default, keeps the classic first-order Euler stepper and the
    bytes propagate has always written.  With MIDPOINT euler_renorm is second
    order, like the exponential stepper: the polar factor of I + hat(phi) is
    the rotation by atan|phi| about phi, and atan t = t - t^3/3 + ..., so a
    step of dt turns O(dt^3) short of the exponential step.
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
        if times.size > 1 and (back := np.diff(times) <= 0.0).any():
            k = int(np.argmax(back)) + 1
            raise ValueError(f"sample {k} (t = {float(times[k])}): "
                             "sample times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "interpolation", Interpolation(self.interpolation))

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
    propagated from were read in deg/s.  drift is the DriftReport of these
    samples when it is already known (propagate measures it while checking
    the chain), else None and drift_report measures it.
    """

    times: np.ndarray
    matrices: np.ndarray
    method: str
    dt: float
    truncated_span: bool = False
    degrees_input: bool = False
    drift: DriftReport | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        times = _read_only(np.asarray(self.times, dtype=float).reshape(-1))
        mats = _read_only(np.asarray(self.matrices, dtype=float))
        if times.size == 0 or mats.shape != (times.size, 3, 3):
            raise ValueError(f"matrices shape {mats.shape} does not match {times.size} samples")
        if times.size > 1 or not np.isfinite(times[0]):
            uniform_step(times)  # it names a non-finite time before it needs two samples
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", mats)

    def __len__(self) -> int:
        return int(self.times.size)

    def final(self) -> np.ndarray:
        return self.matrices[-1]


def _trajectory(**values) -> Trajectory:
    """Trajectory(**values) without __post_init__, for values that already
    pass it: read-only times on the uniform grid propagate built and
    read-only matching matrices.  Fields left out take their defaults."""
    traj = object.__new__(Trajectory)
    for f in fields(Trajectory):
        object.__setattr__(traj, f.name, values.get(f.name, f.default))
    return traj


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
    finite, a step is not positive, or a step deviates from the mean h by
    more than min(1e-12 * max(1, max|t|), |h| / 4)."""
    finite = np.isfinite(times)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonUniformSampling(f"sample {k} (t = {float(times[k])}): time is not finite; "
                                 "trajectory sample times must lie on a uniform grid")
    diffs = np.diff(times)
    h = float(np.mean(diffs))
    tol = min(1e-12 * max(1.0, float(np.max(np.abs(times)))), abs(h) / 4)  # under a step
    bad = (diffs <= 0.0) | (np.abs(diffs - h) > tol)
    if bad.any():
        k = int(np.argmax(bad)) + 1
        step = float(diffs[k - 1])
        raise NonUniformSampling(f"sample {k} (t = {float(times[k])}): step {step} " + (
            "is not positive; trajectory sample times must increase" if step <= 0.0
            else f"is off the mean step {h} of a uniform grid"))
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
    slack = 1e-9 * max(1.0, tf - t0)  # relative to the span, not to where its clock starts
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
    phi = _rotation_vector(omega, dt)
    m = r.matrix if isinstance(r, RotationMatrix) else np.asarray(r, dtype=float)
    return infinitesimal_matrices(phi) @ m


def step_euler_renorm(r: RotationMatrix, omega, dt: float) -> RotationMatrix:
    """Euler step followed by polar projection back onto SO(3).

    Since polar(A @ R) = polar(A) @ R for orthogonal R, the step is the
    closed-form polar factor of I + hat(dt * omega), validated like the
    exp increment, times R; one Newton-Schulz step then removes the
    product's roundoff.  propagate corrects the uncorrected chain's samples
    instead, so a chain of these steps is within 1e-14 of it, not bit for bit.
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
    """One Newton-Schulz step towards the polar factor of each near-orthogonal
    3x3 matrix of a (..., 3, 3) stack: x (3I - x^T x) / 2, its Gram product
    on a copied transpose as in ortho_defects."""
    return np.matmul(x, _THREE_I - np.matmul(np.swapaxes(x, -1, -2).copy(), x)) * 0.5


def _check_step(dt: float) -> None:
    if not (np.isfinite(dt) and dt > 0.0):
        raise BadStep(f"dt must be positive and finite, got {dt}")


# Per method: its increments from the (n, 3) rows dt * w, whether they and its samples
# are judged as rotations (else by overflow only), and the correction of its chained samples.
_SCHEMES = {Method.EXPONENTIAL: (exp_matrices, True, None),
            Method.EULER: (infinitesimal_matrices, False, None),
            Method.EULER_RENORM: (_polar_increments, True, _newton_polar)}


def propagate(r0: RotationMatrix, profile: RateProfile, dt: float, method: Method,
              rate_sampling: RateSampling = RateSampling.START) -> Trajectory:
    """Integrate the rate identity over the profile span on a uniform grid.

    Each step's rate is sampled where rate_sampling says.  If the span is
    not an integer multiple of dt the grid is truncated to the last full
    step (never extrapolated); the truncation is recorded on the trajectory.
    The first failure is raised in step order, as step_* calls meet it:
    step k checks its dt * w, then its increment, then sample k + 1.
    """
    method, rate_sampling = Method(method), RateSampling(rate_sampling)
    _check_step(dt)
    t0, tf = profile.span
    span = tf - t0
    if span < dt:
        raise BadStep(f"dt = {dt} exceeds profile span {span}")
    ratio = span / dt
    try:
        n_steps = int(round(ratio)) if abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio) \
            else int(np.floor(ratio))
        times = t0 + dt * np.arange(n_steps + 1)
    except (OverflowError, ValueError, MemoryError):
        raise BadStep(f"dt = {dt} makes {ratio:.3g} steps over profile span {span}, "
                      "too many to form") from None
    truncated = bool(n_steps * dt < span * (1.0 - 1e-12))
    times.flags.writeable = False
    offset = 0.5 * dt if rate_sampling is RateSampling.MIDPOINT else 0.0
    phis = sample_rates(profile, times[:-1] + offset)
    with np.errstate(over="ignore"):  # an overflow is a failure of its step
        phis *= dt
    finite = np.isfinite(phis).all(axis=1)
    n = len(phis) if finite.all() else int(np.argmin(finite))  # steps before a non-finite one
    # (where, time index, error); each check sees only the steps before the last failure found
    failure = None if n == len(phis) else (f"step {n}", n, NonFinite(
        f"rotation increment dt * w has non-finite components: {phis[n]}"))
    build, rotations, correct = _SCHEMES[method]
    incs = build(phis[:n])
    if rotations:
        # Rodrigues' I + a S + b S^2 has det (1 - b|phi|^2)^2 + (a|phi|)^2 = 1: no sign to test
        with np.errstate(invalid="ignore", over="ignore"):
            bad = _first_failure(np.isfinite(incs).all(axis=(1, 2)), ortho_defects(incs), 1.0,
                                 r0.tol)
        if bad:
            n, error = bad
            failure, incs = (f"increment of step {n}", n, error), incs[:n]
    mats = np.empty((len(incs) + 1, 3, 3))
    mats[0] = r0.matrix
    # ndarray.dot is np.dot's C routine without array-function dispatch, under half np.matmul's
    # cost per 3x3 product.  A raw euler chain can overflow; its bad sample is named below.
    with np.errstate(over="ignore", invalid="ignore"):
        for inc, cur, nxt in zip(incs, mats[:-1], mats[1:]):
            inc.dot(cur, nxt)
    incs = inc = None  # inc is a view: this frees the increments before the checks below
    if correct:
        mats[1:] = correct(mats[1:])
    mats.flags.writeable = False
    finite, defects, dets = _membership_terms(mats)
    judged = (defects[1:], dets[1:]) if rotations else (0.0, 1.0)  # raw euler: overflow only
    if bad := _first_failure(finite[1:], *judged, r0.tol):
        failure = (f"sample {bad[0] + 1}", bad[0] + 1, bad[1])
    if failure:
        where, k, error = failure
        raise type(error)(f"{where} (t = {float(times[k])}): {error}")
    return _trajectory(times=times, matrices=mats, method=method.value, dt=dt,
                       truncated_span=truncated, drift=_drift(times, defects, dets))


def drift_report(traj: Trajectory) -> DriftReport:
    """Orthogonality and determinant drift at every sample: the trajectory's
    own drift when propagate measured it, else measured here."""
    if traj.drift is not None:
        return traj.drift
    return _drift(traj.times, ortho_defects(traj.matrices), np.linalg.det(traj.matrices))


def _drift(times, defects, dets) -> DriftReport:
    """The DriftReport of samples at times with these ortho defects and dets;
    its per_sample array is read-only, as the report may be shared."""
    det = np.abs(dets - 1.0)
    per_sample = np.column_stack([times, defects, det])
    per_sample.flags.writeable = False
    return DriftReport(per_sample=per_sample, max_ortho_err=float(defects.max()),
                       max_det_err=float(det.max()))
