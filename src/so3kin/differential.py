"""The rotation-rate identity dR/dt = hat(w) @ R and its finite-difference
verification with convergence-order estimation.

The angular velocity w is spatial: expressed in the fixed reference frame,
so the skew matrix multiplies R from the left.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import hat, log_so3
from .core import RotationMatrix, So3Error, row_norms, skew_matrices
from .propagator import NonUniformSampling, sample_rates, subsample, uniform_step

__all__ = [
    "NonUniformSampling",
    "TooFewSamples",
    "DegenerateInput",
    "ResidualReport",
    "differential_increment",
    "rotation_rate",
    "finite_difference_residual",
    "estimate_convergence_order",
    "residual_order_report",
    "geodesic_distance",
]


class TooFewSamples(So3Error):
    """Fewer samples than the operation requires."""


class DegenerateInput(So3Error):
    """Convergence-order input has fewer than two distinct positive step sizes,
    or a residual of exactly 0 at some step sizes but not all."""


@dataclass(frozen=True)
class ResidualReport:
    """Finite-difference residuals of the rate identity over a trajectory.

    per_sample is an (N, 2) array of (time, Frobenius residual) rows, one
    per interior sample.
    estimated_order is the log-log regression slope of residual vs step
    size; it is None on the one-grid report of finite_difference_residual
    and when every residual is exactly 0.
    """

    max_residual: float
    per_sample: np.ndarray
    step_sizes: list[float]
    estimated_order: Optional[float]


def differential_increment(dphi, r: RotationMatrix) -> np.ndarray:
    """Increment of R under an infinitesimal rotation: hat(dphi) @ R.

    Agrees entrywise exactly with (infinitesimal_rotation(dphi) - I) @ R.
    With a rate w in place of dphi it is the time derivative hat(w) @ R.
    """
    return hat(dphi).matrix @ r.matrix


# Time derivative of R for spatial angular velocity w: hat(w) @ R.
rotation_rate = differential_increment


def finite_difference_residual(trajectory, profile) -> ResidualReport:
    """Check a sampled trajectory against dR/dt = hat(w) @ R.

    For each interior sample k the residual is the Frobenius norm of the
    central difference (R[k+1] - R[k-1]) / (2h) minus hat(w(t_k)) @ R[k].
    Endpoints are skipped so all residuals share the O(h^2) error order.
    """
    times = np.asarray(trajectory.times, dtype=float)
    mats = np.asarray(trajectory.matrices, dtype=float)
    if len(times) < 3:
        raise TooFewSamples(f"need at least 3 samples, got {len(times)}")
    h = uniform_step(times)

    diff = (mats[2:] - mats[:-2]) / (2.0 * h)
    rates = skew_matrices(sample_rates(profile, times[1:-1]))
    residuals = row_norms((diff - rates @ mats[1:-1]).reshape(-1, 9))
    return ResidualReport(max_residual=float(residuals.max()),
                          per_sample=np.column_stack([times[1:-1], residuals]),
                          step_sizes=[h], estimated_order=None)


def estimate_convergence_order(residuals) -> float:
    """Least-squares slope of log(residual) vs log(step size)."""
    pairs = [(float(s), float(r)) for s, r in residuals]
    if len(pairs) < 2:
        raise DegenerateInput("need at least 2 (step, residual) pairs")
    steps = [s for s, _ in pairs]
    if any(s <= 0.0 for s in steps) or any(r <= 0.0 for _, r in pairs):
        raise DegenerateInput("steps and residuals must be strictly positive")
    if len(set(steps)) != len(steps):
        raise DegenerateInput("step sizes must be distinct")
    log_s = np.log([s for s, _ in pairs])
    log_r = np.log([r for _, r in pairs])
    slope, _ = np.polyfit(log_s, log_r, 1)
    return float(slope)


def residual_order_report(trajectory, profile, strides=(1, 2, 4)) -> ResidualReport:
    """Residual report across several effective step sizes.

    Subsamples the trajectory by each integer stride (step size becomes
    stride * h), evaluates the residual at each, and regresses the maxima
    to estimate the convergence order.  When every maximum is exactly 0
    (a trajectory at rest) there is no order to estimate and
    estimated_order is None.  per_sample and max_residual refer to the
    finest (smallest stride) grid.

    Raises DegenerateInput, naming the strides, unless they hold at least
    two distinct values and all are positive, or when the maximum is 0 at
    some strides but not all.
    """
    given = [int(s) for s in strides]
    strides = sorted(set(given))
    if len(strides) < 2 or strides[0] < 1:
        raise DegenerateInput(f"need at least two distinct positive strides, got {given}")
    reports = [finite_difference_residual(subsample(trajectory, s), profile) for s in strides]
    step_sizes = [rep.step_sizes[0] for rep in reports]
    zero = [s for s, rep in zip(strides, reports) if rep.max_residual == 0.0]
    if len(zero) == len(strides):
        order = None
    elif zero:
        raise DegenerateInput(f"max residual is exactly 0 at strides {zero} of {strides}: "
                              f"no convergence order")
    else:
        order = estimate_convergence_order(
            [(h, rep.max_residual) for h, rep in zip(step_sizes, reports)])
    return ResidualReport(max_residual=reports[0].max_residual,
                          per_sample=reports[0].per_sample,
                          step_sizes=step_sizes,
                          estimated_order=order)


def geodesic_distance(a: RotationMatrix, b: RotationMatrix) -> float:
    """Rotation angle separating two attitudes: ||log(a @ b^T)||."""
    rel = RotationMatrix(a.matrix @ b.matrix.T, a.tol)
    return float(np.linalg.norm(log_so3(rel)))
