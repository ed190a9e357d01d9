"""so3kin: rotation kinematics on SO(3).

Validated rotation matrices, the hat/vee isomorphism, fixed-frame and
infinitesimal composition, the exp/log bridge, the rate identity
dR/dt = hat(w) @ R, finite-difference verification, and attitude
propagation from sampled angular-velocity profiles.
"""
from .core import (
    DEFAULT_TOL,
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
    project_to_so3,
    skew_from_matrix,
    validate_rotation,
)
from .algebra import (
    Axis,
    compose_fixed,
    compose_infinitesimal,
    elementary_rotation,
    exp_so3,
    hat,
    infinitesimal_rotation,
    log_so3,
    rotation_from_frames,
    vee,
)
from .differential import (
    DegenerateInput,
    NonUniformSampling,
    ResidualReport,
    TooFewSamples,
    differential_increment,
    estimate_convergence_order,
    finite_difference_residual,
    geodesic_distance,
    residual_order_report,
    rotation_rate,
)
from .propagator import (
    BadStep,
    DriftReport,
    EmptyProfile,
    Interpolation,
    Method,
    OutOfRange,
    RateProfile,
    RateSampling,
    Trajectory,
    drift_report,
    propagate,
    sample_rate,
    step_euler,
    step_euler_renorm,
    step_exponential,
    subsample,
)

__version__ = "0.1.0"
