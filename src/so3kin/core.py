"""Value types and validation for 3x3 rotation matrices.

Conventions used throughout the package:

* all angles are radians, all rates are rad/s
* vectors are numpy arrays of shape (3,), matrices of shape (3, 3)
* matrices are row-major when flattened or serialized
* every value type is immutable; operations are pure functions
* row_norms, ortho_defects, skew_matrices and first_non_rotation are the
  unchecked array path on raw (N, 3, 3) stacks that the package uses
  internally; the value types are their one-matrix case
* a rotation matrix and a Frame's basis [i j k] pass one orthogonality
  test, ||M^T M - I||_F <= ortho_tol; det > 0 makes M a rotation and
  makes the frame right-handed
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "So3Error",
    "NonFinite",
    "NotOrthogonal",
    "NotProperRotation",
    "NotSkewSymmetric",
    "NotProjectable",
    "DegenerateFrame",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_vec3",
    "as_mat3",
    "ortho_defect",
    "ortho_defects",
    "row_norms",
    "first_non_rotation",
    "RotationMatrix",
    "SkewMatrix",
    "skew_matrices",
    "skew_from_matrix",
    "Frame",
    "validate_rotation",
    "project_to_so3",
]


class So3Error(Exception):
    """Base class for every error raised by this package."""


class NonFinite(So3Error):
    """An input contains NaN or infinite entries."""


class NotOrthogonal(So3Error):
    """Matrix fails the orthogonality test ||M^T M - I||_F <= ortho_tol."""


class NotProperRotation(So3Error):
    """Matrix is orthogonal but has det <= 0: a reflection, det near -1."""


class NotSkewSymmetric(So3Error):
    """Matrix is not skew-symmetric within tolerance."""


class NotProjectable(So3Error):
    """Matrix has nonpositive determinant; no nearest proper rotation."""


class DegenerateFrame(So3Error):
    """Frame basis B = [i j k] fails ||B^T B - I||_F <= ortho_tol."""


def as_vec3(v) -> np.ndarray:
    """Coerce to a read-only float64 vector of shape (3,), rejecting non-finite input."""
    arr = np.array(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"vector has non-finite components: {arr}")
    arr.flags.writeable = False
    return arr


def as_mat3(m) -> np.ndarray:
    """Coerce to a read-only float64 matrix of shape (3, 3), rejecting non-finite input."""
    arr = np.array(m, dtype=float)
    if arr.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("matrix has non-finite entries")
    arr.flags.writeable = False
    return arr


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of x.

    Each row is reduced as a dot product, the way np.linalg.norm reduces a
    single vector, so a batch gives bit for bit the norms of its rows.
    """
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def ortho_defects(mats: np.ndarray) -> np.ndarray:
    """Frobenius norms of M^T M - I over a (..., 3, 3) stack."""
    gram = np.swapaxes(mats, -1, -2) @ mats - np.eye(3)
    return row_norms(gram.reshape(gram.shape[:-2] + (9,)))


def ortho_defect(m: np.ndarray) -> float:
    """Frobenius norm of M^T M - I."""
    return float(ortho_defects(np.asarray(m)))


@dataclass(frozen=True)
class ToleranceConfig:
    """SO(3) membership: M is a rotation when it is finite,
    ||M^T M - I||_F <= ortho_tol and det M > 0.  Orthogonality gives
    |det M - 1| <= (sqrt(3)/2) * ortho_tol to first order, so the sign of
    det alone tells a rotation from a reflection."""

    ortho_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.ortho_tol < 1e-2):
            raise ValueError(f"ortho_tol must be in (0, 1e-2), got {self.ortho_tol}")


DEFAULT_TOL = ToleranceConfig()


def first_non_rotation(mats: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """First matrix of an (N, 3, 3) stack that is not in SO(3), or None.

    Returns (index, error) for the lowest failing index, the error being
    the one that matrix alone would raise: NonFinite, NotOrthogonal or
    NotProperRotation (det <= 0), in that order.  The caller raises it.
    """
    finite = np.isfinite(mats).all(axis=(1, 2))
    with np.errstate(invalid="ignore", over="ignore"):
        defects = ortho_defects(mats)
        dets = np.linalg.det(mats)
    bad = ~finite | (defects > tol.ortho_tol) | (dets <= 0.0)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if not finite[i]:
        return i, NonFinite("matrix has non-finite entries")
    if defects[i] > tol.ortho_tol:
        return i, NotOrthogonal(
            f"||M^T M - I||_F = {defects[i]:.3e} exceeds ortho_tol = {tol.ortho_tol:.3e}")
    return i, NotProperRotation(f"det = {dets[i]:.6f} is not positive: a reflection")


@dataclass(frozen=True)
class RotationMatrix:
    """A validated element of SO(3).

    Construction runs the full membership test, so any live instance is a
    proper rotation under the tolerance it was built with.  The wrapped
    array is read-only; there is no mutation path.
    """

    matrix: np.ndarray
    tol: ToleranceConfig = field(default_factory=ToleranceConfig, compare=False, repr=False)

    def __post_init__(self):
        m = as_mat3(self.matrix)
        failure = first_non_rotation(m[None], self.tol)
        if failure is not None:
            raise failure[1]
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, tol: ToleranceConfig = DEFAULT_TOL) -> "RotationMatrix":
        return cls(np.eye(3), tol)

    def inverse(self) -> "RotationMatrix":
        """The inverse rotation (transpose)."""
        return RotationMatrix(self.matrix.T, self.tol)


@dataclass(frozen=True)
class SkewMatrix:
    """A 3x3 skew-symmetric matrix, stored as its unique generating vector.

    Storing the vector makes skew-symmetry unfalsifiable and the inverse
    (vee) exact; the 3x3 form is materialized on demand.
    """

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", as_vec3(self.v))

    @property
    def matrix(self) -> np.ndarray:
        return skew_matrices(self.v)


def skew_matrices(v: np.ndarray) -> np.ndarray:
    """hat over the last axis: (..., 3) vectors to (..., 3, 3) skew matrices."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def skew_from_matrix(m, tol: ToleranceConfig = DEFAULT_TOL) -> SkewMatrix:
    """Build a SkewMatrix from a 3x3 matrix, rejecting non-skew input."""
    arr = as_mat3(m)
    sym = float(np.linalg.norm(arr + arr.T))
    if sym > tol.ortho_tol:
        raise NotSkewSymmetric(f"||M + M^T||_F = {sym:.3e} exceeds {tol.ortho_tol:.3e}")
    return SkewMatrix(np.array([arr[2, 1], arr[0, 2], arr[1, 0]]))


@dataclass(frozen=True)
class Frame:
    """A Cartesian frame: three orthonormal basis vectors in a common
    ambient frame.

    Construction checks the basis B = [i j k] with the orthogonality test
    of SO(3) membership, ||B^T B - I||_F <= ortho_tol (else DegenerateFrame).
    Either handedness is valid: the frame is right-handed when det B > 0.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    tol: ToleranceConfig = field(default_factory=ToleranceConfig, compare=False, repr=False)

    def __post_init__(self):
        for name in ("i", "j", "k"):
            object.__setattr__(self, name, as_vec3(getattr(self, name)))
        defect = ortho_defect(self.basis)
        if defect > self.tol.ortho_tol:
            raise DegenerateFrame(f"basis [i j k] is not orthonormal: ||B^T B - I||_F = "
                                  f"{defect:.3e} exceeds ortho_tol = {self.tol.ortho_tol:.3e}")

    @property
    def basis(self) -> np.ndarray:
        """Basis vectors as matrix columns [i j k]."""
        return np.column_stack([self.i, self.j, self.k])

    def is_right_handed(self) -> bool:
        return float(np.linalg.det(self.basis)) > 0.0


def validate_rotation(m, tol: ToleranceConfig = DEFAULT_TOL) -> RotationMatrix:
    """Check SO(3) membership of a 3x3 matrix and wrap it unchanged.

    Raises NonFinite, NotOrthogonal, or NotProperRotation.
    """
    return RotationMatrix(m, tol)


def project_to_so3(m, tol: ToleranceConfig = DEFAULT_TOL) -> RotationMatrix:
    """Nearest rotation in Frobenius norm: the orthogonal polar factor U V^T
    of the SVD m = U S V^T.

    Requires det(m) > 0 so the orthogonal polar factor is a proper
    rotation; else raises NotProjectable.
    """
    x = as_mat3(m)
    det = float(np.linalg.det(x))
    if det <= 0.0:
        raise NotProjectable(f"det = {det:.3e} is not positive; no nearest rotation")
    u, _, vt = np.linalg.svd(x)
    return RotationMatrix(u @ vt, tol)
