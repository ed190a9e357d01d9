"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: matrix products are
naive triple loops, the exponential is a truncated power series, and the
nearest-rotation oracle goes through the SVD.
"""
import numpy as np


def matmul3(a, b):
    """Naive 3x3 matrix product by explicit loops."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            s = 0.0
            for k in range(3):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def skew3(v):
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def series_exp(m, terms=30):
    """Truncated power-series matrix exponential."""
    m = np.asarray(m, dtype=float)
    acc = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ m / k
        acc = acc + term
    return acc


def svd_project(m):
    """Nearest rotation via the SVD (sign-corrected orthogonal polar factor)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def random_rotation(rng):
    """Uniform-ish random rotation from a QR factorization."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def rz(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def two_tolerance_membership(m, ortho_tol):
    """Name of the error the former two-tolerance SO(3) test raised for m,
    or None if it accepted m.  It checked, in this order: finite entries,
    ||M^T M - I||_F <= ortho_tol, then |det M - 1| <= det_tol, here with
    det_tol = ortho_tol.  The Gram matrix is a naive triple loop."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        return "NonFinite"
    gram = matmul3(m.T, m) - np.eye(3)
    if np.sqrt(np.sum(gram * gram)) > ortho_tol:
        return "NotOrthogonal"
    if abs(np.linalg.det(m) - 1.0) > ortho_tol:
        return "NotProperRotation"
    return None
