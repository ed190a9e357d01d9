"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: matrix products are
naive triple loops, the exponential is a truncated power series, and the
nearest-rotation oracle goes through the SVD.  The CSV body oracle is the
reader that converted each token with float() in a per-line loop.
"""
from pathlib import Path
from typing import Optional

import numpy as np

from so3kin.io import ParseError


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


def line_loop_rows(path, n_cols: int, header: Optional[str] = None):
    """(metadata, rows) of a CSV of n_cols numbers per line, after the header
    if one is given (then at least one row is required).  ``# key=value``
    comments fill metadata.  Errors name ``path:line``."""
    metadata: dict[str, str] = {}
    rows: list[list[float]] = []
    expect_header = header is not None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, eq, value = line.lstrip("#").partition("=")
            if eq:
                metadata[key.strip()] = value.strip()
            continue
        if expect_header:
            if line.replace(" ", "") != header:
                raise ParseError(f"{path}:{lineno}: expected header '{header}', got '{line}'")
            expect_header = False
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if expect_header:
        raise ParseError(f"{path}: missing header '{header}'")
    if header is not None and not rows:
        raise ParseError(f"{path}: no data rows")
    return metadata, np.array(rows)
