"""CSV and JSON interchange formats.

* rate profile CSV: header ``t,wx,wy,wz``; strictly increasing t in
  seconds; rates in rad/s
* trajectory CSV: header ``t,r11,r12,r13,r21,r22,r23,r31,r32,r33,
  ortho_err,det_err``; row-major rotation entries; metadata in leading
  ``# key=value`` comment lines
* reports: JSON objects with fields method, dt, steps, max_ortho_err,
  max_det_err, max_residual (nullable), estimated_order (nullable),
  truncated_span

Numbers are serialized as 17-significant-digit decimals so doubles
round-trip bit-exactly.  Lines starting with ``#`` are comments.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from .propagator import DriftReport, Interpolation, RateProfile, Trajectory

__all__ = [
    "ParseError",
    "fmt",
    "read_rate_profile",
    "write_rate_profile",
    "read_trajectory",
    "write_trajectory",
    "read_matrix",
    "format_matrix",
    "format_vector",
    "report_dict",
    "format_report_text",
]

PROFILE_HEADER = "t,wx,wy,wz"
TRAJECTORY_HEADER = "t,r11,r12,r13,r21,r22,r23,r31,r32,r33,ortho_err,det_err"

DEG2RAD = np.pi / 180.0


class ParseError(Exception):
    """A file could not be parsed in the expected format."""


def fmt(x: float) -> str:
    """Serialize a double with enough digits for an exact round trip."""
    return f"{float(x) + 0.0:.17g}"  # +0.0 normalizes -0.0


def _read_rows(path, expected_header: str):
    """Yield (metadata, rows) from a CSV file, skipping # comments."""
    metadata: dict[str, str] = {}
    rows: list[list[float]] = []
    n_cols = expected_header.count(",") + 1
    header_seen = False
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line.replace(" ", "") != expected_header:
                raise ParseError(
                    f"{path}:{lineno}: expected header '{expected_header}', got '{line}'"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not header_seen:
        raise ParseError(f"{path}: missing header '{expected_header}'")
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return metadata, np.array(rows)


def read_rate_profile(path, interpolation: Interpolation = Interpolation.LINEAR,
                      degrees: bool = False) -> RateProfile:
    """Read a rate profile CSV; with degrees=True rates are converted deg/s -> rad/s."""
    _, data = _read_rows(path, PROFILE_HEADER)
    omegas = data[:, 1:4]
    if degrees:
        omegas = omegas * DEG2RAD
    try:
        return RateProfile(times=data[:, 0], omegas=omegas, interpolation=interpolation)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_rate_profile(path, profile: RateProfile) -> None:
    lines = [PROFILE_HEADER]
    for t, w in zip(profile.times, profile.omegas):
        lines.append(",".join(fmt(x) for x in (t, *w)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectory(path, traj: Trajectory, drift: DriftReport,
                     degrees_input: bool = False) -> None:
    lines = [
        "# so3kin trajectory",
        f"# method={traj.method}",
        f"# dt={fmt(traj.dt)}",
        f"# truncated_span={str(traj.truncated_span).lower()}",
        f"# degrees_input={str(degrees_input).lower()}",
        TRAJECTORY_HEADER,
    ]
    n = len(traj)
    table = np.empty((n, 12))
    table[:, 0] = traj.times
    table[:, 1:10] = traj.matrices.reshape(n, 9)
    table[:, 10:] = np.array(drift.per_sample).reshape(n, 3)[:, 1:]
    row = ",".join(["%.17g"] * 12)  # fmt's format, applied to a whole row at once
    lines += [row % values for values in map(tuple, (table + 0.0).tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory(path) -> Trajectory:
    metadata, data = _read_rows(path, TRAJECTORY_HEADER)
    times = data[:, 0]
    mats = data[:, 1:10].reshape(-1, 3, 3)
    if "dt" in metadata:
        dt = float(metadata["dt"])
    elif times.size > 1:
        dt = float(times[1] - times[0])
    else:
        raise ParseError(f"{path}: single-sample trajectory with no dt metadata")
    try:
        return Trajectory(times=times, matrices=mats,
                          method=metadata.get("method", "unknown"), dt=dt,
                          initial=mats[0],
                          truncated_span=metadata.get("truncated_span", "false") == "true")
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_matrix(path) -> np.ndarray:
    """Read a 3x3 matrix: three comma-separated rows, # comments allowed."""
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if len(rows) != 3:
        raise ParseError(f"{path}: expected 3 matrix rows, got {len(rows)}")
    return np.array(rows)


def format_matrix(m: np.ndarray) -> str:
    return "\n".join(",".join(fmt(x) for x in row) for row in np.asarray(m))


def format_vector(v: np.ndarray) -> str:
    return ",".join(fmt(x) for x in np.asarray(v))


def report_dict(method: str, dt: float, steps: int, max_ortho_err: float,
                max_det_err: float, truncated_span: bool,
                max_residual: Optional[float] = None,
                estimated_order: Optional[float] = None) -> dict:
    return {
        "method": method,
        "dt": dt,
        "steps": steps,
        "max_ortho_err": max_ortho_err,
        "max_det_err": max_det_err,
        "max_residual": max_residual,
        "estimated_order": estimated_order,
        "truncated_span": truncated_span,
    }


def format_report_text(report: dict) -> str:
    lines = []
    for key in ("method", "dt", "steps", "max_ortho_err", "max_det_err",
                "max_residual", "estimated_order", "truncated_span"):
        value = report[key]
        if value is None:
            rendered = "n/a"
        elif isinstance(value, bool):
            rendered = str(value).lower()
        elif isinstance(value, float):
            rendered = fmt(value)
        else:
            rendered = str(value)
        lines.append(f"{key}={rendered}")
    return "\n".join(lines)


def report_json(reports: list[dict]) -> str:
    payload = reports[0] if len(reports) == 1 else reports
    return json.dumps(payload, indent=2)
