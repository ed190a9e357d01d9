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
    "report_dict",
    "format_report_text",
]

PROFILE_HEADER = "t,wx,wy,wz"
TRAJECTORY_HEADER = "t,r11,r12,r13,r21,r22,r23,r31,r32,r33,ortho_err,det_err"
NUMBER_FORMAT = "%.17g"  # enough digits for any double to round-trip bit-exactly

DEG2RAD = np.pi / 180.0


class ParseError(Exception):
    """A file could not be parsed in the expected format."""


def fmt(x: float) -> str:
    """Serialize a double with enough digits for an exact round trip."""
    return NUMBER_FORMAT % (float(x) + 0.0)  # +0.0 normalizes -0.0


def format_matrix(table) -> str:
    """Comma-joined rows of a 2-D table, one per line, each number as fmt writes it."""
    table = np.asarray(table, dtype=float) + 0.0  # +0.0 normalizes -0.0
    row = ",".join([NUMBER_FORMAT] * table.shape[1])
    return "\n".join(row % values for values in map(tuple, table.tolist()))


def _read_rows(path, n_cols: int, header: Optional[str] = None):
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


def read_rate_profile(path, interpolation: Interpolation = Interpolation.LINEAR,
                      degrees: bool = False) -> RateProfile:
    """Read a rate profile CSV; with degrees=True rates are converted deg/s -> rad/s."""
    _, data = _read_rows(path, 4, PROFILE_HEADER)
    data.flags.writeable = False  # the RateProfile holds its columns without a copy
    omegas = data[:, 1:4]
    if degrees:
        omegas = omegas * DEG2RAD
        omegas.flags.writeable = False
    try:
        return RateProfile(times=data[:, 0], omegas=omegas, interpolation=interpolation)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_rate_profile(path, profile: RateProfile) -> None:
    table = np.column_stack([profile.times, profile.omegas])
    Path(path).write_text(f"{PROFILE_HEADER}\n{format_matrix(table)}\n")


def write_trajectory(path, traj: Trajectory, drift: DriftReport) -> None:
    lines = [
        "# so3kin trajectory",
        f"# method={traj.method}",
        f"# dt={fmt(traj.dt)}",
        f"# truncated_span={str(traj.truncated_span).lower()}",
        f"# degrees_input={str(traj.degrees_input).lower()}",
        TRAJECTORY_HEADER,
        format_matrix(np.column_stack([traj.times, traj.matrices.reshape(len(traj), 9),
                                       np.asarray(drift.per_sample)[:, 1:]])),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory(path) -> Trajectory:
    metadata, data = _read_rows(path, 12, TRAJECTORY_HEADER)
    data.flags.writeable = False  # the Trajectory holds its columns without a copy
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
                          truncated_span=metadata.get("truncated_span", "false") == "true",
                          degrees_input=metadata.get("degrees_input", "false") == "true")
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_matrix(path) -> np.ndarray:
    """Read a 3x3 matrix: three comma-separated rows, # comments allowed."""
    _, rows = _read_rows(path, 3)
    if len(rows) != 3:
        raise ParseError(f"{path}: expected 3 matrix rows, got {len(rows)}")
    return rows


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
    for key, value in report.items():
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
