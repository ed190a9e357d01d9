"""CSV and JSON interchange formats.

* rate profile CSV: header ``t,wx,wy,wz``; strictly increasing t in
  seconds; rates in rad/s
* trajectory CSV: header ``t,r11,r12,r13,r21,r22,r23,r31,r32,r33,
  ortho_err,det_err``; row-major rotation entries; metadata in leading
  ``# key=value`` comment lines, where the flags truncated_span and
  degrees_input read ``true`` or ``false`` (a missing flag is false)
* reports: JSON objects with fields method, dt, steps, max_ortho_err,
  max_det_err, max_residual (nullable), estimated_order (nullable),
  truncated_span

Numbers are serialized as 17-significant-digit decimals so doubles
round-trip bit-exactly: each is written as ``'%.17g' % x`` writes it
(``-0`` as ``0``).  Tables are formatted in bulk in numpy; any cell whose
digits the bulk path cannot certify is written by CPython's own ``%``.  A
file's body is written block by block as it is formatted, so its text is
never held whole.  Lines starting with ``#`` are comments.  Files are
read as UTF-8, after a byte-order mark if one leads.  On read, a number
is any token ``float()`` accepts, with ``float()``'s value; each body is
converted in one ``np.loadtxt`` call.  A profile's values and a
trajectory's rotation entries must be finite.  A body that call refuses,
or that holds a non-finite value where one must be finite, is walked
line by line, which rejects the first bad line in file order and names
``path:line``.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from . import numtext
from .differential import ResidualReport
from .propagator import Interpolation, RateProfile, Trajectory, drift_report

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
    return "".join(numtext.format_table(np.asarray(table, dtype=float)))


def _write_table(path, header: str, table: np.ndarray) -> None:
    """Write header lines, then the table's text block by block as it is made."""
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(numtext.format_table(table))
        f.write("\n")


def _read_rows(path, n_cols: int, header: Optional[str] = None, finite=slice(0), label=""):
    """(metadata, rows) of a CSV of n_cols numbers per line, after the header
    if one is given (then at least one row is required).  The finite columns
    must be finite; an error names such a value by label + its header name.
    ``# key=value`` comments fill metadata.  Errors name ``path:line``."""
    metadata: dict[str, str] = {}
    linenos: list[int] = []
    lines: list[str] = []
    expect_header = header is not None
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")  # a leading BOM is no text
    except UnicodeDecodeError as exc:  # the line of the bad byte, as splitlines counts lines
        lineno = len((exc.object[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"{path}:{lineno}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        linenos.append(lineno)
        lines.append(line)
    if expect_header:
        raise ParseError(f"{path}: missing header '{header}'")
    if header is not None and not lines:
        raise ParseError(f"{path}: no data rows")
    # The body in one vectorized call.  loadtxt converts each field with
    # PyOS_string_to_double, as float() does, so each value it returns is
    # float()'s, bit for bit.  Its syntax is a subset of float()'s (no "1_0",
    # no non-ASCII digits) but for one character: it strips U+001F around a
    # number, which float() rejects, so a text holding one takes the line
    # walk.  comments=None keeps "1#c" a bad token.  A body loadtxt refuses,
    # reads to another shape or with a finite column not finite, is walked
    # line by line, which raises at the first bad line in file order.
    if lines and "\x1f" not in text:
        try:
            data = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if data.shape == (len(lines), n_cols) and np.isfinite(data[:, finite]).all():
                return metadata, data
    names = (header or "").split(",")
    rows: list[list[float]] = []
    for lineno, line in zip(linenos, lines):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
        try:
            rows.append(row := [float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        for j in range(n_cols)[finite]:
            if not np.isfinite(row[j]):
                raise ParseError(f"{path}:{lineno}: {label}{names[j]} = {row[j]} is not finite")
    return metadata, np.array(rows)


def read_rate_profile(path, interpolation: Interpolation = Interpolation.LINEAR,
                      degrees: bool = False) -> RateProfile:
    """Read a rate profile CSV; with degrees=True rates are converted deg/s -> rad/s."""
    _, data = _read_rows(path, 4, PROFILE_HEADER, slice(0, 4))
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
    _write_table(path, PROFILE_HEADER, np.column_stack([profile.times, profile.omegas]))


def write_trajectory(path, traj: Trajectory) -> None:
    metadata = {"method": traj.method, "dt": traj.dt, "truncated_span": traj.truncated_span,
                "degrees_input": traj.degrees_input}
    header = "\n".join(["# so3kin trajectory", *(f"# {k}={_text(v)}" for k, v in metadata.items()),
                        TRAJECTORY_HEADER])
    _write_table(path, header, np.column_stack([traj.times, traj.matrices.reshape(len(traj), 9),
                                                np.asarray(drift_report(traj).per_sample)[:, 1:]]))


def read_trajectory(path) -> Trajectory:
    metadata, data = _read_rows(path, 12, TRAJECTORY_HEADER, slice(1, 10), "rotation entry ")
    data.flags.writeable = False  # the Trajectory holds its columns without a copy
    times = data[:, 0]
    mats = data[:, 1:10].reshape(-1, 3, 3)
    if "dt" in metadata:
        try:
            dt = float(metadata["dt"])
        except ValueError as exc:
            raise ParseError(f"{path}: dt metadata: {exc}") from None
    elif times.size > 1:
        dt = float(times[1] - times[0])
    else:
        raise ParseError(f"{path}: single-sample trajectory with no dt metadata")
    flags = {key: metadata.get(key, "false") for key in ("truncated_span", "degrees_input")}
    for key, value in flags.items():
        if value not in ("true", "false"):
            raise ParseError(f"{path}: {key} metadata: expected true or false, got {value!r}")
    try:
        return Trajectory(times=times, matrices=mats,
                          method=metadata.get("method", "unknown"), dt=dt,
                          **{key: value == "true" for key, value in flags.items()})
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_matrix(path) -> np.ndarray:
    """Read a 3x3 matrix: three comma-separated rows, # comments allowed."""
    _, rows = _read_rows(path, 3)
    if len(rows) != 3:
        raise ParseError(f"{path}: expected 3 matrix rows, got {len(rows)}")
    return rows


def report_dict(traj: Trajectory, residual: Optional[ResidualReport] = None) -> dict:
    """The report of a trajectory: its method, step, step count, SO(3) drift and
    truncation.  With the residual report of its check, dt is the finest step
    measured and the check's max residual and order are filled in."""
    drift = drift_report(traj)
    report = {"method": traj.method, "dt": traj.dt, "steps": len(traj) - 1,
              "max_ortho_err": drift.max_ortho_err, "max_det_err": drift.max_det_err,
              "max_residual": None, "estimated_order": None,
              "truncated_span": traj.truncated_span}
    if residual is not None:
        report.update(dt=residual.step_sizes[0], max_residual=residual.max_residual,
                      estimated_order=residual.estimated_order)
    return report


def _text(value) -> str:
    """A value as key=value text writes it: None as n/a, a bool as true or
    false, a float as fmt writes it."""
    if value is None:
        return "n/a"
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    return str(value)


def format_report_text(report: dict) -> str:
    return "\n".join(f"{key}={_text(value)}" for key, value in report.items())


def report_json(reports: list[dict]) -> str:
    """The reports as JSON; a non-finite number, which JSON cannot hold, is
    written as the string the text report prints ("inf", "-inf" or "nan")."""
    reports = [{k: fmt(v) if isinstance(v, float) and not np.isfinite(v) else v
                for k, v in r.items()} for r in reports]
    return json.dumps(reports[0] if len(reports) == 1 else reports, indent=2, allow_nan=False)
