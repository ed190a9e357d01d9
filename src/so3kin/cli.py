"""so3kin command-line interface.

Subcommands: propagate, verify, hat, vee, compose, exp, log.
Exit codes: 0 success, 1 validation or verification failure, 2 I/O or
parse error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import io as kio
from .algebra import compose_fixed, exp_so3, hat, log_so3, vee
from .core import So3Error, ToleranceConfig, skew_from_matrix, validate_rotation
from .differential import residual_order_report
from .propagator import (
    Interpolation,
    Method,
    OutOfRange,
    RateProfile,
    _trajectory,
    propagate,
)

# Verification bound on the central-difference residual at step h:
# theory gives ~(sqrt(2)/6) * |w|^3 * h^2 for constant |w|; a factor-10
# safety margin absorbs interpolation and integration error.
RESIDUAL_BOUND_FACTOR = 10.0
MIN_ACCEPTED_ORDER = 1.8

# argparse reads "-1,2,3" as an option; "--" ends the options.
_AFTER_DASHES = "; put -- before it when its first component is negative"


def residual_bound(profile: RateProfile, h: float) -> float:
    wmax = float(np.max(np.linalg.norm(profile.omegas, axis=1)))
    return RESIDUAL_BOUND_FACTOR * max(1.0, wmax) ** 3 * h * h


def _tolerance_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the subcommands that validate a rotation or skew matrix."""
    parser.add_argument("--tol-ortho", type=float, default=1e-9,
                        help="orthogonality tolerance (default 1e-9)")


def _tol(args) -> ToleranceConfig:
    return ToleranceConfig(ortho_tol=args.tol_ortho)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The so3kin parser, built on the first call and shared by every later one
    (parsing leaves it unchanged); callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="so3kin",
        description="Rotation kinematics: propagate and verify dR/dt = S(w) R.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="integrate an angular-velocity profile")
    p.add_argument("--input", required=True, help="rate profile CSV (t,wx,wy,wz)")
    p.add_argument("--output", required=True, help="trajectory CSV to write")
    p.add_argument("--dt", type=float, required=True, help="step size in seconds")
    p.add_argument("--method", choices=("exp", "euler", "euler-renorm", "all"),
                   default="exp")
    p.add_argument("--interp", choices=("linear", "zoh"), default="linear")
    p.add_argument("--rate-sampling", choices=("start", "midpoint"), default="start",
                   help="where each step's rate is evaluated (default start)")
    p.add_argument("--degrees", action="store_true",
                   help="input rates are deg/s; converted on read")
    p.add_argument("--initial", help="initial attitude matrix file (default identity)")
    _tolerance_flags(p)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("verify", help="finite-difference check of a trajectory")
    p.add_argument("--trajectory", required=True, help="trajectory CSV")
    p.add_argument("--profile", required=True, help="rate profile CSV")
    p.add_argument("--strides", default="1,2,4",
                   help="comma-separated subsampling strides, at least two distinct "
                        "(default 1,2,4)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hat", help="skew matrix of a vector")
    p.add_argument("vector", help="comma-separated 'x,y,z'" + _AFTER_DASHES)
    p.set_defaults(func=cmd_hat)

    p = sub.add_parser("vee", help="vector of a skew matrix")
    p.add_argument("matrix", help="9 comma-separated entries, row-major" + _AFTER_DASHES)
    _tolerance_flags(p)
    p.set_defaults(func=cmd_vee)

    p = sub.add_parser("compose", help="fixed-frame composition of two rotations")
    p.add_argument("first", help="matrix file of the rotation applied first")
    p.add_argument("second", help="matrix file of the rotation applied second")
    _tolerance_flags(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("exp", help="exponential map of an axis-angle vector")
    p.add_argument("vector", help="comma-separated 'x,y,z' (radians)" + _AFTER_DASHES)
    _tolerance_flags(p)
    p.set_defaults(func=cmd_exp)

    p = sub.add_parser("log", help="logarithm map of a rotation matrix file")
    p.add_argument("matrix", help="matrix file")
    _tolerance_flags(p)
    p.set_defaults(func=cmd_log)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report/output format (default text)")
    return parser


def _parse_list(name: str, literal: str, convert, count: int | None = None) -> list:
    """Argument `name`'s comma-separated values: `count` of them, else the non-blank ones."""
    parts = [p for p in literal.split(",") if count is not None or p.strip()]
    if count is not None and len(parts) != count:
        raise ValueError(f"{name} {literal!r}: expected {count} comma-separated values, got {len(parts)}")
    try:
        return [convert(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{name} {literal!r}: {exc}") from None


def _emit(key: str, values: np.ndarray, args) -> None:
    """Print a matrix or vector: as {key: values} in JSON, else as CSV rows."""
    if args.format == "json":
        print(json.dumps({key: values.tolist()}))
    else:
        print(kio.format_matrix(np.atleast_2d(values)))


def _emit_reports(reports: list[dict], args) -> None:
    if args.format == "json":
        print(kio.report_json(reports))
    else:
        print("\n\n".join(kio.format_report_text(r) for r in reports))


def _rotation_file(path, tol: ToleranceConfig):
    """The rotation in a matrix file; an SO(3) failure names the file."""
    try:
        return validate_rotation(kio.read_matrix(path), tol)
    except So3Error as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _method_output_path(base: str, method: str) -> Path:
    path = Path(base)
    return path.with_name(f"{path.stem}.{method}{path.suffix}")


def cmd_propagate(args) -> int:
    tol = _tol(args)
    profile = kio.read_rate_profile(args.input, Interpolation(args.interp),
                                    degrees=args.degrees)
    if args.initial:
        r0 = _rotation_file(args.initial, tol)
    else:
        r0 = validate_rotation(np.eye(3), tol)

    if args.method == "all":
        methods = sorted(Method, key=lambda m: m.value)
    else:
        methods = [Method(args.method.replace("-", "_"))]

    # all methods run before any file is written
    trajs = [propagate(r0, profile, args.dt, m, args.rate_sampling) for m in methods]
    if args.degrees:
        trajs = [_trajectory(**{**vars(traj), "degrees_input": True}) for traj in trajs]

    for traj in trajs:
        kio.write_trajectory(_method_output_path(args.output, traj.method) if len(trajs) > 1
                             else args.output, traj)
    _emit_reports([kio.report_dict(traj) for traj in trajs], args)
    return 0


def cmd_verify(args) -> int:
    strides = _parse_list("--strides", args.strides, int)
    traj = kio.read_trajectory(args.trajectory)
    profile = kio.read_rate_profile(args.profile, degrees=traj.degrees_input)
    try:
        report = residual_order_report(traj, profile, strides)
    except OutOfRange as exc:
        raise OutOfRange(f"{args.profile} does not cover {args.trajectory}: {exc}") from None
    bound = residual_bound(profile, report.step_sizes[0])
    _emit_reports([kio.report_dict(traj, report)], args)

    order = report.estimated_order  # None: zero residual at every stride, nothing to fit
    if not ((order is None or order >= MIN_ACCEPTED_ORDER) and report.max_residual <= bound):
        k = int(np.argmax(report.per_sample[:, 1]))  # sample k + 1 of the finest grid
        print(f"verification failed: max_residual={report.max_residual:.3e} "
              f"(bound {bound:.3e}), estimated_order={order}; "
              f"worst at sample {min(strides) * (k + 1)} "
              f"(t = {float(report.per_sample[k, 0])})", file=sys.stderr)
        return 1
    return 0


def cmd_hat(args) -> int:
    v = np.array(_parse_list("vector", args.vector, float, 3))
    _emit("matrix", hat(v).matrix, args)
    return 0


def cmd_vee(args) -> int:
    m = np.array(_parse_list("matrix", args.matrix, float, 9)).reshape(3, 3)
    _emit("vector", vee(skew_from_matrix(m, _tol(args))), args)
    return 0


def cmd_compose(args) -> int:
    tol = _tol(args)
    first = _rotation_file(args.first, tol)
    second = _rotation_file(args.second, tol)
    try:  # each file is a rotation, but their product can still fail the membership rule
        product = compose_fixed(first, second)
    except So3Error as exc:
        raise type(exc)(f"{args.second} * {args.first}: {exc}") from None
    _emit("matrix", product.matrix, args)
    return 0


def cmd_exp(args) -> int:
    v = np.array(_parse_list("vector", args.vector, float, 3))
    _emit("matrix", exp_so3(v, _tol(args)).matrix, args)
    return 0


def cmd_log(args) -> int:
    r = _rotation_file(args.matrix, _tol(args))
    _emit("vector", log_so3(r), args)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 2  # stdout's reader has gone: there is no one to tell
    except (kio.ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (So3Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        try:
            code = main()
        finally:  # argparse's help exits through here too
            sys.stdout.flush()  # a closed pipe raises here, inside the guard
    except BrokenPipeError:  # the reader has gone; keep the flush at exit quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry()
