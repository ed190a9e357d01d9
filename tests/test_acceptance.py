"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""
import itertools
import json

import numpy as np
import pytest

from so3kin.algebra import (
    Axis,
    compose_infinitesimal,
    elementary_rotation,
    exp_so3,
    hat,
    infinitesimal_rotation,
    log_so3,
)
from so3kin.cli import main as cli_main
from so3kin.core import (
    NotOrthogonal,
    NotProperRotation,
    RotationMatrix,
    project_to_so3,
    validate_rotation,
)
from so3kin.differential import (
    estimate_convergence_order,
    finite_difference_residual,
    geodesic_distance,
)
from so3kin.propagator import (
    Method,
    RateProfile,
    RateSampling,
    Trajectory,
    drift_report,
    propagate,
)

from oracles import random_rotation, rz, series_exp

EPS_VALUES = (1e-2, 1e-3, 1e-4)


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def exact_trajectory(omega, t0, tf, h):
    n = int(round((tf - t0) / h))
    times = t0 + h * np.arange(n + 1)
    mats = np.array([exp_so3(t * np.asarray(omega)).matrix for t in times])
    return Trajectory(times=times, matrices=mats, method="exact", dt=h)


def test_criterion_1_order_independence_and_first_order_accuracy():
    residuals, pair_residuals = [], []
    for eps in EPS_VALUES:
        m = infinitesimal_rotation((eps, eps, eps))
        products = []
        for perm in itertools.permutations((Axis.X, Axis.Y, Axis.Z)):
            p = np.eye(3)
            for axis in perm:
                p = elementary_rotation(axis, eps).matrix @ p
            products.append(p)
        res = max(np.linalg.norm(p - m) for p in products)
        pair = max(np.linalg.norm(a - b) for a, b in itertools.combinations(products, 2))
        assert res <= 3.0 * eps * eps, f"ordering residual {res} > 3*eps^2 at eps={eps}"
        assert pair <= 3.0 * eps * eps, f"pairwise distance {pair} > 3*eps^2 at eps={eps}"
        residuals.append(res)
        pair_residuals.append(pair)
    slope = estimate_convergence_order(list(zip(EPS_VALUES, residuals)))
    pair_slope = estimate_convergence_order(list(zip(EPS_VALUES, pair_residuals)))
    ok = abs(slope - 2.0) <= 0.1 and abs(pair_slope - 2.0) <= 0.1
    _report("criterion 1: ordering residuals <= 3*eps^2", ok,
            f"slope={slope:.3f} pairwise_slope={pair_slope:.3f}")


def test_criterion_2_additivity_and_commutativity():
    rng = np.random.default_rng(12345)
    pairs = rng.uniform(-1.0, 1.0, size=(100, 2, 3))
    add_max, comm_max = [], []
    for eps in EPS_VALUES:
        worst_add = worst_comm = 0.0
        for u, v in pairs:
            d1, d2 = eps * u, eps * v
            m1 = infinitesimal_rotation(d1)
            m2 = infinitesimal_rotation(d2)
            ms = infinitesimal_rotation(compose_infinitesimal(d1, d2))
            worst_add = max(worst_add, np.linalg.norm(m1 @ m2 - ms))
            worst_comm = max(worst_comm, np.linalg.norm(m1 @ m2 - m2 @ m1))
        assert worst_add <= 3.0 * eps * eps, f"additivity {worst_add} at eps={eps}"
        assert worst_comm <= 3.0 * eps * eps, f"commutativity {worst_comm} at eps={eps}"
        add_max.append(worst_add)
        comm_max.append(worst_comm)
    add_slope = estimate_convergence_order(list(zip(EPS_VALUES, add_max)))
    comm_slope = estimate_convergence_order(list(zip(EPS_VALUES, comm_max)))
    ok = abs(add_slope - 2.0) <= 0.1 and abs(comm_slope - 2.0) <= 0.1
    _report("criterion 2: additivity/commutativity <= 3*eps^2", ok,
            f"add_slope={add_slope:.3f} comm_slope={comm_slope:.3f}")


def test_criterion_3_increment_form_equivalence():
    rng = np.random.default_rng(777)
    failures = 0
    for _ in range(1000):
        d = rng.uniform(-0.1, 0.1, size=3)
        r = validate_rotation(random_rotation(rng))
        lhs = hat(d).matrix @ r.matrix
        rhs = (infinitesimal_rotation(d) - np.eye(3)) @ r.matrix
        if not np.array_equal(lhs, rhs):
            failures += 1
    _report("criterion 3: hat(d)R == (M(d)-I)R exactly", failures == 0,
            f"failures={failures}/1000")


def test_criterion_4_finite_difference_verification():
    w0 = np.array([2.0, -1.0, 2.0]) / 3.0  # unit norm
    profile = RateProfile.constant(w0, 0.0, 1.0)
    pairs = []
    # residual bound: central-difference theory gives (sqrt(2)/6)*h^2 for
    # unit rate; factor 10 safety margin
    bound_coeff = 10.0 * np.sqrt(2.0) / 6.0
    for h in (1e-2, 1e-3, 1e-4):
        traj = exact_trajectory(w0, 0.0, 1.0, h)
        report = finite_difference_residual(traj, profile)
        assert report.max_residual <= bound_coeff * h * h, \
            f"residual {report.max_residual} at h={h}"
        pairs.append((h, report.max_residual))
    order = estimate_convergence_order(pairs)
    _report("criterion 4: FD residual order 2.0 +/- 0.2", abs(order - 2.0) <= 0.2,
            f"order={order:.3f} residuals={[f'{r:.2e}' for _, r in pairs]}")


def test_criterion_5_exponential_propagation_exactness():
    target = rz(np.pi / 2)
    profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, np.pi / 2)
    worst = 0.0
    for dt in (np.pi / 20, np.pi / 200, np.pi / 2000):
        traj = propagate(RotationMatrix.identity(), profile, dt, Method.EXPONENTIAL)
        worst = max(worst, float(np.linalg.norm(traj.final() - target)))
    _report("criterion 5: exponential propagation exact to 1e-12", worst <= 1e-12,
            f"worst_error={worst:.2e}")


def test_criterion_6_drift_separation():
    profile = RateProfile.constant((0.0, 0.0, 1.0), 0.0, 10.0)
    r0 = RotationMatrix.identity()
    drifts = {m: drift_report(propagate(r0, profile, 1e-3, m)).max_ortho_err
              for m in Method}
    ok = (drifts[Method.EXPONENTIAL] <= 1e-12
          and drifts[Method.EULER_RENORM] <= 1e-12
          and 1e-4 <= drifts[Method.EULER] <= 1e-1
          and drifts[Method.EULER] > 1e-5)
    _report("criterion 6: drift separation", ok,
            f"exp={drifts[Method.EXPONENTIAL]:.2e} "
            f"renorm={drifts[Method.EULER_RENORM]:.2e} "
            f"euler={drifts[Method.EULER]:.2e}")


def test_criterion_7_euler_global_order():
    ts = np.linspace(0.0, 2.0, 2001)
    ws = np.column_stack([np.sin(ts), np.cos(ts), np.full_like(ts, 0.5)])
    profile = RateProfile(ts, ws)
    # converged exponential reference (midpoint sampling is second order)
    ref = propagate(RotationMatrix.identity(), profile, 1e-4, Method.EXPONENTIAL,
                    RateSampling.MIDPOINT)
    r_ref = validate_rotation(ref.final())
    errs = {}
    for dt in (1e-2, 5e-3):
        traj = propagate(RotationMatrix.identity(), profile, dt, Method.EULER)
        errs[dt] = geodesic_distance(r_ref, project_to_so3(traj.final()))
    ratio = errs[1e-2] / errs[5e-3]
    _report("criterion 7: Euler global order one (ratio 2.0 +/- 0.3)",
            abs(ratio - 2.0) <= 0.3, f"ratio={ratio:.3f}")


def test_criterion_8_exp_log_round_trip():
    rng = np.random.default_rng(7)
    worst_rt = 0.0
    for _ in range(1000):
        phi = rng.normal(size=3)
        phi *= rng.uniform(0.0, np.pi - 0.1) / np.linalg.norm(phi)
        worst_rt = max(worst_rt, float(np.linalg.norm(log_so3(exp_so3(phi)) - phi)))
    worst_series = 0.0
    for _ in range(200):
        phi = rng.normal(size=3)
        phi *= rng.uniform(0.0, np.pi) / np.linalg.norm(phi)
        diff = exp_so3(phi).matrix - series_exp(hat(phi).matrix)
        worst_series = max(worst_series, float(np.linalg.norm(diff)))
    ok = worst_rt <= 1e-9 and worst_series <= 1e-12
    _report("criterion 8: exp/log round trip", ok,
            f"round_trip={worst_rt:.2e} series={worst_series:.2e}")


def test_criterion_9_validation_gate():
    rng = np.random.default_rng(99)
    correct = 0
    for _ in range(50):
        reflection = random_rotation(rng) @ np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NotProperRotation):
            validate_rotation(reflection)
        correct += 1
    for _ in range(50):
        r = random_rotation(rng)
        sym = rng.normal(size=(3, 3))
        sym = (sym + sym.T) / 2.0
        sym *= 1e-6 / np.linalg.norm(sym)
        with pytest.raises(NotOrthogonal):
            validate_rotation(r @ (np.eye(3) + sym))
        correct += 1
    _report("criterion 9: validation gate", correct == 100, f"correct={correct}/100")


def test_criterion_10_cli_round_trip(tmp_path, capsys):
    profile_path = tmp_path / "w.csv"
    profile_path.write_text("t,wx,wy,wz\n0,0,0,1\n1,0,0,1\n")
    traj_path = tmp_path / "traj.csv"

    code = cli_main(["propagate", "--input", str(profile_path), "--dt", "0.001",
                     "--method", "exp", "--output", str(traj_path)])
    assert code == 0
    capsys.readouterr()

    code = cli_main(["verify", "--trajectory", str(traj_path),
                     "--profile", str(profile_path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, "verify on a clean exponential trajectory must pass"
    assert report["estimated_order"] >= 1.8

    # bit-identical numeric round trip through the CSV
    from so3kin import io as kio
    traj = propagate(RotationMatrix.identity(),
                     RateProfile.constant((0.0, 0.0, 1.0), 0.0, 1.0),
                     1e-3, Method.EXPONENTIAL)
    reread = kio.read_trajectory(traj_path)
    bit_identical = (np.array_equal(reread.times, traj.times)
                     and np.array_equal(reread.matrices, traj.matrices))

    # corrupted trajectory must fail verification
    lines = traj_path.read_text().splitlines()
    row = lines[400].split(",")
    row[3] = kio.fmt(float(row[3]) + 0.25)
    lines[400] = ",".join(row)
    corrupt_path = tmp_path / "corrupt.csv"
    corrupt_path.write_text("\n".join(lines) + "\n")
    code_corrupt = cli_main(["verify", "--trajectory", str(corrupt_path),
                             "--profile", str(profile_path)])
    capsys.readouterr()

    ok = bit_identical and code_corrupt == 1
    _report("criterion 10: CLI round trip", ok,
            f"order={report['estimated_order']:.3f} bit_identical={bit_identical} "
            f"corrupt_exit={code_corrupt}")
