"""so3kin benchmark: three CLI workloads on the closed-form spinning cone.

    python3 perfbench/run.py --workload cone_exp --seed 1 --seconds 35 --trace 0

Run from the root of a so3kin checkout; the package is imported from
`src/`.  One process, one thread of its own: each pass calls
`so3kin.cli.main` in-process with stdout captured, exactly as a user's
`so3kin ...` command would run, then checks the outputs against the
closed form (see `cone.py`).  Passes run back to back (a closed loop)
until --seconds have elapsed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (see `spans.py`).
The last line of stdout is one JSON object; a readable summary goes to
stderr.  Scratch files live under `.perfbench_work/` and are removed at
exit; the spans of the first traced passes are written to `.perfbench_out/`.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import cone  # noqa: E402
import spans  # noqa: E402

# Problem size: 500 steps of 1 ms over a 0.5 s span.  The sparse profile has
# a knot every 10 ms (51 knots); the dense profile has one knot per sample.
# Small passes give several hundred passes per run, so that wall_s and
# wall_s.tail are high percentiles with many passes beyond them.
N_STEPS = 500
DT = "0.001"
KNOT_SPACING = 0.01

# Correctness gates.  Final-attitude error against the closed form, per
# interpolation and method: about 2.4 times the error every method shows at
# this size (4.2e-5 rad linear, 4.2e-4 rad zoh; the rate is sampled at step
# start, so all three are first order with the same leading term).
FINAL_ERR_TOL = {
    ("linear", "exp"): 1e-4, ("linear", "euler"): 1e-4, ("linear", "euler_renorm"): 1e-4,
    ("zoh", "exp"): 1e-3, ("zoh", "euler"): 1e-3, ("zoh", "euler_renorm"): 1e-3,
}
ON_MANIFOLD_TOL = 1e-9         # ortho and det error of exp / euler_renorm output
ON_MANIFOLD_METHODS = ("exp", "euler_renorm")
MIN_ORDER = 1.8                # verify's own acceptance threshold
MAX_RESIDUAL_TOL = 4e-6        # about twice the closed form's 1.87e-6 at h = 1 ms

# wall_s is the 85th percentile of pass times, not the median.  On a shared
# 2-core Xeon VM (Python 3.11, numpy 2.4) the same pass ran at two or more
# speeds (0.2 s and 0.34 s for a 2000-step exp pass) that switched every few
# seconds to minutes with the load of other tenants.  Across 35 s runs the
# median spread 0.1-0.22 (IQR over median) and the 10th percentile up to
# 0.3, depending on which speed dominated; the 85th and 90th percentiles,
# which track the slower speed present in most runs, spread 0.03-0.17.  No
# percentile stays steady when the host's speed drifts between runs.  The
# 85th leaves room below the tail percentile of method_all.
WALL_PERCENTILE = 85

# Percentile reported as wall_s.tail, per workload: the highest whole
# percentile with at least ten passes beyond it in the probed 35 s runs of
# the seed commit (cone_exp 324-375 passes, down to 248 when the host was
# slow; verify_imu 551-1009; method_all 116-139).  Pinned, so that a faster
# program (more passes) is not compared at a higher percentile.
TAIL_PERCENTILE = {"cone_exp": 96, "verify_imu": 98, "method_all": 91}

SETUP_REPS = 5
KEPT_TRACED_PASSES = 3         # traced passes whose raw spans are written out
METHODS = ("exp", "euler", "euler_renorm")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import so3kin.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark cannot run here (no so3kin source, or set-up failed)."""


# -- inputs -----------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    cone: cone.Cone
    work: Path

    def path(self, name: str) -> str:
        return str(self.work / name)


def generate(seed: int, work: Path) -> Inputs:
    """Write the seeded input files; the program sees only these."""
    c = cone.Cone.from_seed(seed)
    span = N_STEPS * float(DT)
    knots = np.arange(int(round(span / KNOT_SPACING)) + 1) * KNOT_SPACING
    samples = np.arange(N_STEPS + 1) * float(DT)
    inputs = Inputs(c, work)
    cone.write_profile(inputs.path("sparse.csv"), knots, c.rate(knots))
    cone.write_profile(inputs.path("dense.csv"), samples, c.rate(samples))
    cone.write_matrix(inputs.path("initial.txt"), c.attitude(0.0))
    cone.write_trajectory(inputs.path("closed_form.csv"), samples, c.attitude(samples), float(DT))
    return inputs


def measure_setup(seed: int, work: Path) -> float:
    """Median over SETUP_REPS of (import so3kin.cli in a fresh interpreter
    + generate the inputs)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            raise BenchError(f"importing so3kin.cli failed: {probe.stderr.strip()}")
        start = time.perf_counter()
        generate(seed, work)
        times.append(float(probe.stdout) + time.perf_counter() - start)
    return statistics.median(times)


# -- passes -----------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from so3kin import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def propagate_argv(inputs: Inputs, method: str, interp: str) -> list[str]:
    argv = ["propagate", "--input", inputs.path("sparse.csv"), "--output", inputs.path("out.csv"),
            "--dt", DT, "--initial", inputs.path("initial.txt")]
    if method != "exp":
        argv += ["--method", method.replace("_", "-")]
    if interp != "linear":
        argv += ["--interp", interp]
    return argv


def verify_argv(inputs: Inputs) -> list[str]:
    return ["verify", "--trajectory", inputs.path("closed_form.csv"),
            "--profile", inputs.path("dense.csv")]


def parse_reports(text: str) -> list[dict]:
    """The CLI's text reports: key=value lines, blank-line separated."""
    reports = []
    for block in text.strip().split("\n\n"):
        reports.append(dict(line.split("=", 1) for line in block.splitlines() if "=" in line))
    return reports


def read_rows(path: str) -> tuple[list[list[str]], np.ndarray]:
    """Tokens and values of a trajectory CSV, parsed without so3kin."""
    tokens = []
    header_seen = False
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != cone.TRAJECTORY_HEADER:
                    raise ValueError(f"{path}: unexpected header {line!r}")
                header_seen = True
                continue
            tokens.append(line.split(","))
    return tokens, np.array([[float(x) for x in row] for row in tokens])


def check_round_trip(path: str, tokens: list[list[str]], values: np.ndarray) -> list[str]:
    """The file re-reads bit for bit: every token is the 17-digit form of its
    value, and so3kin's own reader returns exactly those values."""
    from so3kin import io as kio

    problems = []
    if any(cone.fmt(float(tok)) != tok for row in tokens for tok in row):
        problems.append(f"{path}: a value is not written in round-trip form")
    traj = kio.read_trajectory(path)
    same = (np.array_equal(traj.times.view(np.uint64), values[:, 0].copy().view(np.uint64))
            and np.array_equal(traj.matrices.reshape(-1, 9).view(np.uint64),
                               values[:, 1:10].copy().view(np.uint64)))
    if not same:
        problems.append(f"{path}: so3kin.io.read_trajectory differs from the file's values")
    return problems


def check_propagate(inputs: Inputs, rc: int, out: str, methods, interp: str,
                    files: dict[str, str]) -> tuple[list[str], dict[str, float]]:
    """Gate one propagate command; return (problems, final error per method)."""
    if rc != 0:
        return [f"propagate exited {rc}"], {}
    problems, errors = [], {}
    reports = parse_reports(out)
    if [r.get("method") for r in reports] != sorted(methods):  # the CLI sorts by name
        problems.append(f"reports for {[r.get('method') for r in reports]}, want {sorted(methods)}")
    if any(r.get("steps") != str(N_STEPS) for r in reports):
        problems.append("a report does not show the expected step count")
    for method in methods:
        tokens, values = read_rows(files[method])
        if len(values) != N_STEPS + 1:
            problems.append(f"{method}: {len(values)} rows, want {N_STEPS + 1}")
            continue
        mats = values[:, 1:10].reshape(-1, 3, 3)
        errors[method] = cone.geodesic_angle(mats[-1], inputs.cone.attitude(values[-1, 0]))
        if not errors[method] <= FINAL_ERR_TOL[(interp, method)]:
            problems.append(f"{method}: final error {errors[method]:.3e} rad exceeds "
                            f"{FINAL_ERR_TOL[(interp, method)]:.1e}")
        if method in ON_MANIFOLD_METHODS:
            ortho, det = cone.ortho_det_errors(mats)
            if not max(ortho.max(), det.max()) <= ON_MANIFOLD_TOL:
                problems.append(f"{method}: left SO(3) (ortho {ortho.max():.2e}, "
                                f"det {det.max():.2e})")
        if method == methods[0]:
            problems += check_round_trip(files[method], tokens, values)
    return problems, errors


def check_verify(rc: int, out: str) -> tuple[list[str], dict[str, float]]:
    """Gate one verify command; return (problems, its residual and order)."""
    if rc != 0:
        return [f"verify exited {rc}"], {}
    (report,) = parse_reports(out)
    found = {"verify.max_residual": float(report["max_residual"]),
             "verify.estimated_order": float(report["estimated_order"])}
    problems = []
    if report.get("steps") != str(N_STEPS):
        problems.append(f"verify checked {report.get('steps')} steps, want {N_STEPS}")
    if not found["verify.estimated_order"] >= MIN_ORDER:
        problems.append(f"estimated order {found['verify.estimated_order']} < {MIN_ORDER}")
    if not found["verify.max_residual"] <= MAX_RESIDUAL_TOL:
        problems.append(f"max residual {found['verify.max_residual']:.3e} > {MAX_RESIDUAL_TOL}")
    return problems, found


def method_files(inputs: Inputs, methods) -> dict[str, str]:
    if len(methods) == 1:
        return {methods[0]: inputs.path("out.csv")}
    return {m: inputs.path(f"out.{m}.csv") for m in methods}


def propagate_command(methods, interp: str):
    """A workload pass: propagate with the given methods; gated on the closed form."""
    cli_method = methods[0] if len(methods) == 1 else "all"

    def command(inputs: Inputs, run=run_cli):
        rc, out, _ = run(propagate_argv(inputs, cli_method, interp))
        problems, errors = check_propagate(inputs, rc, out, methods, interp,
                                           method_files(inputs, methods))
        return problems, {f"final_err_rad.{m}": e for m, e in errors.items()}

    return command


def verify_command(inputs: Inputs, run=run_cli):
    rc, out, _ = run(verify_argv(inputs))
    return check_verify(rc, out)


@dataclass(frozen=True)
class Workload:
    name: str
    command: object        # (inputs, run) -> (problems, accuracy metrics)
    samples: int           # trajectory samples produced or checked per pass


WORKLOADS = {
    "cone_exp": Workload("cone_exp", propagate_command(("exp",), "linear"), N_STEPS + 1),
    "verify_imu": Workload("verify_imu", verify_command, N_STEPS + 1),
    "method_all": Workload("method_all", propagate_command(METHODS, "zoh"), 3 * (N_STEPS + 1)),
}

# Commands run once after the timed passes for accuracy metrics a workload's
# own passes do not produce (same inputs, CLI defaults: linear, start).
AUDIT = [
    (("final_err_rad.exp",), propagate_command(("exp",), "linear")),
    (("final_err_rad.euler",), propagate_command(("euler",), "linear")),
    (("final_err_rad.euler_renorm",), propagate_command(("euler_renorm",), "linear")),
    (("verify.max_residual", "verify.estimated_order"), verify_command),
]
ACCURACY_UNITS = {"final_err_rad.exp": "rad", "final_err_rad.euler": "rad",
                  "final_err_rad.euler_renorm": "rad", "verify.max_residual": "1/s",
                  "verify.estimated_order": "order"}


# -- measuring ----------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    audit_ok: bool = True

    def record(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            print(f"pass {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        self.attempted += 1


def one_pass(workload: Workload, inputs: Inputs, tally: Tally, tracer=None):
    """Run and gate one pass; return (seconds inside cli.main or None, accuracy).

    A pass that raises is recorded as failed, never dropped.
    """
    walls = []

    def run(argv):
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            if tracer is None:
                result = run_cli(argv)
            else:
                result = tracer.run_pass(tally.attempted, lambda: run_cli(argv))
            walls.append(time.perf_counter() - start)
            return result
        finally:
            if tracer is not None:
                tracer.uninstall()

    try:
        problems, accuracy = workload.command(inputs, run=run)
    except Exception as exc:  # a crashing pass is a failed pass
        problems, accuracy = [f"{type(exc).__name__}: {exc}"], {}
    tally.record(problems)
    return (walls[0] if walls else None), accuracy


def run_end_to_end(workload: Workload, inputs: Inputs, seconds: float, tally: Tally) -> dict:
    one_pass(workload, inputs, tally)  # warm-up: gated and counted, not timed
    walls, accuracy = [], {}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        wall, found = one_pass(workload, inputs, tally)
        accuracy.update(found)
        if wall is not None:
            walls.append(wall)
    for names, command in AUDIT:
        if not all(name in accuracy for name in names):
            problems, found = command(inputs)
            if problems:
                tally.audit_ok = False
                print(f"audit of {names} failed: {'; '.join(problems)}", file=sys.stderr)
            accuracy.update({n: v for n, v in found.items() if n in names})

    if not walls:
        raise BenchError("no pass completed")
    wall = float(np.percentile(walls, WALL_PERCENTILE))
    tail = TAIL_PERCENTILE[workload.name]
    beyond = sum(w > np.percentile(walls, tail) for w in walls)
    print(f"{workload.name}: {len(walls)} timed passes, median {statistics.median(walls):.4f} s; "
          f"wall_s is p{WALL_PERCENTILE}; wall_s.tail is p{tail} ({beyond} passes beyond it)",
          file=sys.stderr)
    metrics = {
        "wall_s": (wall, "s"),
        "wall_s.tail": (float(np.percentile(walls, tail)), "s"),
        "samples_per_s": (workload.samples / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    metrics.update({name: (accuracy[name], unit) for name, unit in ACCURACY_UNITS.items()
                    if name in accuracy})
    return metrics


# Per-layer figures read straight off the spans of one name: "<span name>.<field>".
SPAN_FIGURES = [
    "algebra.exp_so3.calls", "algebra.exp_so3.s", "algebra.hat.calls", "algebra.hat.s",
    "core.RotationMatrix.calls", "core.RotationMatrix.s",
    "core.project_to_so3.calls", "core.project_to_so3.s",
    "propagator.sample_rate.s", "propagator.propagate.self_s", "propagator.drift_report.s",
    "propagator.step_euler.calls", "propagator.step_euler_renorm.calls",
    "differential.residual_order_report.s", "differential.finite_difference_residual.calls",
    "differential.finite_difference_residual.self_s",
    "io.read_rate_profile.s", "io.read_trajectory.s", "io.write_trajectory.s",
    "cli.self_s",
]
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
IO_READS = ("io.read_rate_profile", "io.read_trajectory", "io.read_matrix")


def layer_metrics(prof: dict) -> dict:
    """Per-layer figures of one traced pass, from its spans.pass_profile.

    A step is a propagate step; on verify_imu, where nothing is propagated,
    it is one interval of the checked trajectory.
    """
    def get(name, field):
        return prof.get(name, {}).get(field, 0)

    figures = {}
    for metric in SPAN_FIGURES:
        name, field = metric.rsplit(".", 1)
        figures[metric] = (get(name, field), FIELD_UNITS[field])
    propagated = get("propagator.propagate", "work")
    steps = propagated or max(get("io.read_trajectory", "rows") - 1, 1)
    io_names = IO_READS + ("io.write_trajectory",)
    io_s = sum(get(n, "s") for n in io_names)
    figures.update({
        "core.validations_per_step": (get("core.RotationMatrix", "calls") / steps, "ratio"),
        "propagator.sample_rate.calls_per_step":
            (get("propagator.sample_rate", "calls") / steps, "ratio"),
        "propagator.us_per_step":
            (1e6 * get("propagator.propagate", "s") / propagated if propagated else 0.0, "us"),
        "propagator.steps": (propagated, "count"),
        "differential.samples_checked":
            (get("differential.finite_difference_residual", "work"), "count"),
        "io.bytes_read": (sum(get(n, "bytes") for n in IO_READS), "bytes"),
        "io.bytes_written": (get("io.write_trajectory", "bytes"), "bytes"),
        "io.rows_per_s": (sum(get(n, "rows") for n in io_names) / io_s if io_s else 0.0, "1/s"),
    })
    return figures


def run_traced(workload: Workload, inputs: Inputs, seconds: float, tally: Tally,
               spans_path: Path) -> dict:
    """Alternate untraced and traced passes; per-layer medians over the traced ones."""
    tracer = spans.Tracer()
    one_pass(workload, inputs, tally)  # warm-up
    plain, traced, per_pass, kept = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not per_pass:
        wall, _ = one_pass(workload, inputs, tally)
        if wall is not None:
            plain.append(wall)
        wall, _ = one_pass(workload, inputs, tally, tracer)
        if wall is not None:
            traced.append(wall)
        # Between passes: fold this pass's spans into its figures and keep
        # the raw spans of the first few passes only, to bound memory.
        pass_spans, tracer.spans = tracer.spans, []
        per_pass.append(layer_metrics(spans.pass_profile(pass_spans)))
        if len(per_pass) <= KEPT_TRACED_PASSES:
            kept += pass_spans

    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                      "ratio")
    spans_path.parent.mkdir(exist_ok=True)
    spans.write_spans(spans_path, kept)
    print(f"{workload.name}: {len(traced)} traced and {len(plain)} untraced passes; "
          f"spans in {spans_path.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "so3kin" / "cli.py").is_file():
        print(f"error: no so3kin source under {SRC}; run from a so3kin checkout",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        if args.trace:
            inputs = generate(args.seed, work)
            metrics = run_traced(workload, inputs, args.seconds, tally,
                                 ROOT / ".perfbench_out" / f"spans-{workload.name}-{args.seed}.csv")
        else:
            setup_s = measure_setup(args.seed, work)
            inputs = generate(args.seed, work)
            metrics = run_end_to_end(workload, inputs, args.seconds, tally)
            metrics["setup_s"] = (setup_s, "s")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.audit_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
