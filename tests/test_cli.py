import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import so3kin
from so3kin import io as kio
from so3kin import propagator
from so3kin.algebra import exp_so3
from so3kin.cli import main
from so3kin.core import So3Error, ToleranceConfig, validate_rotation
from so3kin.differential import residual_order_report
from so3kin.propagator import Interpolation, Method, RateProfile, propagate

from oracles import random_rotation, strict_json_loads


@pytest.fixture
def const_profile(tmp_path):
    """Constant w = (0, 0, 1) over [0, 1]."""
    path = tmp_path / "w.csv"
    path.write_text("t,wx,wy,wz\n0,0,0,1\n1,0,0,1\n")
    return path


def run(args):
    return main([str(a) for a in args])


class TestPropagateCommand:
    def test_constant_spin(self, tmp_path, const_profile, capsys):
        out = tmp_path / "traj.csv"
        code = run(["propagate", "--input", const_profile, "--dt", "0.001",
                    "--method", "exp", "--output", out, "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "exp"
        assert report["steps"] == 1000
        assert report["max_ortho_err"] <= 1e-12
        traj = kio.read_trajectory(out)
        assert len(traj) == 1001

    def test_missing_input_exits_2(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(["propagate", "--input", tmp_path / "nope.csv", "--dt", "0.001",
                    "--output", out])
        assert code == 2
        assert not out.exists()

    def test_zero_dt_exits_1(self, tmp_path, const_profile, capsys):
        code = run(["propagate", "--input", const_profile, "--dt", "0",
                    "--output", tmp_path / "traj.csv"])
        assert code == 1
        assert capsys.readouterr().err == "error: dt must be positive and finite, got 0.0\n"

    def test_a_step_count_too_large_to_form_is_one_error_line(self, tmp_path, const_profile,
                                                              capsys):
        assert run(["propagate", "--input", const_profile, "--dt", "1e-320",
                    "--output", tmp_path / "traj.csv"]) == 1
        assert capsys.readouterr().err == \
            "error: dt = 1e-320 makes inf steps over profile span 1.0, too many to form\n"

    def test_defaults_are_exp_linear_start(self, tmp_path, capsys):
        # a change of a default must edit this test on purpose
        t = np.linspace(0.0, 1.0, 11)
        prof = tmp_path / "w.csv"
        kio.write_rate_profile(prof, RateProfile(t, np.column_stack(
            [np.sin(3.0 * t), np.cos(2.0 * t), 0.5 + t])))
        runs = []
        for flags in ([], ["--method", "exp", "--interp", "linear", "--rate-sampling", "start"]):
            out = tmp_path / f"traj{len(runs)}.csv"
            assert run(["propagate", "--input", prof, "--dt", "0.01", "--output", out,
                        *flags]) == 0
            runs.append((out.read_bytes(), capsys.readouterr().out))
        assert runs[0] == runs[1]

    def test_method_all_writes_three_files(self, tmp_path, const_profile, capsys):
        out = tmp_path / "traj.csv"
        code = run(["propagate", "--input", const_profile, "--dt", "0.01",
                    "--method", "all", "--output", out, "--format", "json"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["method"] for r in reports] == ["euler", "euler_renorm", "exp"]
        for method in ("euler", "euler_renorm", "exp"):
            assert (tmp_path / f"traj.{method}.csv").exists()

    def test_degrees_flag(self, tmp_path, capsys):
        prof = tmp_path / "wdeg.csv"
        # 90 deg/s about z for 1 s
        prof.write_text("t,wx,wy,wz\n0,0,0,90\n1,0,0,90\n")
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", prof, "--dt", "0.001", "--degrees",
                    "--output", out]) == 0
        traj = kio.read_trajectory(out)
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.linalg.norm(traj.final() - expected) <= 1e-9
        assert "# degrees_input=true" in out.read_text()

    def test_degrees_relabel_does_not_recheck_the_grid(self, tmp_path, capsys, monkeypatch):
        checks = []
        monkeypatch.setattr(propagator, "uniform_step", lambda times: checks.append(times))
        prof = tmp_path / "wdeg.csv"
        prof.write_text("t,wx,wy,wz\n0,0,0,90\n1,0,0,90\n")
        assert run(["propagate", "--input", prof, "--dt", "0.01", "--degrees", "--method", "all",
                    "--output", tmp_path / "traj.csv"]) == 0
        assert checks == []
        for method in ("euler", "euler_renorm", "exp"):
            assert "# degrees_input=true" in (tmp_path / f"traj.{method}.csv").read_text()

    def test_euler_overflow_is_one_error_line(self, tmp_path, capsys):
        prof = tmp_path / "huge.csv"
        prof.write_text("t,wx,wy,wz\n0,1e300,0,0\n1,1e300,0,0\n")
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", prof, "--dt", "0.5", "--method", "euler",
                    "--output", out]) == 1
        assert capsys.readouterr().err == \
            "error: sample 2 (t = 1.0): matrix has non-finite entries\n"
        assert not out.exists()

    def test_a_non_finite_rate_is_one_error_line_naming_its_line(self, tmp_path, capsys):
        prof = tmp_path / "nanw.csv"
        prof.write_text("t,wx,wy,wz\n0,0,0,1\n1,0,0,1\n2,nan,0,1\n3,0,0,1\n")
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", prof, "--dt", "0.1", "--output", out]) == 2
        assert capsys.readouterr().err == f"error: {prof}:4: wx = nan is not finite\n"
        assert not out.exists()

    def test_decreasing_times_name_the_sample(self, tmp_path, capsys):
        prof = tmp_path / "dec.csv"
        prof.write_text("t,wx,wy,wz\n0,0,0,1\n0.5,0,0,1\n0.4,0,0,1\n")
        assert run(["propagate", "--input", prof, "--dt", "0.1",
                    "--output", tmp_path / "traj.csv"]) == 2
        assert capsys.readouterr().err == (
            f"error: {prof}: sample 2 (t = 0.4): sample times must be strictly increasing\n")

    def test_initial_attitude_off_so3_names_its_file(self, tmp_path, const_profile, capsys):
        init = tmp_path / "r0.csv"
        init.write_text("1,1,0\n0,1,0\n0,0,1\n")
        assert run(["propagate", "--input", const_profile, "--dt", "0.01",
                    "--initial", init, "--output", tmp_path / "traj.csv"]) == 1
        assert re.fullmatch(re.escape(f"error: {init}: ||M^T M - I||_F = ") + r".* exceeds .*\n",
                            capsys.readouterr().err)

    def test_initial_attitude(self, tmp_path, const_profile, capsys):
        init = tmp_path / "r0.csv"
        init.write_text("0,-1,0\n1,0,0\n0,0,1\n")
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.01",
                    "--output", out]) == 0
        traj = kio.read_trajectory(out)
        assert np.array_equal(traj.matrices[0], np.eye(3))
        assert run(["propagate", "--input", const_profile, "--dt", "0.01",
                    "--initial", init, "--output", out]) == 0
        traj = kio.read_trajectory(out)
        assert traj.matrices[0][0, 1] == -1.0


class TestMethodAll:
    """--method all runs one propagate call per method, in name order, before
    it writes any file: each file and report is the one a run of that method
    alone gives, and a failure is the first one met in name order."""

    name_order = [Method.EULER, Method.EULER_RENORM, Method.EXPONENTIAL]
    rng = np.random.default_rng(21)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 0.1, 5)), [0.1]])
    rates = 4.0 * rng.normal(size=(7, 3))
    r0 = random_rotation(np.random.default_rng(22))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("degrees", [False, True])
    @pytest.mark.parametrize("sampling", ["start", "midpoint"])
    @pytest.mark.parametrize("interp", ["linear", "zoh"])
    def test_each_file_and_report_is_that_of_a_run_of_its_method(
            self, tmp_path, capsys, interp, sampling, degrees, fmt):
        prof, init = tmp_path / "w.csv", tmp_path / "r0.csv"
        kio.write_rate_profile(prof, RateProfile(self.knots, self.rates))
        init.write_text(kio.format_matrix(self.r0) + "\n")
        common = ["propagate", "--input", prof, "--initial", init, "--dt", "1e-3",
                  "--interp", interp, "--rate-sampling", sampling, "--format", fmt]
        common += ["--degrees"] if degrees else []
        assert run(common + ["--method", "all", "--output", tmp_path / "all.csv"]) == 0
        together, alone = capsys.readouterr().out, []
        for method in self.name_order:
            out = tmp_path / f"{method.value}.csv"
            assert run(common + ["--method", method.value.replace("_", "-"),
                                 "--output", out]) == 0
            alone.append(capsys.readouterr().out)
            assert (tmp_path / f"all.{method.value}.csv").read_bytes() == out.read_bytes()
        if fmt == "json":
            assert json.loads(together) == [json.loads(report) for report in alone]
        else:
            assert together == "\n\n".join(report.rstrip("\n") for report in alone) + "\n"

    smooth = np.column_stack([np.linspace(0.0, 1.0, 11)] + [
        f(np.linspace(0.0, 1.0, 11)) for f in (lambda t: np.sin(3 * t),
                                               lambda t: np.cos(2 * t), lambda t: 0.5 + t)])

    # rows of t, wx, wy, wz; dt; --interp; --tol-ortho; the method that fails
    # first in name order; the start of its message
    failures = {
        # |dt w|^2 overflows from step 3 on, dt w itself at step 5: exp fails
        # at increment 3, but euler, first in name order, at sample 5
        "late_overflow": ([[0, 1, 0, 0], [5, 1e300, 0, 0], [10, 1e308, 0, 0], [12, 1e308, 0, 0]],
                          2.0, "zoh", 1e-9, Method.EULER, "sample 5 (t = 10.0): "),
        "non_finite_rate": ([[0, 1, 0, 0], [30, 1e308, 0, 0], [40, 1e308, 0, 0]],
                            2.0, "zoh", 1e-9, Method.EULER, "step 15 (t = 30.0): "),
        "bad_increment": ([[0, 1, 0, 0], [5, 1e300, 0, 0], [10, 1e300, 0, 0]],
                          0.5, "zoh", 1e-9, Method.EULER, "sample 12 (t = 6.0): "),
        "first_increment": ([[0, 1e300, 0, 0], [1, 1e300, 0, 0]],
                            0.5, "linear", 1e-9, Method.EULER, "sample 2 (t = 1.0): "),
        # euler is never held to the tolerance, so euler_renorm fails first
        "tight_increment": (smooth, 1e-3, "linear", 1e-16, Method.EULER_RENORM,
                            "increment of step "),
        "tight_sample": (smooth, 1e-3, "linear", 4.5e-16, Method.EULER_RENORM, "sample "),
    }

    @pytest.mark.parametrize("case", failures)
    def test_raises_the_first_failure_in_name_order(self, tmp_path, capsys, case):
        rows, dt, interp, ortho_tol, failing, prefix = self.failures[case]
        rows, prof = np.array(rows, dtype=float), tmp_path / "w.csv"
        kio.write_rate_profile(prof, RateProfile(rows[:, 0], rows[:, 1:]))
        assert run(["propagate", "--input", prof, "--output", tmp_path / "traj.csv",
                    "--dt", dt, "--interp", interp, "--tol-ortho", ortho_tol,
                    "--method", "all"]) == 1
        profile = kio.read_rate_profile(prof, Interpolation(interp))
        r0 = validate_rotation(np.eye(3), ToleranceConfig(ortho_tol=ortho_tol))
        for method in self.name_order[:self.name_order.index(failing)]:
            propagate(r0, profile, dt, method)
        with pytest.raises(So3Error) as info:
            propagate(r0, profile, dt, failing)
        assert str(info.value).startswith(prefix)
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert list(tmp_path.glob("traj*")) == []


class TestVerifyCommand:
    def test_round_trip_passes(self, tmp_path, const_profile, capsys):
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.001",
                    "--method", "exp", "--output", out]) == 0
        capsys.readouterr()
        code = run(["verify", "--trajectory", out, "--profile", const_profile,
                    "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["estimated_order"] >= 1.8
        assert report["max_residual"] <= 10.0 * 1e-6

    def test_corrupted_trajectory_fails(self, tmp_path, const_profile, capsys):
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.001",
                    "--method", "exp", "--output", out]) == 0
        lines = out.read_text().splitlines()
        row = lines[500].split(",")
        row[1] = kio.fmt(float(row[1]) + 0.5)
        lines[500] = ",".join(row)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", const_profile]) == 1

    @pytest.mark.parametrize("strides, worst", [("1,2,4", (493, 495)), ("2,4", (492, 496))])
    def test_failure_names_the_worst_sample(self, tmp_path, const_profile, capsys,
                                            strides, worst):
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.001",
                    "--method", "exp", "--output", out]) == 0
        lines = out.read_text().splitlines()
        row = lines[500].split(",")  # sample 494, after 6 metadata and header lines
        assert float(row[0]) == pytest.approx(0.494)
        row[1] = kio.fmt(float(row[1]) + 0.5)
        lines[500] = ",".join(row)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", const_profile,
                    "--strides", strides]) == 1
        found = re.search(r"worst at sample (\d+) \(t = (\S+)\)$", capsys.readouterr().err)
        index, t = int(found[1]), float(found[2])
        assert index in worst
        assert t == pytest.approx(index * 1e-3, abs=1e-12)

    def test_degrees_round_trip_matches_radians(self, tmp_path, capsys):
        # a knot at every 1 ms sample, so the radian pair passes verify
        t = np.arange(2001) * 1e-3
        w = np.column_stack([np.sin(t), np.cos(2.0 * t), np.full_like(t, 0.5)])
        results = {}
        for name, rates, flags in (("rad", w, []), ("deg", np.degrees(w), ["--degrees"])):
            prof, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.traj.csv"
            kio.write_rate_profile(prof, RateProfile(t, rates))
            assert run(["propagate", "--input", prof, "--dt", "0.001", "--output", out,
                        "--rate-sampling", "midpoint", *flags]) == 0
            capsys.readouterr()
            code = run(["verify", "--trajectory", out, "--profile", prof, "--format", "json"])
            results[name] = code, json.loads(capsys.readouterr().out)["max_residual"]
        assert results["rad"][0] == 0
        assert results["deg"][0] == 0
        assert results["deg"][1] == pytest.approx(results["rad"][1], rel=1e-6)

    @pytest.fixture
    def stationary(self, tmp_path, capsys):
        """(trajectory, profile) of a body at rest: w = 0 over [0, 1], dt 0.01."""
        prof = tmp_path / "still.csv"
        prof.write_text("t,wx,wy,wz\n0,0,0,0\n1,0,0,0\n")
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", prof, "--dt", "0.01", "--output", out]) == 0
        capsys.readouterr()
        return out, prof

    def test_a_grid_uniform_as_a_whole_verifies_at_every_stride(self, tmp_path, capsys):
        """Times off a 1 ms grid by 0, 0.9, 1.8 and 0.9 ps in turn: each
        interval is within the 1e-12 the grid check allows, while every
        second sample alone is 1.8e-12 off."""
        k = np.arange(1001)
        times = k * 1e-3 + 0.9e-12 * np.array([0.0, 1.0, 2.0, 1.0])[k % 4]
        rows = np.column_stack([times, np.tile(np.eye(3).ravel(), (k.size, 1)),
                                np.zeros((k.size, 2))])
        traj = tmp_path / "traj.csv"
        np.savetxt(traj, rows, fmt="%.17g", delimiter=",", comments="",
                   header="# so3kin trajectory\n# dt=0.001\n" + kio.TRAJECTORY_HEADER)
        prof = tmp_path / "still.csv"
        prof.write_text("t,wx,wy,wz\n0,0,0,0\n1,0,0,0\n")
        assert run(["verify", "--trajectory", traj, "--profile", prof]) == 0
        captured = capsys.readouterr()
        assert "estimated_order=n/a" in captured.out.splitlines()
        assert captured.err == ""

    def test_stationary_trajectory_passes(self, stationary, capsys):
        out, prof = stationary
        assert run(["verify", "--trajectory", out, "--profile", prof, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_residual"] == 0.0
        assert report["estimated_order"] is None

    # Sample 48 is on every stride's grid; sample 50 is not on stride 4's.
    @pytest.mark.parametrize("sample, error", [
        (48, "verification failed: "),
        (50, "error: max residual is exactly 0 at strides [4] of [1, 2, 4]"),
    ])
    def test_stationary_trajectory_with_one_entry_moved_fails(self, stationary, capsys,
                                                              sample, error):
        out, prof = stationary
        lines = out.read_text().splitlines()
        row = lines[6 + sample].split(",")
        row[1] = "1.001"
        lines[6 + sample] = ",".join(row)
        out.write_text("\n".join(lines) + "\n")
        assert run(["verify", "--trajectory", out, "--profile", prof]) == 1
        assert capsys.readouterr().err.startswith(error)

    @pytest.mark.parametrize("strides", ["1", "1,1"])
    def test_fewer_than_two_distinct_strides_exit_1(self, tmp_path, const_profile, capsys,
                                                    strides):
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.001",
                    "--output", out]) == 0
        assert run(["verify", "--trajectory", out, "--profile", const_profile]) == 0
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", const_profile,
                    "--strides", strides]) == 1
        err = capsys.readouterr().err
        assert f"need at least two distinct positive strides, got [{strides.replace(',', ', ')}]" in err
        assert "verification failed" not in err

    def test_interp_is_a_usage_error(self, tmp_path, const_profile, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--trajectory", tmp_path / "traj.csv", "--profile", const_profile,
                 "--interp", "zoh"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --interp zoh" in capsys.readouterr().err

    def test_mismatched_time_ranges(self, tmp_path, const_profile, capsys):
        short = tmp_path / "short.csv"
        short.write_text("t,wx,wy,wz\n0,0,0,1\n0.5,0,0,1\n")
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.001",
                    "--output", out]) == 0
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", short]) == 1

    def test_a_profile_that_does_not_cover_the_trajectory_names_both_files(
            self, tmp_path, const_profile, capsys):
        short = tmp_path / "short.csv"
        short.write_text("t,wx,wy,wz\n0,0,0,1\n0.5,0,0,1\n")
        out = tmp_path / "t2.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.01",
                    "--output", out]) == 0
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", short]) == 1
        assert capsys.readouterr() == ("", f"error: {short} does not cover {out}: "
                                           "t = 0.51 outside profile span [0.0, 0.5]\n")

    @pytest.mark.parametrize("key", ["truncated_span", "degrees_input"])
    def test_a_flag_other_than_true_or_false_exits_2_naming_the_file_and_key(
            self, tmp_path, const_profile, capsys, key):
        out = tmp_path / "t.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.01",
                    "--output", out]) == 0
        out.write_text(out.read_text().replace(f"# {key}=false", f"# {key}=True"))
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", const_profile]) == 2
        assert capsys.readouterr() == (
            "", f"error: {out}: {key} metadata: expected true or false, got 'True'\n")

    def test_missing_file_exits_2(self, tmp_path, const_profile):
        assert run(["verify", "--trajectory", tmp_path / "nope.csv",
                    "--profile", const_profile]) == 2

    def test_non_uniform_trajectory_exits_2(self, tmp_path, const_profile, capsys):
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.1",
                    "--output", out]) == 0
        lines = out.read_text().splitlines()
        row = lines[10].split(",")
        row[0] = "0.42"
        lines[10] = ",".join(row)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", const_profile]) == 2
        assert "uniform" in capsys.readouterr().err

    # 21 samples at rest against w = 0 on [-1, 1], on an even grid of times that do not
    # step forward: a parse error naming sample 1, with no numpy warning
    @pytest.mark.parametrize("step", [0.0, -0.01])
    def test_times_that_do_not_step_forward_exit_2_naming_the_sample(self, tmp_path, capsys,
                                                                     step):
        prof, out = tmp_path / "still.csv", tmp_path / "traj.csv"
        prof.write_text("t,wx,wy,wz\n-1,0,0,0\n1,0,0,0\n")
        rows = np.column_stack([step * np.arange(21), np.tile(np.eye(3).ravel(), (21, 1)),
                                np.zeros((21, 2))])
        out.write_text(kio.TRAJECTORY_HEADER + "\n" + kio.format_matrix(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--trajectory", out, "--profile", prof]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {out}: sample 1 (t = {step}): step {step} is not positive; "
            "trajectory sample times must increase\n"))

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_time_exits_2_naming_the_sample(self, tmp_path, const_profile, capsys,
                                                       token):
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.01",
                    "--output", out]) == 0
        lines = out.read_text().splitlines()
        lines[6 + 50] = token + "," + lines[6 + 50].split(",", 1)[1]  # sample 50's time
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", const_profile]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}: sample 50 (t = {token}): time is not finite; "
            "trajectory sample times must lie on a uniform grid\n")

    def test_non_finite_time_of_a_single_sample_exits_2_naming_it(self, tmp_path,
                                                                 const_profile, capsys):
        out = tmp_path / "traj.csv"
        out.write_text("# dt=0.01\n" + kio.TRAJECTORY_HEADER + "\nnan,1,0,0,0,1,0,0,0,1,0,0\n")
        assert run(["verify", "--trajectory", out, "--profile", const_profile]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}: sample 0 (t = nan): time is not finite; "
            "trajectory sample times must lie on a uniform grid\n")

    def test_non_finite_rotation_entry_exits_2_naming_its_line(self, tmp_path, const_profile,
                                                              capsys):
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.1",
                    "--output", out]) == 0
        lines = out.read_text().splitlines()
        row = lines[9].split(",")  # file line 10, sample 3
        row[5] = "nan"
        lines[9] = ",".join(row)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", const_profile]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}:10: rotation entry r22 = nan is not finite\n")

    def test_unparsable_dt_metadata_exits_2_naming_the_file(self, tmp_path, const_profile,
                                                            capsys):
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.1",
                    "--output", out]) == 0
        out.write_text(out.read_text().replace("# dt=0.10000000000000001", "# dt=abc"))
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", const_profile]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}: dt metadata: could not convert string to float: 'abc'\n")

    def test_a_stride_leaving_too_few_samples_names_itself(self, tmp_path, const_profile,
                                                          capsys):
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.002",
                    "--output", out]) == 0
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", const_profile,
                    "--strides", "1,400"]) == 1
        assert capsys.readouterr().err == \
            "error: stride 400 leaves 2 of 501 samples; need at least 3\n"

    def test_a_bad_stride_literal_names_the_argument(self, tmp_path, const_profile, capsys):
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.01",
                    "--output", out]) == 0
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", const_profile,
                    "--strides", "1,abc"]) == 1
        assert capsys.readouterr().err == \
            "error: --strides '1,abc': invalid literal for int() with base 10: 'abc'\n"

    def test_bad_token_exits_2_naming_its_line(self, tmp_path, const_profile, capsys):
        out = tmp_path / "traj.csv"
        assert run(["propagate", "--input", const_profile, "--dt", "0.1",
                    "--output", out]) == 0
        lines = out.read_text().splitlines()
        lines[9] = lines[9].replace(",", ",x", 1)  # file line 10
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["verify", "--trajectory", out, "--profile", const_profile]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}:10: could not convert")


# A byte that is not UTF-8 is a parse error: exit 2, naming the file and its line.
@pytest.mark.parametrize("command, name, text, lineno", [
    pytest.param(["propagate", "--input", "{}", "--output", "o.csv", "--dt", "0.1"], "bad.csv",
                 b"t,wx,wy,wz\n0,0,0,1\n1,\xff0,0,1\n2,0,0,1\n", 3, id="propagate"),
    pytest.param(["log", "{}"], "r.csv", b"1,0,0\n0,1,0\n\xff0,0,1\n", 3, id="log"),
    pytest.param(["propagate", "--input", "{}", "--output", "o.csv", "--dt", "0.1"], "bom.csv",
                 b"\xef\xbb\xbft,wx,wy,wz\n0,0,0,1\n1,\xff0,0,1\n2,0,0,1\n", 3,
                 id="propagate-after-a-byte-order-mark"),
    pytest.param(["verify", "--trajectory", "{}", "--profile", "w.csv"], "traj.npy", None, 1,
                 id="verify-npy"),
])
def test_an_input_that_is_not_utf8_exits_2_naming_its_line(tmp_path, capsys, monkeypatch,
                                                            command, name, text, lineno):
    monkeypatch.chdir(tmp_path)
    Path("w.csv").write_text("t,wx,wy,wz\n0,0,0,1\n1,0,0,1\n")
    if text is None:
        np.save(name, np.eye(3))  # a binary file passed by mistake: it starts with 0x93
    else:
        Path(name).write_bytes(text)
    assert run([a.format(name) for a in command]) == 2
    assert capsys.readouterr().err.startswith(f"error: {name}:{lineno}: 'utf-8' codec ")
    assert not Path("o.csv").exists()


def test_a_report_of_overflowed_drift_is_strict_json(tmp_path, capsys):
    # w = 1e100 rad/s: the euler samples stay finite, their Gram products and dets do not
    prof = tmp_path / "big.csv"
    prof.write_text("t,wx,wy,wz\n0,1e100,0,0\n1.5,1e100,0,0\n")
    assert run(["propagate", "--input", prof, "--output", tmp_path / "b.csv", "--dt", "0.5",
                "--method", "euler", "--format", "json"]) == 0
    report = strict_json_loads(capsys.readouterr().out)
    assert (report["max_ortho_err"], report["max_det_err"], report["steps"]) == ("inf", "inf", 3)


# The report keys in the order of README.md's File formats section.
REPORT_KEYS = ["method", "dt", "steps", "max_ortho_err", "max_det_err", "max_residual",
               "estimated_order", "truncated_span"]


def text_value(value):
    """A report value as the text report writes it."""
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return str(value).lower()
    return "%.17g" % value if isinstance(value, float) else str(value)


def written_reports(out, fmt):
    """The reports a command printed, as dicts in printed order."""
    if fmt == "json":
        reports = json.loads(out)
        return reports if isinstance(reports, list) else [reports]
    return [dict(line.split("=", 1) for line in block.splitlines())
            for block in out.rstrip("\n").split("\n\n")]


class TestReports:
    """Every report in full: propagate's dt is the --dt given, its drift the maxima of
    the written columns; verify's dt, residual and order are those of its check."""

    # 34 samples at a 3 ms step over a 0.1 s span, so the span is truncated; off t = 0,
    # the grid's mean step is not the 3 ms it was built with
    rng = np.random.default_rng(31)
    knots = np.linspace(1.3, 1.4, 6)
    rates = rng.normal(size=(6, 3))

    @staticmethod
    def table(path):
        rows = [line for line in path.read_text().splitlines() if not line.startswith(("#", "t,"))]
        return np.array([[float(x) for x in row.split(",")] for row in rows])

    def expected(self, path, method, dt, residual=None):
        table = self.table(path)
        return {"method": method, "dt": dt, "steps": len(table) - 1,
                "max_ortho_err": float(table[:, 10].max()),
                "max_det_err": float(table[:, 11].max()),
                "max_residual": None if residual is None else residual.max_residual,
                "estimated_order": None if residual is None else residual.estimated_order,
                "truncated_span": True}

    def check(self, printed, fmt, expected):
        reports = written_reports(printed, fmt)
        assert [list(r) for r in reports] == [REPORT_KEYS] * len(expected)
        if fmt == "text":
            expected = [{k: text_value(v) for k, v in e.items()} for e in expected]
        assert reports == expected

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("method", ["exp", "all"])
    def test_propagate_and_verify_reports(self, tmp_path, capsys, method, fmt):
        prof, out = tmp_path / "w.csv", tmp_path / "traj.csv"
        kio.write_rate_profile(prof, RateProfile(self.knots, self.rates))
        assert run(["propagate", "--input", prof, "--output", out, "--dt", "0.003",
                    "--method", method, "--rate-sampling", "midpoint", "--format", fmt]) == 0
        names = ["exp"] if method == "exp" else ["euler", "euler_renorm", "exp"]
        paths = [out] if method == "exp" else [tmp_path / f"traj.{m}.csv" for m in names]
        self.check(capsys.readouterr().out, fmt,
                   [self.expected(path, m, 0.003) for path, m in zip(paths, names)])
        for path, m in zip(paths, names):
            residual = residual_order_report(kio.read_trajectory(path),
                                             kio.read_rate_profile(prof), [1, 2, 4])
            assert residual.step_sizes[0] != 0.003  # the finest step measured
            assert run(["verify", "--trajectory", path, "--profile", prof,
                        "--format", fmt]) in (0, 1)
            self.check(capsys.readouterr().out, fmt,
                       [self.expected(path, m, residual.step_sizes[0], residual)])


SUBCOMMANDS = [
    ["verify", "--trajectory", "t.csv", "--profile", "w.csv"],
    ["hat", "1,2,3"],
    ["propagate", "--input", "w.csv", "--output", "t.csv", "--dt", "0.1"],
    ["vee", "0,-3,2,3,0,-1,-2,1,0"],
    ["compose", "a.csv", "b.csv"],
    ["exp", "1,2,3"],
    ["log", "r.csv"],
]


# --tol-ortho is a usage error where no matrix is validated (verify, hat);
# --tol-det everywhere, since det > 0 is a sign test, not a tolerance.
@pytest.mark.parametrize("args, flag", [
    pytest.param(args, flag, id=f"{flag}-args{i}")
    for flag in ("--tol-ortho", "--tol-det")
    for i, args in enumerate(SUBCOMMANDS)
    if flag == "--tol-det" or args[0] in ("verify", "hat")
])
def test_tolerance_flags_are_usage_errors_where_unused(args, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(args + [flag, "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestMatrixCommands:
    def test_hat(self, capsys):
        assert run(["hat", "1,2,3"]) == 0
        assert capsys.readouterr().out == "0,-3,2\n3,0,-1\n-2,1,0\n"

    def test_hat_zero(self, capsys):
        assert run(["hat", "0,0,0"]) == 0
        assert capsys.readouterr().out == "0,0,0\n0,0,0\n0,0,0\n"

    def test_hat_of_a_negative_first_component_after_dashes(self, capsys):
        assert run(["hat", "--", "-1,2,3"]) == 0
        assert capsys.readouterr().out == "0,-3,2\n3,0,1\n-2,-1,0\n"

    def test_exp_of_a_negative_first_component_after_dashes(self, capsys):
        assert run(["exp", "--", "-0.1,0,0"]) == 0
        assert capsys.readouterr().out == kio.format_matrix(
            exp_so3((-0.1, 0.0, 0.0)).matrix) + "\n"

    @pytest.mark.parametrize("command", ["hat", "vee", "exp"])
    def test_help_says_dashes_go_before_a_negative_first_component(self, command, capsys):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        assert "put -- before it" in " ".join(capsys.readouterr().out.split())

    def test_hat_arity_error(self, capsys):
        assert run(["hat", "1,2"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["hat", "1,2,x"], "vector '1,2,x': could not convert string to float: 'x'"),
        (["hat", "1,2"], "vector '1,2': expected 3 comma-separated values, got 2"),
        (["exp", "1,x,3"], "vector '1,x,3': could not convert string to float: 'x'"),
        (["vee", "0,0,0,0,0,0,0,0,y"],
         "matrix '0,0,0,0,0,0,0,0,y': could not convert string to float: 'y'"),
    ], ids=["hat", "hat-arity", "exp", "vee"])
    def test_a_bad_literal_names_the_argument(self, argv, message, capsys):
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_vee_inverts_hat(self, capsys):
        assert run(["vee", "0,-3,2,3,0,-1,-2,1,0"]) == 0
        assert capsys.readouterr().out == "1,2,3\n"

    def test_hat_json(self, capsys):
        assert run(["hat", "1,2,3", "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            '{"matrix": [[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]]}\n')

    def test_vee_json(self, capsys):
        assert run(["vee", "0,-3,2,3,0,-1,-2,1,0", "--format", "json"]) == 0
        assert capsys.readouterr().out == '{"vector": [1.0, 2.0, 3.0]}\n'

    def test_vee_rejects_non_skew(self, capsys):
        assert run(["vee", "1,0,0,0,1,0,0,0,1"]) == 1

    def test_compose(self, tmp_path, capsys):
        rx = tmp_path / "rx.csv"
        rz = tmp_path / "rz.csv"
        c = np.cos(np.pi / 2)
        rx.write_text(f"1,0,0\n0,{kio.fmt(c)},-1\n0,1,{kio.fmt(c)}\n")
        rz.write_text(f"{kio.fmt(c)},-1,0\n1,{kio.fmt(c)},0\n0,0,1\n")
        assert run(["compose", rx, rz, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)["matrix"]
        expected = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.linalg.norm(np.array(out) - expected) <= 1e-15

    def test_compose_identity(self, tmp_path, capsys):
        ident = tmp_path / "i.csv"
        ident.write_text("1,0,0\n0,1,0\n0,0,1\n")
        rot = tmp_path / "r.csv"
        rot.write_text("0,-1,0\n1,0,0\n0,0,1\n")
        assert run(["compose", rot, ident]) == 0
        assert capsys.readouterr().out == "0,-1,0\n1,0,0\n0,0,1\n"

    def test_compose_rejects_reflection(self, tmp_path, capsys):
        refl = tmp_path / "refl.csv"
        refl.write_text("1,0,0\n0,1,0\n0,0,-1\n")
        ident = tmp_path / "i.csv"
        ident.write_text("1,0,0\n0,1,0\n0,0,1\n")
        assert run(["compose", refl, ident]) == 1
        assert "det" in capsys.readouterr().err

    @pytest.mark.parametrize("command, files", [("compose", ["bad.csv", "i.csv"]),
                                                ("compose", ["i.csv", "bad.csv"]),
                                                ("log", ["bad.csv"])])
    def test_a_matrix_file_off_so3_is_named(self, tmp_path, capsys, command, files):
        (tmp_path / "bad.csv").write_text("1,1,0\n0,1,0\n0,0,1\n")
        (tmp_path / "i.csv").write_text("1,0,0\n0,1,0\n0,0,1\n")
        assert run([command] + [tmp_path / name for name in files]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'bad.csv'}: ||M^T M - I||_F = ")
        assert err.count("\n") == 1

    def test_a_product_off_so3_names_both_files(self, tmp_path, capsys):
        # ortho defect 9.0e-10 alone, under the default 1e-9; 1.8e-9 for the product
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            path.write_text("1.00000000045,0,0\n0,1,0\n0,0,1\n")
        assert run(["compose", a, b]) == 1
        assert capsys.readouterr().err == \
            f"error: {b} * {a}: ||M^T M - I||_F = 1.800e-09 exceeds ortho_tol = 1.000e-09\n"

    def test_exp_of_a_rate_too_large_to_square_is_one_error_line(self, capsys):
        assert run(["exp", "1e300,0,0"]) == 1
        assert capsys.readouterr().err == "error: matrix has non-finite entries\n"

    def test_exp_log_round_trip(self, tmp_path, capsys):
        assert run(["exp", "0.1,-0.2,0.3"]) == 0
        matrix_text = capsys.readouterr().out
        m = tmp_path / "m.csv"
        m.write_text(matrix_text)
        assert run(["log", m]) == 0
        vec = np.array([float(x) for x in capsys.readouterr().out.strip().split(",")])
        assert np.linalg.norm(vec - np.array([0.1, -0.2, 0.3])) <= 1e-9


# -- the process: one parser, entry's exit codes -----------------------------

SRC = Path(so3kin.__file__).resolve().parents[1]


def fresh_python(args, env=None, **kwargs):
    """Run `python *args` in a fresh interpreter that imports this so3kin,
    with PYTHONUNBUFFERED unset unless `env` sets it."""
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    environ.update(env or {})
    return subprocess.run([sys.executable, *args], env=environ, timeout=120, **kwargs)


# Counts every ArgumentParser constructed (a subparser is one too): after
# importing so3kin.cli, then after each main(argv) of the JSON list argv[1].
COUNT_PARSERS = """
import argparse, contextlib, io, json, sys
built = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import so3kin.cli
counts = [built]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        so3kin.cli.main(argv)
    counts.append(built)
print(json.dumps(counts))
"""


def parsers_built(argvs, cwd):
    proc = fresh_python(["-c", COUNT_PARSERS, json.dumps(argvs)], cwd=cwd,
                        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_importing_the_cli_builds_no_parser(tmp_path):
    assert parsers_built([], tmp_path) == [0]


def test_main_calls_build_one_parser_tree_per_process(tmp_path):
    argvs = [["hat", "1,2,3"], ["vee", "0,-3,2,3,0,-1,-2,1,0"], ["exp", "0.1,0,0"],
             ["verify", "--trajectory", "nope.csv", "--profile", "nope.csv"],
             ["propagate", "--input", "nope.csv", "--output", "t.csv", "--dt", "0.1"],
             ["hat", "1,2,3"]]
    counts = parsers_built(argvs, tmp_path)
    assert counts[1] > 0
    assert counts[1:] == [counts[1]] * len(argvs)


LEAK_SEQUENCE = [
    ["propagate", "--input", "w.csv", "--output", "traj.csv", "--dt", "0.01",
     "--method", "all", "--format", "json", "--degrees", "--interp", "zoh"],
    ["propagate", "--input", "w.csv", "--output", "traj.csv", "--dt", "0.01"],
    ["verify", "--trajectory", "traj.csv", "--profile", "w.csv", "--strides", "1,2"],
    ["verify", "--trajectory", "traj.csv", "--profile", "w.csv"],
]


def test_no_state_leaks_from_one_main_call_to_the_next(tmp_path, monkeypatch, capsys):
    """Each call, run after the ones before it in this process, gives the exit
    code, output and files it gives as the first call of a fresh interpreter."""
    seed = tmp_path / "seed"
    seed.mkdir()
    (seed / "w.csv").write_text("t,wx,wy,wz\n0,0.5,0,1\n0.4,0,0.8,1\n1,-0.3,0,2\n")
    fresh_python(["-m", "so3kin.cli", *LEAK_SEQUENCE[1]], cwd=seed, check=True,
                 capture_output=True)  # the trajectory the verify calls read
    monkeypatch.chdir(shutil.copytree(seed, tmp_path / "in_process"))
    for i, argv in enumerate(LEAK_SEQUENCE):
        first = shutil.copytree(seed, tmp_path / f"first{i}")
        proc = fresh_python(["-m", "so3kin.cli", *argv], cwd=first,
                            capture_output=True, text=True)
        code = main(argv)
        assert (code, *capsys.readouterr()) == (proc.returncode, proc.stdout, proc.stderr)
        for path in first.iterdir():
            assert Path(path.name).read_bytes() == path.read_bytes(), (argv, path.name)


def test_a_usage_error_leaves_the_next_call_working(capsys):
    for argv in (["hat"], ["propagate", "--dt", "x"], ["nope"], ["hat", "--format", "xml"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert run(["hat", "1,2,3"]) == 0
        assert capsys.readouterr().out == "0,-3,2\n3,0,-1\n-2,1,0\n"


@pytest.mark.parametrize("argv", [["--help"]] + [[args[0], "--help"] for args in SUBCOMMANDS],
                         ids=lambda argv: argv[0])
def test_help_is_the_same_on_the_first_and_later_calls(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    first = fresh_python(["-m", "so3kin.cli", *argv], env={"COLUMNS": "80"},
                         capture_output=True, text=True)
    assert (first.returncode, first.stderr) == (0, "")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == first.stdout


# argparse drops a help write that fails, so unbuffered help ends as it began: exit 0.
@pytest.mark.parametrize("argv, unbuffered, code", [
    (["hat", "--", "-1,2,3"], False, 2),
    (["hat", "--", "-1,2,3"], True, 2),
    (["--help"], False, 2),
    (["--help"], True, 0),
    (["propagate", "--help"], False, 2),
], ids=["buffered", "unbuffered", "help-buffered", "help-unbuffered", "propagate-help-buffered"])
def test_a_closed_stdout_pipe_exits_quietly(argv, unbuffered, code):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        proc = fresh_python(["-m", "so3kin.cli", *argv],
                            env={"PYTHONUNBUFFERED": "1"} if unbuffered else {},
                            stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, b"")


class ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_main_returns_2_and_prints_nothing_on_a_closed_pipe(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["hat", "1,2,3"]) == 2
    assert capsys.readouterr().err == ""


def test_output_to_a_file_is_written_in_full(tmp_path):
    out = tmp_path / "hat.txt"
    with out.open("wb") as stdout:
        proc = fresh_python(["-m", "so3kin.cli", "hat", "--", "-1,2,3"],
                            stdout=stdout, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_text() == "0,-3,2\n3,0,1\n-2,-1,0\n"
