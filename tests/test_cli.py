import json
import re

import numpy as np
import pytest

from so3kin import io as kio
from so3kin.cli import main
from so3kin.propagator import RateProfile


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
        assert "--dt" in capsys.readouterr().err

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

    def test_hat_arity_error(self, capsys):
        assert run(["hat", "1,2"]) == 1

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
