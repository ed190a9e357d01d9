import re

import numpy as np
import pytest

from so3kin import io as kio
from so3kin.core import RotationMatrix
from so3kin.propagator import (
    DriftReport,
    Interpolation,
    Method,
    RateProfile,
    Trajectory,
    drift_report,
    propagate,
)


@pytest.fixture
def profile():
    ts = np.linspace(0.0, 1.0, 11)
    ws = np.column_stack([np.sin(ts), np.cos(ts), np.full_like(ts, 0.5)])
    return RateProfile(ts, ws)


def test_profile_round_trip(tmp_path, profile):
    path = tmp_path / "w.csv"
    kio.write_rate_profile(path, profile)
    back = kio.read_rate_profile(path)
    assert np.array_equal(back.times, profile.times)
    assert np.array_equal(back.omegas, profile.omegas)


def test_profile_degrees_conversion(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("t,wx,wy,wz\n0,90,0,0\n1,90,0,0\n")
    profile = kio.read_rate_profile(path, degrees=True)
    assert profile.omegas[0, 0] == pytest.approx(np.pi / 2)


@pytest.mark.parametrize("degrees", [False, True])
def test_profile_columns_are_handed_over_read_only(tmp_path, monkeypatch, degrees):
    path = tmp_path / "w.csv"
    path.write_text("t,wx,wy,wz\n0,90,0,0\n1,90,0,0\n")
    handed = {}

    def spy(**kwargs):
        handed.update(kwargs)
        return RateProfile(**kwargs)

    monkeypatch.setattr(kio, "RateProfile", spy)
    profile = kio.read_rate_profile(path, degrees=degrees)
    for name in ("times", "omegas"):
        assert not handed[name].flags.writeable
        assert np.shares_memory(getattr(profile, name), handed[name])


def test_profile_comments_skipped(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("# a comment\nt,wx,wy,wz\n# another\n0,0,0,1\n1,0,0,1\n")
    profile = kio.read_rate_profile(path)
    assert len(profile.times) == 2


def test_profile_bad_header(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("time,wx,wy,wz\n0,0,0,1\n")
    with pytest.raises(kio.ParseError):
        kio.read_rate_profile(path)


def test_profile_bad_column_count(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("t,wx,wy,wz\n0,0,0\n")
    with pytest.raises(kio.ParseError):
        kio.read_rate_profile(path)


@pytest.mark.parametrize("reader,header", [
    (kio.read_rate_profile, kio.PROFILE_HEADER),
    (kio.read_trajectory, kio.TRAJECTORY_HEADER),
])
def test_header_only_file_has_no_data_rows(tmp_path, reader, header):
    path = tmp_path / "f.csv"
    path.write_text(f"# method=exp\n{header}\n\n# done\n")
    with pytest.raises(kio.ParseError, match="no data rows"):
        reader(path)


def test_profile_bytes_are_fmt_of_every_value(tmp_path):
    ws = np.array([[-0.0, 5e-324, 1e300], [-1e300, -5e-324, 0.0], [1.0 / 3.0, -0.0, 1.0]])
    profile = RateProfile(np.array([-0.0, 5e-324, 1e300]), ws)
    path = tmp_path / "w.csv"
    kio.write_rate_profile(path, profile)
    rows = [",".join(kio.fmt(x) for x in (t, *w)) for t, w in zip(profile.times, ws)]
    assert path.read_bytes() == ("\n".join([kio.PROFILE_HEADER] + rows) + "\n").encode()
    tokens = [tok for line in rows for tok in line.split(",")]
    assert "-0" not in tokens and tokens.count("0") == 4


def test_trajectory_round_trip_is_bit_identical(tmp_path, profile):
    traj = propagate(RotationMatrix.identity(), profile, 0.01, Method.EULER)
    path = tmp_path / "traj.csv"
    kio.write_trajectory(path, traj, drift_report(traj))
    back = kio.read_trajectory(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.matrices, traj.matrices)
    assert back.method == "euler"
    assert back.dt == traj.dt
    assert back.truncated_span == traj.truncated_span


def test_trajectory_rows_are_fmt_of_every_value(tmp_path):
    m = np.array([[-0.0, 5e-324, 1e300], [-1e300, -5e-324, 0.0], [1.0 / 3.0, -0.0, 1.0]])
    mats = np.array([m, -m])
    traj = Trajectory(times=np.array([-0.0, 1e-3]), matrices=mats, method="x", dt=1e-3)
    drift = DriftReport(per_sample=[(-0.0, 5e-324, -0.0), (1e-3, 1e300, 2.0 ** -1074)],
                        max_ortho_err=1e300, max_det_err=5e-324)
    path = tmp_path / "traj.csv"
    kio.write_trajectory(path, traj, drift)
    rows = [",".join(kio.fmt(x) for x in (t, *mat.reshape(9), ortho, det))
            for t, mat, (_, ortho, det) in zip(traj.times, mats, drift.per_sample)]
    header = path.read_text().splitlines()[:6]
    assert path.read_bytes() == ("\n".join(header + rows) + "\n").encode()
    tokens = [tok for line in path.read_text().splitlines()[6:] for tok in line.split(",")]
    assert "-0" not in tokens and tokens.count("0") == 8


def test_matrix_file_round_trip(tmp_path):
    m = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    path = tmp_path / "m.csv"
    path.write_text("# quarter turn\n" + kio.format_matrix(m) + "\n")
    assert np.array_equal(kio.read_matrix(path), m)


def test_matrix_file_wrong_shape(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,0,0\n0,1,0\n")
    with pytest.raises(kio.ParseError):
        kio.read_matrix(path)


def test_matrix_file_skips_key_value_comments(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# source=test\n0,-1,0\n# rows=3\n1,0,0\n\n0,0,1\n")
    assert np.array_equal(kio.read_matrix(path), [[0, -1, 0], [1, 0, 0], [0, 0, 1]])


def test_matrix_file_bad_token_names_path_and_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,0,0\n# k=v\n0,x,0\n0,0,1\n")
    with pytest.raises(kio.ParseError, match="^" + re.escape(f"{path}:3: ")):
        kio.read_matrix(path)


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(0)
    for x in rng.normal(size=100):
        assert float(kio.fmt(x)) == x
    assert float(kio.fmt(np.pi / 2000)) == np.pi / 2000


def test_report_text_and_json_carry_same_values():
    import json

    report = kio.report_dict(method="exp", dt=1e-3, steps=100, max_ortho_err=1e-15,
                             max_det_err=2e-15, truncated_span=False,
                             max_residual=None, estimated_order=None)
    text = kio.format_report_text(report)
    fields = dict(line.split("=", 1) for line in text.splitlines())
    assert float(fields["max_ortho_err"]) == 1e-15
    assert fields["max_residual"] == "n/a"
    parsed = json.loads(kio.report_json([report]))
    assert parsed["max_ortho_err"] == 1e-15
    assert parsed["max_residual"] is None
