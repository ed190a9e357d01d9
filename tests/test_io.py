import itertools
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3kin import io as kio
from so3kin import numtext
from so3kin.core import RotationMatrix
from so3kin.differential import ResidualReport
from so3kin.propagator import (
    DriftReport,
    Interpolation,
    Method,
    RateProfile,
    Trajectory,
    propagate,
)

from oracles import line_loop_rows, percent_format_matrix, strict_json_loads


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


def test_file_of_comments_only_is_missing_its_header(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("# x=1\n")
    with pytest.raises(kio.ParseError) as info:
        kio.read_rate_profile(path)
    assert str(info.value) == f"{path}: missing header 't,wx,wy,wz'"


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
    kio.write_trajectory(path, traj)
    back = kio.read_trajectory(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.matrices, traj.matrices)
    assert back.method == "euler"
    assert back.dt == traj.dt
    assert back.truncated_span == traj.truncated_span


def test_metadata_of_numpy_scalars_is_written_as_of_python_scalars(tmp_path):
    # a numpy dt makes propagate's truncated_span a numpy bool
    t = np.linspace(0.0, 0.1, 3)
    profile = RateProfile(t, np.column_stack([t, t, t]))
    headers = []
    for dt in (0.003, np.float64(0.003)):
        path = tmp_path / "traj.csv"
        kio.write_trajectory(path, propagate(RotationMatrix.identity(), profile, dt,
                                             Method.EXPONENTIAL))
        headers.append(path.read_text().splitlines()[:5])
    assert headers[0] == headers[1] == ["# so3kin trajectory", "# method=exp",
                                        "# dt=0.0030000000000000001", "# truncated_span=true",
                                        "# degrees_input=false"]


def test_a_numpy_dt_gives_a_python_bool_and_a_json_report():
    t = np.linspace(0.0, 0.1, 3)
    profile = RateProfile(t, np.column_stack([t, t, t]))
    traj = propagate(RotationMatrix.identity(), profile, np.float64(0.003), Method.EXPONENTIAL)
    assert type(traj.truncated_span) is bool
    assert strict_json_loads(kio.report_json([kio.report_dict(traj)]))["truncated_span"] is True


@pytest.mark.parametrize("key", ["truncated_span", "degrees_input"])
@pytest.mark.parametrize("value", ["True", "False", "1", "yes", ""])
def test_a_metadata_flag_other_than_true_or_false_names_the_file_and_key(tmp_path, key, value):
    path = tmp_path / "t.csv"
    kio.write_trajectory(path, propagate(RotationMatrix.identity(),
                                         RateProfile.constant((0.0, 0.0, 1.0), 0.0, 0.1), 0.01,
                                         Method.EXPONENTIAL))
    text = path.read_text()
    path.write_text(text.replace(f"# {key}=false", f"# {key}={value}"))
    with pytest.raises(kio.ParseError) as info:
        kio.read_trajectory(path)
    assert str(info.value) == f"{path}: {key} metadata: expected true or false, got {value!r}"
    for flag in ("true", "false", None):  # a missing flag still reads as false
        lines = [line for line in text.splitlines() if not line.startswith(f"# {key}=")]
        path.write_text("\n".join(lines + [f"# {key}={flag}"] * (flag is not None)) + "\n")
        assert getattr(kio.read_trajectory(path), key) is (flag == "true")


def test_a_trajectory_at_an_epoch_timestamp_round_trips(tmp_path):
    # a 1 kHz grid at t0 = 1.7e9, where a time's last bit is 2.4e-7 s
    t = 1.7e9 + np.linspace(0.0, 1.0, 11)
    profile = RateProfile(t, np.column_stack([np.sin(t - t[0]), np.cos(t - t[0]),
                                              np.full_like(t, 0.5)]))
    traj = propagate(RotationMatrix.identity(), profile, 1e-3, Method.EXPONENTIAL)
    path = tmp_path / "traj.csv"
    kio.write_trajectory(path, traj)
    back = kio.read_trajectory(path)
    assert len(back) == 1001
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.matrices, traj.matrices)


def test_trajectory_rows_are_fmt_of_every_value(tmp_path):
    m = np.array([[-0.0, 5e-324, 1e300], [-1e300, -5e-324, 0.0], [1.0 / 3.0, -0.0, 1.0]])
    mats = np.array([m, -m])
    drift = DriftReport(per_sample=[(-0.0, 5e-324, -0.0), (1e-3, 1e300, 2.0 ** -1074)],
                        max_ortho_err=1e300, max_det_err=5e-324)
    traj = Trajectory(times=np.array([-0.0, 1e-3]), matrices=mats, method="x", dt=1e-3,
                      drift=drift)
    path = tmp_path / "traj.csv"
    kio.write_trajectory(path, traj)
    rows = [",".join(kio.fmt(x) for x in (t, *mat.reshape(9), ortho, det))
            for t, mat, (_, ortho, det) in zip(traj.times, mats, drift.per_sample)]
    header = path.read_text().splitlines()[:6]
    assert path.read_bytes() == ("\n".join(header + rows) + "\n").encode()
    tokens = [tok for line in path.read_text().splitlines()[6:] for tok in line.split(",")]
    assert "-0" not in tokens and tokens.count("0") == 8


@pytest.mark.parametrize("token", ["nan", "-inf", "1e500"])
def test_a_non_finite_rotation_entry_names_its_line(tmp_path, token):
    rows = ["0,1,0,0,0,1,0,0,0,1,0,0", "0.5,1,0,0,0,1,0,0,0,1,0,0",
            f"1,1,0,0,0,1,{token},0,0,1,0,0", "1.5,1,0,0,0,1,0,0,nan,1,0,0"]
    path = tmp_path / "traj.csv"
    path.write_text("# dt=0.5\n\n" + kio.TRAJECTORY_HEADER + "\n" + rows[0] + "\n# k=v\n"
                    + "\n".join(rows[1:]) + "\n")
    value = float(token)
    with pytest.raises(kio.ParseError) as exc:
        kio.read_trajectory(path)
    assert str(exc.value) == f"{path}:7: rotation entry r23 = {value} is not finite"


@pytest.mark.parametrize("token", ["nan", "-inf", "1e500"])
def test_a_non_finite_rate_names_its_line(tmp_path, token):
    path = tmp_path / "w.csv"
    path.write_text(f"t,wx,wy,wz\n0,0,0,1\n\n{token},1,0,1\n# k=v\n2,0,0,1\n")
    with pytest.raises(kio.ParseError) as exc:
        kio.read_rate_profile(path)
    assert str(exc.value) == f"{path}:4: t = {float(token)} is not finite"
    path.write_text(f"t,wx,wy,wz\n0,0,0,1\n# k=v\n1,{token},0,1\n2,0,0,{token}\n")
    with pytest.raises(kio.ParseError) as exc:
        kio.read_rate_profile(path)
    assert str(exc.value) == f"{path}:4: wx = {float(token)} is not finite"


@pytest.mark.parametrize("read, header, row, nan_col, name", [
    (kio.read_rate_profile, kio.PROFILE_HEADER, "{t},0,0,1", 1, "wx"),
    (kio.read_trajectory, kio.TRAJECTORY_HEADER, "{t},1,0,0,0,1,0,0,0,1,0,0", 5,
     "rotation entry r22"),
], ids=["profile", "trajectory"])
def test_a_non_finite_value_before_a_bad_token_is_reported_first(tmp_path, read, header, row,
                                                                    nan_col, name):
    body = [row.format(t=k).split(",") for k in range(7)]
    body[1][nan_col] = "nan"  # file line 4
    body[4][2] = "x"  # file line 7
    path = tmp_path / "f.csv"
    path.write_text("# dt=1\n" + header + "\n" + "\n".join(map(",".join, body)) + "\n")
    with pytest.raises(kio.ParseError) as exc:
        read(path)
    assert str(exc.value) == f"{path}:4: {name} = nan is not finite"


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


@pytest.mark.parametrize("read, text, lineno", [
    pytest.param(kio.read_rate_profile, b"t,wx,wy,wz\n0,0,0,1\n1,\xff0,0,1\n", 3, id="profile"),
    pytest.param(kio.read_trajectory, b"\x93NUMPY\x01\x00v\x00{'descr': '<f8'}", 1,
                 id="trajectory"),
    pytest.param(kio.read_matrix, b"# caf\xc3\xa9\r\n1,0,0\r0,1,0\x1c0,0,\xe91\n", 4,
                 id="matrix"),
])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, read, text, lineno):
    # lines as str.splitlines counts them, "\r\n", "\r" and "\x1c" included
    path = tmp_path / "in.csv"
    path.write_bytes(text)
    with pytest.raises(kio.ParseError, match="^" + re.escape(f"{path}:{lineno}: 'utf-8' codec")):
        read(path)


# A UTF-8 byte-order mark, as some editors write one, is no part of the first line.
@pytest.mark.parametrize("read", [kio.read_rate_profile, kio.read_trajectory, kio.read_matrix])
def test_a_leading_byte_order_mark_reads_as_no_text(tmp_path, profile, read):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    if read is kio.read_rate_profile:
        kio.write_rate_profile(plain, profile)
    elif read is kio.read_trajectory:
        kio.write_trajectory(plain, propagate(RotationMatrix.identity(), profile, 0.1,
                                              Method.EXPONENTIAL))
    else:
        plain.write_text("0,-1,0\n1,0,0\n0,0,1\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    fields = [{"rows": v} if isinstance(v, np.ndarray) else vars(v)
              for v in (read(plain), read(bom))]
    assert fields[0].keys() == fields[1].keys()
    assert all(np.array_equal(fields[0][k], fields[1][k]) for k in fields[0])


def test_a_utf8_file_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes("# caf\u00e9\n1,0,0\n0,1,0\n0,0,1\n".encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "import sys; from so3kin.io import read_matrix; print(read_matrix(sys.argv[1]).sum())"
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "3.0\n", "")


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(0)
    for x in rng.normal(size=100):
        assert float(kio.fmt(x)) == x
    assert float(kio.fmt(np.pi / 2000)) == np.pi / 2000


def _quiet_nans(values):
    # A signalling NaN makes "+ 0.0" warn in both writers; %.17g writes every NaN as "nan".
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values)


def _by_rows(values, cols=12):
    """values, their negatives and a NaN padding as a table of cols columns."""
    values = np.concatenate([values, -values])
    return np.append(values, [np.nan] * (-len(values) % cols)).reshape(-1, cols)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(1, 1), (1, 3), (3, 3), (None, 4), (None, 12)]))
def test_format_matrix_matches_percent_format(data, shape):
    rows = shape[0] or data.draw(st.integers(1, 8))
    values = data.draw(st.lists(st.floats(), min_size=rows * shape[1], max_size=rows * shape[1]))
    table = _quiet_nans(values).reshape(rows, shape[1])
    assert kio.format_matrix(table) == percent_format_matrix(table)


def test_format_matrix_matches_percent_format_at_the_edges():
    powers = np.array([float(f"1e{e}") for e in range(-324, 309)])
    near = [powers]
    for direction in (np.inf, 0.0):
        step = powers
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    ties = [k / 2.0 ** m for k in (1, 3, 5, 7, 123456789, 2 ** 52 + 1, 2 ** 53 - 1)
            for m in range(80)]
    ties += [1 + 2.0 ** -m for m in range(1, 53)] + [2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75]
    special = [1e-5, 1e-4, 1e16, 1e17, float("9" * 17), float("0." + "9" * 17),
               2.2250738585072014e-308, 1.7976931348623157e308, 5e-324, 0.0, np.inf, np.nan]
    values = np.concatenate(near + [ties, special, np.arange(-1000.0, 1001.0)])
    for table in (_by_rows(values), _by_rows(values, 1), _by_rows(values, 3)):
        assert kio.format_matrix(table) == percent_format_matrix(table)
    assert kio.format_matrix([[1 + 2.0 ** -17, 2.0 ** 50 + 0.25]]) == \
        "1.0000076293945312,1125899906842624.2"  # exact ties round half to even


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_a_wrong_guess_of_the_exponent_takes_the_fallback(monkeypatch, shift):
    # A log10 off by one in either direction (another libm) must cost speed, not digits.
    rng = np.random.default_rng(3)
    table = np.concatenate([10.0 ** rng.uniform(-30, 30, 600), [1.0, 10.0, 1e16, 1e17]])
    expected = percent_format_matrix(_by_rows(table))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert kio.format_matrix(_by_rows(table)) == expected


def test_format_matrix_matches_percent_format_on_random_bit_patterns():
    bits = np.random.default_rng(9).integers(0, 2 ** 64, size=200_004, dtype=np.uint64)
    table = _quiet_nans(bits.view(np.float64)).reshape(-1, 12)
    assert kio.format_matrix(table) == percent_format_matrix(table)


def test_a_propagated_trajectory_is_formatted_in_bulk(tmp_path, monkeypatch):
    """Only numbers of magnitude 1 or more may take the % fallback, so a
    benchmark of the writer on such a table measures the bulk path."""
    t = np.linspace(0.0, 0.5, 51)
    profile = RateProfile(t, np.column_stack([np.sin(t), np.cos(2 * t), np.full_like(t, 0.5)]))
    traj = propagate(RotationMatrix.identity(), profile, 1e-3, Method.EXPONENTIAL)
    fallback, format_cells = [], numtext._format_cells

    def spy(x):
        cells, certified = format_cells(x)
        fallback.extend(x[~certified])
        return cells, certified

    monkeypatch.setattr(numtext, "_format_cells", spy)
    kio.write_trajectory(tmp_path / "traj.csv", traj)
    assert len(traj) == 501
    assert all(abs(v) >= 1.0 for v in fallback)


def test_zeros_of_either_sign_are_written_in_bulk():
    x = np.array([0.0, -0.0, 1.5, -0.0, 0.0, -2.0, 0.0])
    cells, certified = numtext._format_cells(x)
    assert certified.all()
    assert kio.format_matrix(x.reshape(1, -1)) == "0,0,1.5,0,0,-2,0"


def _block_table(rows, cols, seed=0):
    """rows x cols of values of every magnitude the writer meets, zeros and
    negatives included."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-20, 20, size=(rows, cols))
    table[rng.random(size=table.shape) < 0.05] = 0.0
    return table


@pytest.mark.parametrize("cols", [1, 3, 4, 12])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_tables_at_the_block_boundaries_match_percent_format(cols, blocks, offset):
    rows = blocks * (numtext._BLOCK_CELLS // cols) + offset
    table = _block_table(rows, cols, seed=rows)
    assert kio.format_matrix(table) == percent_format_matrix(table)


@pytest.mark.parametrize("cols", [1, 3, 4, 12])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_zeros_at_the_block_boundaries_match_percent_format(cols, blocks, offset):
    """-0 and 0 on either side of every block boundary, -0 at both ends."""
    rows = blocks * (numtext._BLOCK_CELLS // cols) + offset
    table = _block_table(rows, cols, seed=rows)
    block = cols * (numtext._BLOCK_CELLS // cols)
    for edge in range(block, table.size, block):
        table.flat[edge - 1:edge + 1] = -0.0, 0.0
    table.flat[[0, -1]] = -0.0
    assert kio.format_matrix(table) == percent_format_matrix(table)


def test_interleaved_tables_match_percent_format():
    # Each block takes the one pooled scratch buffer and puts it back before
    # it is handed out, so two tables made block by block in turn stay apart.
    rows = 2 * (numtext._BLOCK_CELLS // 12) + 1
    tables = [_block_table(rows, 12, seed=1), _block_table(3 * rows, 4, seed=2)]
    texts = [[], []]
    gens = [numtext.format_table(t) for t in tables]
    for pair in itertools.zip_longest(*gens):
        for text, block in zip(texts, pair):
            if block is not None:
                text.append(block)
    assert [len(t) for t in texts] == [3, 3]
    for text, table in zip(texts, tables):
        assert "".join(text) == percent_format_matrix(table)


def test_a_row_wider_than_a_block_and_the_tables_after_it_match_percent_format():
    for table in (_block_table(2, numtext._BLOCK_CELLS + 5, seed=3), _block_table(40, 3, seed=4),
                  _block_table(numtext._BLOCK_CELLS // 12 + 1, 12, seed=5)):
        assert kio.format_matrix(table) == percent_format_matrix(table)


def test_tables_formatted_on_many_threads_match_percent_format():
    # More threads than cores, switching often: a block whose scratch buffer
    # another thread could take before its bytes are copied would mix tables.
    tables = [_block_table(700, 12, seed=s) for s in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            texts = list(pool.map(kio.format_matrix, tables, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert texts == [percent_format_matrix(t) for t in tables]


def test_a_trajectory_file_is_written_in_two_blocks(tmp_path, monkeypatch):
    t = np.linspace(0.0, 0.5, 51)
    profile = RateProfile(t, np.column_stack([np.sin(t), np.cos(2 * t), np.full_like(t, 0.5)]))
    traj = propagate(RotationMatrix.identity(), profile, 1e-3, Method.EXPONENTIAL)
    blocks, format_table = [], numtext.format_table

    def spy(table):
        for block in format_table(table):
            blocks.append(block)
            yield block

    monkeypatch.setattr(numtext, "format_table", spy)
    path = tmp_path / "traj.csv"
    kio.write_trajectory(path, traj)
    assert len(blocks) == 2
    assert path.read_text().endswith("".join(blocks) + "\n")


def carried_drift(steps, dt, max_ortho_err, max_det_err):
    """A trajectory at rest whose drift report carries the given maxima."""
    times = dt * np.arange(steps + 1)
    drift = DriftReport(per_sample=np.zeros((steps + 1, 3)), max_ortho_err=max_ortho_err,
                        max_det_err=max_det_err)
    return Trajectory(times, np.broadcast_to(np.eye(3), (steps + 1, 3, 3)), method="exp",
                      dt=dt, drift=drift)


def test_report_text_and_json_carry_same_values():
    import json

    report = kio.report_dict(carried_drift(100, 1e-3, 1e-15, 2e-15))
    text = kio.format_report_text(report)
    fields = dict(line.split("=", 1) for line in text.splitlines())
    assert float(fields["max_ortho_err"]) == 1e-15
    assert fields["max_residual"] == "n/a"
    parsed = json.loads(kio.report_json([report]))
    assert parsed["max_ortho_err"] == 1e-15
    assert parsed["max_residual"] is None
    assert kio.report_json([report]) == json.dumps(report, indent=2)


@pytest.mark.parametrize("value, token", [(np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan")])
def test_a_non_finite_report_value_is_the_string_the_text_report_prints(value, token):
    check = ResidualReport(max_residual=1.0, per_sample=np.zeros((2, 2)), step_sizes=[0.5],
                           estimated_order=value)
    report = kio.report_dict(carried_drift(3, 0.5, value, 1.0), check)
    text = dict(line.split("=", 1) for line in kio.format_report_text(report).splitlines())
    parsed = strict_json_loads(kio.report_json([report, report]))
    assert parsed[0]["max_ortho_err"] == parsed[1]["estimated_order"] == token == \
        text["max_ortho_err"]
    assert parsed[0]["max_det_err"] == 1.0


# The body is parsed in one np.loadtxt call; these pin the places where its
# grammar and float()'s could part.


@pytest.mark.parametrize("row, token", [
    ("0,0,0,1#c", "1#c"),  # a '#' inside a line is no comment
    ("0,0,0,nan(1)", "nan(1)"),
    ("0,0,nan(123),1", "nan(123)"),
    ("0,0,,1", ""),
    ("0,0,1 2,1", "1 2"),
    ("0,0,0x10,1", "0x10"),
    ("0,0,1\x1f,1", "1\x1f"),  # str.isspace('\x1f'), but float() does not strip it
    ("0,\x1f1,0,1", "\x1f1"),
])
def test_tokens_float_rejects_are_bad_tokens_naming_their_line(tmp_path, row, token):
    path = tmp_path / "w.csv"
    path.write_text(f"t,wx,wy,wz\n{row}\n1,0,0,1\n")
    with pytest.raises(kio.ParseError) as exc:
        kio.read_rate_profile(path)
    assert str(exc.value) == f"{path}:2: could not convert string to float: {token!r}"


@pytest.mark.parametrize("token, value", [
    ("1_0", 10.0), ("\N{ARABIC-INDIC DIGIT THREE}", 3.0), (" 2\t", 2.0),
    ("\N{IDEOGRAPHIC SPACE}2", 2.0), ("1e500", np.inf),
])
def test_tokens_float_accepts_keep_their_float_value(tmp_path, token, value):
    path = tmp_path / "m.csv"
    path.write_text(f"1,0,0\n0,{token},0\n0,0,1\n")
    assert np.array_equal(kio.read_matrix(path), [[1, 0, 0], [0, value, 0], [0, 0, 1]])


def test_nan_keeps_its_sign_bit(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("-nan,nan,-0\n0,1,0\n0,0,1\n")
    m = kio.read_matrix(path)
    assert np.isnan(m[0, :2]).all()
    assert list(np.signbit(m[0])) == [True, False, True]
    assert m[0].tobytes() == np.array([float("-nan"), float("nan"), -0.0]).tobytes()


def test_first_bad_line_in_file_order_is_reported(tmp_path):
    body = ["0,0,0,1", "1,0,0,1", "2,0,0,1", "3,0,x,1", "4,0,0,1", "5,0,0,1", "6,0,0,1", "7,0,0"]
    path = tmp_path / "w.csv"
    path.write_text("t,wx,wy,wz\n" + "\n".join(body) + "\n")  # bad token on line 5, 3 columns on 9
    with pytest.raises(kio.ParseError, match="^" + re.escape(f"{path}:5: could not convert")):
        kio.read_rate_profile(path)
    body[3] = "3,0,0,1"
    body[1] = "1,0,0,1,1"  # now the column count on line 3 comes first
    path.write_text("t,wx,wy,wz\n" + "\n".join(body) + "\n")
    with pytest.raises(kio.ParseError, match="^" + re.escape(f"{path}:3: expected 4 columns, got 5")):
        kio.read_rate_profile(path)


@pytest.mark.parametrize("read, text, error", [
    (kio.read_rate_profile, "t,wx,wy,wz\n0,0,0,1,0\n1,0,0,1,0\n", "2: expected 4 columns, got 5"),
    (kio.read_matrix, "# m\n1,0\n0,1\n0,0\n", "2: expected 3 columns, got 2"),
], ids=["profile", "matrix"])
def test_same_wrong_column_count_on_every_row_is_reported(tmp_path, read, text, error):
    # loadtxt reads such a body without complaint, to another shape
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(kio.ParseError) as exc:
        read(path)
    assert str(exc.value) == f"{path}:{error}"


def test_a_valid_body_is_parsed_in_one_loadtxt_call(tmp_path, monkeypatch, profile):
    path = tmp_path / "w.csv"
    kio.write_rate_profile(path, profile)
    calls = []
    loadtxt = np.loadtxt

    def spy(lines, **kwargs):
        calls.append(len(lines))
        return loadtxt(lines, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    monkeypatch.setattr(kio, "float", lambda _: pytest.fail("float() on a valid body"),
                        raising=False)
    back = kio.read_rate_profile(path)
    assert calls == [len(profile.times)]
    assert np.array_equal(back.omegas, profile.omegas)


# Equivalence with the per-line float() reader it replaces (oracles.line_loop_rows).

_SPECIAL = ["0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072009e-308",
            "1e-310", "inf", "-inf", "Infinity", "-Infinity", "nan", "-nan", "NaN", "+nan",
            "1e500", "-1e-400", ".5", "5.", "+1"]
_ODD = ["1_0", "\N{ARABIC-INDIC DIGIT THREE}", "nan(1)", "1#c", "", "1 2", "0x10", "1\x1f",
        "1\N{IDEOGRAPHIC SPACE}", "abc"]
_finite = st.floats(allow_nan=False, allow_infinity=False)
_number = st.one_of(
    _finite.map(lambda x: "%.17g" % x),
    _finite.map(repr),
    _finite.map(lambda x: "%.3g" % x),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(_SPECIAL),
)
_token = st.tuples(st.sampled_from(["", " ", "\t", "  "]), _number,
                   st.sampled_from(["", " ", "\t "])).map("".join)
_odd = st.sampled_from(_ODD)
_comment = st.one_of(
    st.sampled_from(["# note", "#", "  # indented", "", "   "]),
    st.tuples(st.sampled_from(["method", "dt", "dt", "truncated_span", "degrees_input", "k"]),
              st.one_of(_token, _token, _odd, st.sampled_from(["exp", "true", "false"])))
    .map(lambda kv: f"# {kv[0]}={kv[1]}"),
)


@st.composite
def _csv_text(draw, n_cols, header, time_column):
    """A file of n_cols-token rows mixed with blank and comment lines, behind
    the header if there is one.  Some rows carry a token from _ODD or a column
    too many or too few.  With time_column, column 0 is the row index, so
    that the readers that need increasing or uniform times get them."""
    lines = draw(st.lists(_comment, max_size=2))
    if header is not None:
        lines.append(draw(st.sampled_from([header, " " + header.replace(",", ", ")])))
    for k in range(draw(st.sampled_from([1, 2, 3, 3, 5]))):
        lines += draw(st.lists(_comment, max_size=1))
        width = n_cols + draw(st.sampled_from([0] * 15 + [-1, 1]))
        row = draw(st.lists(_token, min_size=width, max_size=width))
        if time_column:
            row[0] = draw(st.sampled_from(["%d", "%.17g", " %d.0 "])) % k
        if draw(st.sampled_from([False] * 7 + [True])):
            row[draw(st.integers(0, width - 1))] = draw(_odd)
        lines.append(",".join(row))
    lines += draw(st.lists(_comment, max_size=2))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def _outcome(read, path):
    """A comparable record of what read(path) returned, bit for bit, or the
    ParseError message it raised."""
    try:
        got = read(path)
    except kio.ParseError as exc:
        return "ParseError", str(exc)
    if isinstance(got, tuple):  # _read_rows' (metadata, rows)
        return tuple(map(_bits, got))
    if isinstance(got, np.ndarray):  # read_matrix
        return _bits(got)
    return {name: _bits(value) for name, value in vars(got).items()}


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bodies") / "f.csv"


@pytest.mark.parametrize("n_cols, header, finite", [
    (4, kio.PROFILE_HEADER, slice(0, 4)), (12, kio.TRAJECTORY_HEADER, slice(1, 10)),
    (3, None, slice(0)),
], ids=["profile", "trajectory", "matrix"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_read_rows_matches_the_line_loop(csv_path, n_cols, header, finite, data):
    csv_path.write_text(data.draw(_csv_text(n_cols, header, time_column=False)))
    expected = _outcome(lambda p: line_loop_rows(p, n_cols, header, finite), csv_path)
    assert _outcome(lambda p: kio._read_rows(p, n_cols, header, finite), csv_path) == expected


@pytest.mark.parametrize("reader, n_cols, header", [
    (kio.read_rate_profile, 4, kio.PROFILE_HEADER),
    (kio.read_trajectory, 12, kio.TRAJECTORY_HEADER),
    (kio.read_matrix, 3, None),
], ids=["profile", "trajectory", "matrix"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_public_readers_match_the_line_loop(csv_path, reader, n_cols, header, data):
    csv_path.write_text(data.draw(_csv_text(n_cols, header, time_column=header is not None)))
    with mock.patch.object(kio, "_read_rows", line_loop_rows):
        expected = _outcome(reader, csv_path)
    assert _outcome(reader, csv_path) == expected
