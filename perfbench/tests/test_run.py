"""run.py prints exactly the metrics BENCHMARK.json declares, and its gate
catches a wrong answer."""
import contextlib
import io
import json

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_the_spec(trace, key, capsys):
    result = bench("verify_imu", trace, capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[key]}


def test_gate_rejects_a_trajectory_that_is_off_the_closed_form(tmp_path):
    inputs = run.generate(4, tmp_path)
    command = run.propagate_command(("exp",), "linear")

    def tampered(argv):
        rc, out, err = run.run_cli(argv)
        path = inputs.path("out.csv")
        lines = open(path).read().splitlines()
        row = lines[-1].split(",")
        row[1] = run.cone.fmt(float(row[1]) + 1e-3)
        open(path, "w").write("\n".join(lines[:-1] + [",".join(row)]) + "\n")
        return rc, out, err

    assert command(inputs)[0] == []
    problems, _ = command(inputs, run=tampered)
    assert any("final error" in p for p in problems)
    assert any("left SO(3)" in p for p in problems)


def test_missing_source_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with contextlib.redirect_stderr(io.StringIO()):
        assert run.main(["--workload", "cone_exp", "--seed", "1", "--seconds", "1",
                         "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
