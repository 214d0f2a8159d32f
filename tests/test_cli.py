import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintune import backends, dqd, harness
from spintune.cli import _build_parser, main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def run_config(tmp_path):
    return write_json(tmp_path / "run.json", {
        "task": "benchmark", "generations": 3, "population": 4, "seed": 5,
    })


def test_run_prints_summary_and_writes_exports(tmp_path, run_config, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", run_config, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "best_cost" in summary
    assert set(summary["best_params"]) == {f"x{i}" for i in range(5)}
    assert (summary["generations"], summary["stop"]) == (3, None)  # its cap ended it
    for artifact in (harness.RECORD_NAME, "trace.csv", "covariance.json",
                     "best_params.json"):
        assert (out / artifact).exists()


def test_run_resume_completes_a_truncated_record(tmp_path, run_config, capsys):
    out = tmp_path / "full"
    main(["run", "--config", run_config, "--out", str(out)])
    capsys.readouterr()
    full = (out / harness.RECORD_NAME).read_bytes()

    part = tmp_path / "part"
    part.mkdir()
    lines = full.decode().splitlines(keepends=True)
    (part / harness.RECORD_NAME).write_text("".join(lines[:2]))
    assert main(["run", "--config", run_config, "--out", str(part), "--resume"]) == 0
    assert (part / harness.RECORD_NAME).read_bytes() == full


def test_run_resume_of_a_stopped_run_rewrites_no_byte(tmp_path, capsys):
    config = {"task": "shuttle", "generations": 200, "population": 50, "seed": 7}
    out = tmp_path / "out"
    assert main(["run", "--config", write_json(tmp_path / "run.json", config),
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["generations"], summary["stop"]) == (94, "TolFun")
    stored = {path.name: path.read_bytes() for path in out.iterdir()}
    for generations in (200, 94, 300):
        resume = write_json(tmp_path / "resume.json", {**config, "generations": generations})
        assert main(["run", "--config", resume, "--out", str(out), "--resume"]) == 0
        assert json.loads(capsys.readouterr().out) == summary
        assert {path.name: path.read_bytes() for path in out.iterdir()} == stored
    resume = write_json(tmp_path / "resume.json", {**config, "generations": 93})
    assert main(["run", "--config", resume, "--out", str(out), "--resume"]) == 2
    assert "94 generations are stored but 93 requested" in capsys.readouterr().err


def test_run_resume_without_an_output_directory_exits_2(tmp_path, run_config, capsys,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", run_config, "--resume"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resume needs an output directory" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_readme_usage_lines_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    commands = ("run", "batch", "sweep", "analyze")
    usage = [line for line in readme.splitlines()
             if line.startswith(tuple(f"tune {command} " for command in commands))]
    assert sorted(line.split()[1] for line in usage) == sorted(commands)
    for line in usage:  # an optional argument is shown in brackets
        _build_parser().parse_args(line.replace("[", "").replace("]", "").split()[1:])


def test_readme_library_examples_run(tmp_path, monkeypatch):
    # the python blocks under "Library use", in turn in one namespace, as a reader runs them
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Library use\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["record"].generations) == 40
    assert np.sum(namespace["state"].mean ** 2) < 1e-12
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("change", [{"seed": 6}, {"population": 5}, {"generations": 2}])
def test_run_resume_refuses_a_changed_run(tmp_path, run_config, capsys, change):
    out = tmp_path / "out"
    main(["run", "--config", run_config, "--out", str(out)])
    stored = (out / harness.RECORD_NAME).read_bytes()
    changed = write_json(tmp_path / "changed.json", {
        "task": "benchmark", "generations": 3, "population": 4, "seed": 5, **change,
    })
    assert main(["run", "--config", changed, "--out", str(out), "--resume"]) == 2
    assert "cannot resume" in capsys.readouterr().err
    assert (out / harness.RECORD_NAME).read_bytes() == stored


def test_a_generation_where_every_candidate_fails_exits_4(tmp_path, run_config, capsys,
                                                          monkeypatch):
    main(["run", "--config", run_config, "--out", str(tmp_path / "full")])
    full = (tmp_path / "full" / harness.RECORD_NAME).read_bytes()
    out = tmp_path / "out"
    first = write_json(tmp_path / "one.json", {**json.loads(Path(run_config).read_text()),
                                               "generations": 1})
    assert main(["run", "--config", first, "--out", str(out)]) == 0
    capsys.readouterr()

    def always_raising(config):
        def evaluate(X, shot_seeds):
            raise RuntimeError(f"backend down at seed {shot_seeds[0]}")
        return evaluate

    monkeypatch.setattr(harness, "_make_evaluator", always_raising)
    assert main(["run", "--config", run_config, "--out", str(out), "--resume"]) == 4
    err = capsys.readouterr().err
    assert "evaluation error: every candidate of generation 1 failed" in err
    assert "backend down at seed" in err
    assert len(harness.load_record(out).generations) == 1
    assert len((out / harness.TIMINGS_NAME).read_text().splitlines()) == 1

    monkeypatch.undo()
    assert main(["run", "--config", run_config, "--out", str(out), "--resume"]) == 0
    assert (out / harness.RECORD_NAME).read_bytes() == full


def test_batch_prints_band_and_writes_aggregate(tmp_path, capsys):
    cfg = write_json(tmp_path / "batch.json", {
        "task": "readout", "generations": 3, "population": 4,
        "seed": 6, "shots": 100,
    })
    out = tmp_path / "batch_out"
    assert main(["batch", "--config", cfg, "--repeats", "3", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["repeats"] == 3
    assert len(summary["best_costs"]) == 3
    assert summary["band_width"] >= 0
    assert (out / harness.AGGREGATE_NAME).exists()
    assert (out / "run_000" / harness.RECORD_NAME).exists()


def test_sweep_writes_the_grid_csv(tmp_path, capsys):
    cfg = write_json(tmp_path / "sweep.json", {
        "base": {"eps_initial": -30.0, "tunnel_coupling": 10.0, "zeeman_diff": 0.3},
        "axis1": {"name": "ramp_time", "start": 0.1, "stop": 1.0, "num": 3,
                  "spacing": "geom"},
        "axis2": {"name": "eps_final", "start": 10.0, "stop": 40.0, "num": 4},
        "n_steps": 200,
    })
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["shape"] == [3, 4]
    assert 0.0 <= summary["mean_fidelity"] <= 1.0
    raw = out.read_bytes()
    assert b"\r" not in raw  # lines end in \n, as in every CSV spintune writes
    rows = [row.split(",") for row in raw.decode().splitlines()]
    assert len(rows) == 1 + 3
    assert rows[0][0] == "ramp_time\\eps_final"
    assert all(len(row) == 1 + 4 for row in rows)
    # every number reads back as the value computed, bit for bit
    axis1 = ("ramp_time", np.geomspace(0.1, 1.0, 3))
    axis2 = ("eps_final", np.linspace(10.0, 40.0, 4))
    base = dqd.DqdConfig(eps_initial=-30.0, tunnel_coupling=10.0, zeeman_diff=0.3)
    grid = dqd.sweep_fidelity_grid(base, axis1, axis2, n_steps=200)
    assert [float(v) for v in rows[0][1:]] == axis2[1].tolist()
    assert [float(row[0]) for row in rows[1:]] == axis1[1].tolist()
    assert [[float(v) for v in row[1:]] for row in rows[1:]] == grid.tolist()


def test_analyze_writes_sensitivity_and_covariance_files(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "task": "readout", "generations": 5, "population": 12,
        "seed": 4, "shots": 200,
    })
    record_dir = tmp_path / "rec"
    main(["run", "--config", cfg, "--out", str(record_dir)])
    capsys.readouterr()

    assert main(["analyze", "--record", str(record_dir), "--hdmr",
                 "--cov-pairs", "0,1", "--cov-pairs", "2,2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["wrote"] == ["hdmr.json", "hdmr.csv", "cov_0_1.csv", "cov_2_2.csv"]

    hdmr = json.loads((record_dir / "hdmr.json").read_text())
    assert set(hdmr) == {"first_order", "residual", "normalized"}
    assert len(hdmr["first_order"]) == 14
    csv_lines = (record_dir / "hdmr.csv").read_text().splitlines()
    assert csv_lines[0] == "name,contribution"
    assert len(csv_lines) == 1 + 14

    cov_lines = (record_dir / "cov_0_1.csv").read_text().splitlines()
    assert cov_lines[0] == "generation,value"
    assert len(cov_lines) == 1 + 5 + 1
    first = cov_lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


def test_analyze_can_redirect_output(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "task": "benchmark", "generations": 2, "population": 3, "seed": 1,
    })
    record_dir = tmp_path / "rec"
    main(["run", "--config", cfg, "--out", str(record_dir)])
    capsys.readouterr()
    elsewhere = tmp_path / "reports"
    assert main(["analyze", "--record", str(record_dir),
                 "--cov-pairs", "0,0", "--out", str(elsewhere)]) == 0
    assert (elsewhere / "cov_0_0.csv").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["sweep", "--config", str(bad)]) == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"generations": ' + b"1" * 5000 + b"}"])
def test_undecodable_config_exits_2(tmp_path, capsys, command, content):
    # bytes that are not UTF-8, and an integer literal longer than Python parses
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main([command, "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_task_exits_2(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "task": "espresso", "generations": 2, "population": 3,
    })
    assert main(["run", "--config", cfg]) == 2


READOUT_FIXTURE = harness.json_plain(backends.make_readout_landscape(0))
SHUTTLE_FIXTURE = harness.json_plain(backends.make_shuttle_landscape(2))


def readout_run(fixture_changes=(), **changes):
    """A one-generation readout run on an inline fixture, with keys changed."""
    return {"task": "readout", "generations": 1, "population": 2,
            "backend_fixture": {**READOUT_FIXTURE, **dict(fixture_changes)}, **changes}


@pytest.mark.parametrize("payload", [
    {"task": "benchmark", "generations": "three", "population": 4},
    {"task": "benchmark", "generations": 2, "population": 4, "seed": -1},
    {"task": "benchmark", "generations": 2, "population": 4.7},
    {"task": "benchmark", "generations": 2, "population": 4, "shots": None},
    {"task": "benchmark", "generations": 1e400, "population": 4},
    ["task", "benchmark"],
    {"task": "benchmark", "generations": 2, "population": 3, "output_dir": 5},
    {"task": "benchmark", "generations": 2, "population": 3, "backend_fixture": 7},
    readout_run({"seed": -1}),
    readout_run({"seed": 3.7}),
    readout_run({"shot_noise": "false"}),
    readout_run({"floor": "0.1"}),
    readout_run({"optimum": 5}),
    readout_run({"optimum": ["0.5"] * 14}),
    readout_run({"optimum": [True] + [0.5] * 13}),
    readout_run({"coupling": [[float("nan")] * 14] * 14}),
    readout_run({"optimum": [0.5], "coupling": [[1.0]]}),
    readout_run(shots=10**30),
    readout_run(output_dir="a\u0000b"),
    {"task": "benchmark", "generations": 2, "population": 3, "shot": 5},
    readout_run({"shots": 5}),
    {"task": "single_qubit", "generations": 1, "population": 2, "backend_fixture": READOUT_FIXTURE},
    # a planted optimum the run cannot reach: B1_init outside the cube, or a floor that
    # turns the device upside down
    readout_run({"optimum": [*READOUT_FIXTURE["optimum"][:5], -1.0,
                             *READOUT_FIXTURE["optimum"][6:]]}),
    readout_run({"floor": 0.97}),
    {"task": "shuttle", "generations": 1, "population": 2,
     "backend_fixture": {**SHUTTLE_FIXTURE, "floor": 0.5}},
    {"task": "shuttle", "generations": 1, "population": 2,
     "backend_fixture": {**SHUTTLE_FIXTURE, "optimum": [1.5] * 8}},
    # a quadratic above 1 on the cube, so p passes SHUTTLE_P_WORST and the echo cost is NaN
    {"task": "shuttle", "generations": 1, "population": 2,
     "backend_fixture": {**SHUTTLE_FIXTURE, "optimum": [0.5] * 8,
                         "coupling": (100 * np.eye(8)).tolist()}},
])
def test_wrongly_typed_config_exits_2(tmp_path, capsys, payload):
    cfg = write_json(tmp_path / "cfg.json", payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_population_the_shot_seed_key_cannot_index_exits_2_and_is_named(tmp_path, capsys):
    # each row's key holds its row in 32 bits; no such population is ever allocated
    cfg = write_json(tmp_path / "cfg.json",
                     {"task": "benchmark", "generations": 1, "population": 2**62})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"population must be <= {2**32}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, payload, error", [
    ("run", {"task": "benchmark", "generations": 2, "population": 3, "shot": 5,
             "outputdir": "x"}, "config has unknown keys ['outputdir', 'shot']"),
    ("run", readout_run({"shots": 5}), "landscape fixture has unknown keys ['shots']"),
    ("run", readout_run(backend_fixture="a file"), "landscape fixture has unknown keys ['shots']"),
    ("sweep", {"axis1": {"name": "ramp_time", "values": [1.0]},
               "axis2": {"name": "eps_final", "values": [20.0]},
               "nsteps": 20, "noize": {"sigma_eps": 1.0}},
     "sweep config has unknown keys ['noize', 'nsteps']"),
    ("sweep", {"axis1": {"name": "ramp_time", "values": [1.0]},
               "axis2": {"name": "eps_final", "values": [20.0]}, "out": "grid.csv"},
     "sweep config has unknown keys ['out']"),
])
def test_an_unknown_key_exits_2_and_is_named(tmp_path, capsys, command, payload, error):
    if payload.get("backend_fixture") == "a file":
        payload["backend_fixture"] = write_json(tmp_path / "device.json",
                                                {**READOUT_FIXTURE, "shots": 5})
    cfg = write_json(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["run"], ["batch", "--repeats", "2"]])
@pytest.mark.parametrize("task", ["single_qubit", "benchmark"])
def test_a_task_without_a_landscape_exits_2_on_a_fixture(tmp_path, capsys, command, task):
    cfg = write_json(tmp_path / "cfg.json", {"task": task, "generations": 1, "population": 2,
                                             "backend_fixture": READOUT_FIXTURE})
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"the {task} task has no landscape" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["run"], ["batch", "--repeats", "2"]])
@pytest.mark.parametrize("out", [[], ["--out", "elsewhere"]])
def test_a_config_with_an_output_dir_exits_2_and_names_out(tmp_path, capsys, monkeypatch,
                                                          command, out):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "run.json", {"task": "benchmark", "generations": 2, "population": 4,
                                       "output_dir": "viaconfig"})
    assert main([*command, "--config", "run.json", *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "output_dir" in captured.err and "--out" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_resume_after_the_fixture_file_changed_exits_2(tmp_path, capsys):
    fixture = tmp_path / "device.json"
    fixture.write_text(json.dumps(harness.json_plain(backends.make_shuttle_landscape(1))))
    run = {"task": "shuttle", "generations": 3, "population": 4, "backend_fixture": str(fixture)}
    out = tmp_path / "out"
    assert main(["run", "--config", write_json(tmp_path / "run.json", run),
                 "--out", str(out)]) == 0
    stored = (out / harness.RECORD_NAME).read_bytes()
    fixture.write_text(json.dumps(harness.json_plain(backends.make_shuttle_landscape(99))))
    longer = write_json(tmp_path / "longer.json", {**run, "generations": 5})
    assert main(["run", "--config", longer, "--out", str(out), "--resume"]) == 2
    assert "differs in backend_fixture" in capsys.readouterr().err
    assert (out / harness.RECORD_NAME).read_bytes() == stored


def test_sweep_without_axes_exits_2(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"base": {}})
    assert main(["sweep", "--config", cfg]) == 2


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"base": [1], "axis1": {"name": "ramp_time", "values": [1.0]},
     "axis2": {"name": "eps_final", "values": [20.0]}},
    {"axis1": "ramp_time", "axis2": {"name": "eps_final", "values": [20.0]}},
    {"axis1": {"name": "ramp_time", "values": [1.0]}, "axis2": None},
    {"axis1": {"name": "ramp_time", "values": [1.0]},
     "axis2": {"name": "eps_final", "values": [20.0]}, "noise": []},
    {"axis1": {"name": "ramp_time", "values": [1.0]},
     "axis2": {"name": "eps_final", "values": [20.0]}, "noise": 0},
])
def test_sweep_config_that_is_not_an_object_exits_2(tmp_path, capsys, payload):
    cfg = write_json(tmp_path / "sweep.json", payload)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "grid.csv")]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("base", "eps_initial", None),
    ("base", "eps_initial", "5"),
    ("base", "ramp_time", True),
    ("base", "zeeman_diff", float("nan")),
    ("noise", "sigma_eps", "1"),
    ("noise", "n_samples", 2.5),
    ("noise", "seed", -1),
    ("noise", "seed", False),
    # an integer too large for a float
    pytest.param("base", "eps_initial", 10**400, id="base-eps_initial-400-digits"),
])
def test_sweep_with_wrongly_typed_model_field_exits_2(tmp_path, capsys, section, key, value):
    cfg = write_json(tmp_path / "sweep.json", {
        "axis1": {"name": "ramp_time", "values": [1.0]},
        "axis2": {"name": "eps_final", "values": [20.0]},
        "n_steps": 20, section: {key: value},
    })
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "grid.csv")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


# Raw JSON text, so that NaN and an out-of-range 1e400 reach the parser as written.
@pytest.mark.parametrize("axis, field", [
    ('{"name": "eps_final", "values": [NaN]}', "eps_final"),
    ('{"name": "eps_initial", "start": 1e400, "stop": 2.0, "num": 3}', "eps_initial"),
    ('{"name": "tunnel_coupling", "values": [-1.0]}', "tunnel_coupling"),
    ('{"name": "eps_final", "values": [[1.0, 2.0]]}', "eps_final"),
    ('{"name": "ramp_time", "values": [1.0, 0.0]}', "ramp_time"),
    ('{"name": "eps_final", "values": ["x"]}', "axis2 (eps_final)"),
    ('{"name": "eps_final", "values": [1.0, [2.0, 3.0]]}', "axis2 (eps_final)"),
    ('{"name": "eps_initial", "start": 1e400, "stop": 2.0, "num": 3}',
     "axis2 (eps_initial): start and stop must hold only finite real numbers"),
    ('{"name": "eps_final", "start": 20, "stop": 40, "num": 2.7}',
     "axis2 (eps_final): num must be an integer >= 1, got 2.7"),
    ('{"name": "eps_final", "start": 20, "stop": 40, "num": true}',
     "axis2 (eps_final): num must be an integer >= 1, got True"),
    ('{"name": "eps_final", "start": 20, "stop": 40, "num": 0}',
     "axis2 (eps_final): num must be an integer >= 1, got 0"),
    ('{"name": "eps_final", "start": 20, "stop": 40, "num": 3, "spacing": "log"}',
     "axis2 (eps_final): spacing must be 'linear' or 'geom', got 'log'"),
    ('{"name": "eps_final", "values": []}', "eps_final values must be a non-empty"),
    ('{"name": "ramp_time", "values": [0.1, true]}',
     "axis2 (ramp_time): values must hold only finite real numbers"),
    ('{"name": "ramp_time", "values": ["30"]}',
     "axis2 (ramp_time): values must hold only finite real numbers"),
    ('{"name": "ramp_time", "values": 0.3}', "ramp_time values must be a non-empty 1-D list"),
    ('{"name": "ramp_time", "values": 0.3}',
     "bad sweep axis axis2 (ramp_time): ramp_time values must be a non-empty 1-D list, got shape ()"),
    ('{"name": "eps_final", "start": true, "stop": 40, "num": 2}',
     "axis2 (eps_final): start and stop must hold only finite real numbers"),
    ('{"name": "eps_final", "start": 20, "stop": "40", "num": 2}',
     "axis2 (eps_final): start and stop must hold only finite real numbers"),
    ('{"name": "eps_final", "start": 20, "stop": 40, "num": 3, "spaceing": "geom"}',
     "sweep config axis2 has unknown keys ['spaceing']"),
    ('{"name": "ramp_time", "start": -1.0, "stop": 1.0, "num": 3}',
     "bad sweep axis axis2 (ramp_time): ramp_time must be positive, got -1.0"),
    ('{"name": "ramp_tme", "values": [1.0]}', "bad sweep axis axis2 (ramp_tme): unknown sweep axis"),
])
def test_sweep_with_a_bad_axis_value_exits_2(tmp_path, capsys, axis, field):
    cfg = tmp_path / "sweep.json"
    cfg.write_text('{"axis1": {"name": "zeeman_diff", "values": [0.3]}, "axis2": %s, '
                   '"n_steps": 20}' % axis)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "grid.csv")]) == 2
    assert field in capsys.readouterr().err
    assert not caught
    assert not (tmp_path / "grid.csv").exists()


def test_sweep_into_a_missing_directory_exits_3_before_computing(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the grid was computed")

    monkeypatch.setattr(dqd, "sweep_fidelity_grid", never)
    cfg = write_json(tmp_path / "sweep.json", {
        "axis1": {"name": "ramp_time", "values": [1.0, 2.0]},
        "axis2": {"name": "eps_final", "values": [20.0]}, "n_steps": 20})
    out = tmp_path / "missing" / "grid.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "i/o error:" in capsys.readouterr().err
    assert not out.parent.exists()



def test_sweep_into_an_existing_directory_exits_3_before_computing(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the grid was computed")

    monkeypatch.setattr(dqd, "sweep_fidelity_grid", never)
    cfg = write_json(tmp_path / "sweep.json", {
        "axis1": {"name": "ramp_time", "values": [1.0, 2.0]},
        "axis2": {"name": "eps_final", "values": [20.0]}, "n_steps": 20})
    out = tmp_path / "grid.csv"
    out.mkdir()
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "i/o error:" in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())

def test_sweep_whose_noise_overflows_the_detuning_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "sweep.json", {
        "axis1": {"name": "ramp_time", "values": [0.1, 0.2]},
        "axis2": {"name": "eps_final", "values": [10.0]},
        "noise": {"sigma_eps": 1e308, "n_samples": 3}, "n_steps": 20})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "grid.csv")]) == 2
    captured = capsys.readouterr()
    assert "overflows its phase rate" in captured.err
    assert captured.out == ""
    assert not caught
    assert not (tmp_path / "grid.csv").exists()


# Two cells whose ramps are finite but huge: (base, noise, axis1, exit code).
HUGE_RAMPS = {
    "ramp time 1e308": ({"ramp_time": 1e308}, None, "eps_final", 2),
    "final detuning 1e200": ({"eps_final": 1e200}, None, "ramp_time", 0),
    "tunnel coupling 1e200": ({"tunnel_coupling": 1e200}, None, "eps_final", 0),
    "noise of 1e150": ({}, {"sigma_eps": 1e150, "n_samples": 3}, "eps_final", 0),
}


@pytest.mark.parametrize("case", list(HUGE_RAMPS))
def test_sweep_of_huge_ramps_warns_nothing_and_writes_no_nan(tmp_path, capsys, case):
    # a phase 2*pi*E*t_f that overflows is refused; overflows inside the
    # closed-form eigensystem fall back to eigh and give finite cells
    base, noise, name, code = HUGE_RAMPS[case]
    sweep = {"base": base, "axis1": {"name": name, "values": [10.0, 20.0]},
             "axis2": {"name": "eps_initial", "values": [-10.0]}, "n_steps": 20}
    if noise is not None:
        sweep["noise"] = noise
    cfg = write_json(tmp_path / "sweep.json", sweep)
    out = tmp_path / "grid.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert not caught
    if code == 2:
        assert "overflows its phase rate" in captured.err
        assert captured.out == ""
        assert not out.exists()
    else:
        assert math.isfinite(json.loads(captured.out)["mean_fidelity"])
        cells = [float(cell) for row in out.read_text().splitlines()[1:]
                 for cell in row.split(",")[1:]]
        assert len(cells) == 2 and all(0.0 <= cell <= 1.0 + 1e-9 for cell in cells)


@pytest.mark.parametrize("key", ["axis1", "axis2"])
def test_sweep_refuses_a_base_field_that_an_axis_sweeps(tmp_path, capsys, key):
    axes = {"axis1": {"name": "ramp_time", "values": [1.0]},
            "axis2": {"name": "eps_initial", "values": [-10.0]}}
    axes[key] = {"name": "eps_final", "values": [10.0, 20.0]}
    cfg = write_json(tmp_path / "sweep.json", {"base": {"eps_final": 1e200}, **axes,
                                               "n_steps": 20})
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "eps_final" in captured.err and key in captured.err
    assert captured.out == ""
    assert not out.exists()


# Arbitrary JSON with small numbers, so a valid sweep stays a few cells, mixed
# with near-valid parts so that some configs run a sweep.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-3.0, 3.0) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)
AXIS_NAMES = st.sampled_from([f.name for f in fields(dqd.DqdConfig)])
SMALL_FLOATS = st.floats(0.01, 3.0)
SWEEP_AXES = st.fixed_dictionaries(
    {"name": AXIS_NAMES | JSON_VALUES,
     "values": st.lists(SMALL_FLOATS, min_size=1, max_size=3) | JSON_VALUES},
) | st.fixed_dictionaries(
    {"name": AXIS_NAMES | JSON_VALUES, "start": SMALL_FLOATS | JSON_VALUES,
     "stop": SMALL_FLOATS | JSON_VALUES, "num": st.integers(1, 3) | JSON_VALUES},
    optional={"spacing": st.just("geom") | JSON_VALUES}) | JSON_VALUES
SWEEP_CONFIGS = st.fixed_dictionaries(
    {"axis1": SWEEP_AXES, "axis2": SWEEP_AXES},
    optional={"base": st.dictionaries(AXIS_NAMES, SMALL_FLOATS | JSON_VALUES, max_size=2)
              | JSON_VALUES}) | JSON_VALUES


@settings(max_examples=150)
@given(payload=SWEEP_CONFIGS)
def test_sweep_never_crashes_on_arbitrary_json(payload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_json(Path(tmp) / "sweep.json", payload)
        assert main(["sweep", "--config", cfg, "--out", str(Path(tmp) / "grid.csv")]) in (0, 2, 3)


# Arbitrary JSON of any size, in place of up to three keys of a valid readout
# run or of its inline fixture. A huge valid generations or population would
# exhaust memory, so those two are drawn as small integers or non-integers.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)
VALID_RUN = {"task": "readout", "generations": 2, "population": 3, "seed": 1, "shots": 100,
             "backend_fixture": READOUT_FIXTURE}
RUN_KEYS = [("fixture", key) for key in READOUT_FIXTURE] + [("run", key) for key in VALID_RUN]
DELETE = object()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_run_never_crashes_on_arbitrary_json(data):
    payload = json.loads(json.dumps(VALID_RUN))
    fixture = payload["backend_fixture"]
    for section, key in data.draw(st.sets(st.sampled_from(RUN_KEYS), max_size=3), label="keys"):
        small = key in ("generations", "population") and section == "run"
        value = data.draw((JSON_VALUES if small else ANY_JSON) | st.just(DELETE), label=key)
        target = payload if section == "run" else fixture
        if value is DELETE:
            target.pop(key)
        else:
            target[key] = value
    if data.draw(st.integers(0, 3), label="replace the whole config if 3") == 3:
        payload = data.draw(ANY_JSON, label="config")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_json(Path(tmp) / "run.json", payload)
        assert main(["run", "--config", cfg, "--out", str(Path(tmp) / "out")]) in (0, 2, 3, 4)


@pytest.mark.parametrize("n_steps", [0, -3, "abc", 1.5])
def test_sweep_with_bad_step_count_exits_2(tmp_path, capsys, n_steps):
    cfg = write_json(tmp_path / "sweep.json", {
        "axis1": {"name": "ramp_time", "values": [0.1, 0.5]},
        "axis2": {"name": "eps_final", "values": [20.0]},
        "n_steps": n_steps,
    })
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "grid.csv")]) == 2
    assert "n_steps" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


# Damage to one line of an 8-parameter record: (line, edit of its parsed JSON).
# json.dumps cannot write a number that overflows a float, so a damaged
# line holds a placeholder that is swapped for the raw text
OVERFLOWS = [(1.25e300, "1e400"), (-2.5e300, "-1e400")]
RECORD_DAMAGE = {
    "header without config": (0, lambda h: h.pop("config")),
    "space bound not a number": (0, lambda h: h["space"][0].update(low="a")),
    "space bound not finite": (0, lambda h: h["space"][1].update(high=float("inf"))),
    "space not a list": (0, lambda h: h.update(space=5)),
    "state without cov": (-1, lambda g: g["state"].pop("cov")),
    "state not an object": (-1, lambda g: g.update(state=[])),
    "state cov of 1 x 1": (-1, lambda g: g["state"].update(cov=[[1.0]])),
    "state cov not finite": (-1, lambda g: g["state"].update(cov=[[float("nan")] * 8] * 8)),
    "state cov of zeros": (-1, lambda g: g["state"].update(cov=[[0.0] * 8] * 8)),
    "state cov negative definite at generation 2": (3, lambda g: g["state"].update(
        cov=[[-float(i == j) for j in range(8)] for i in range(8)])),
    "state of dimension 1": (-1, lambda g: g["state"].update(
        mean=[0.5], cov=[[1.0]], p_sigma=[0.0], p_c=[0.0])),
    "state path of length 1": (-1, lambda g: g["state"].update(p_sigma=[0.0])),
    "state path of 2 rows": (-1, lambda g: g["state"].update(p_c=[[0.0] * 8] * 2)),
    "state generation not an integer": (-1, lambda g: g["state"].update(generation=1.5)),
    "state generation infinite": (-1, lambda g: g["state"].update(generation=float("inf"))),
    "state mean not finite": (-1, lambda g: g["state"]["mean"].__setitem__(0, float("nan"))),
    "state path not finite": (-1, lambda g: g["state"]["p_c"].__setitem__(3, float("inf"))),
    "state sigma true": (-1, lambda g: g["state"].update(sigma=True)),
    "state mean with false among floats": (-1, lambda g: g["state"]["mean"].__setitem__(0, False)),
    # a candidate's damage, on its row of the line's columns x, costs and meta
    "candidate without x": (-1, lambda g: g["x"].pop(0)),
    "candidate x of length 1": (-1, lambda g: g["x"].__setitem__(1, [0.5])),
    "candidate x not numbers": (-1, lambda g: g["x"].__setitem__(0, ["a"] * 8)),
    "candidate x with a null": (-1, lambda g: g["x"].__setitem__(0, [None] * 8)),
    "candidate x with true among floats": (-1, lambda g: g["x"][1].__setitem__(2, True)),
    "candidate cost NaN": (-1, lambda g: g["costs"].__setitem__(3, float("nan"))),
    "candidate cost 1e400": (-1, lambda g: g["costs"].__setitem__(3, OVERFLOWS[0][0])),
    "candidate cost -1e400": (-1, lambda g: g["costs"].__setitem__(2, OVERFLOWS[1][0])),
    "metadata p infinite": (-1, lambda g: g["meta"][0].update(p=float("inf"))),
    "candidate without meta": (-1, lambda g: g["meta"].pop(0)),
    "candidate meta not an object": (-1, lambda g: g["meta"].__setitem__(1, 5)),
    "candidate with an id": (-1, lambda g: g.update(id=list(range(8)))),
    "generation without x": (-1, lambda g: g.pop("x")),
    "generation without meta": (-1, lambda g: g.pop("meta")),
    "generation without costs": (-1, lambda g: g.pop("costs")),
    "costs one short": (-1, lambda g: g["costs"].pop()),
    "generation line with a leftover candidates key": (-1, lambda g: g.update(candidates=[])),
    # every column of one length, but not the config's population of 8
    "generation 1 of 3 rows": (2, lambda g: g.update(
        {key: g[key][:3] for key in ("x", "costs", "meta")})),
    "generation 1 of 9 rows": (2, lambda g: g.update(
        {key: g[key] + g[key][:1] for key in ("x", "costs", "meta")})),
    "generation line with a best_cost": (-1, lambda g: g.update(best_cost=0.5)),
    "header with an unknown key": (0, lambda h: h.update(created="today")),
    "space entry with an unknown key": (0, lambda h: h["space"][0].update(step=0.1)),
    "config with an unknown key": (0, lambda h: h["config"].update(shot=100)),
    "last state without generation": (-1, lambda g: g["state"].pop("generation")),
    "last state with generation 1": (-1, lambda g: g["state"].update(generation=1)),
    "state of generation 0 with generation true": (
        1, lambda g: g["state"].update(generation=True)),
    "line generation 3.0": (4, lambda g: g.update(generation=3.0)),
    "line generation true at 1": (2, lambda g: g.update(generation=True)),
    "header version 2.0": (0, lambda h: h.update(version=2.0)),
    "header version 3.0": (0, lambda h: h.update(version=3.0)),
    "header version 2": (0, lambda h: h.update(version=2)),
    "header version 4": (0, lambda h: h.update(version=4)),
    "header version 6": (0, lambda h: h.update(version=6)),
    "header fixture optimum one entry short": (0, lambda h: h["config"].update(
        backend_fixture={**SHUTTLE_FIXTURE, "optimum": SHUTTLE_FIXTURE["optimum"][:-1],
                         "coupling": [row[:-1] for row in SHUTTLE_FIXTURE["coupling"][:-1]]})),
    # never opened: loading names no missing file, it refuses the header
    "header fixture a path": (0, lambda h: h["config"].update(backend_fixture="absent.json")),
    "benchmark header with a fixture": (0, lambda h: h["config"].update(
        task="benchmark", backend_fixture=SHUTTLE_FIXTURE)),
    # a header that parses but is not the one its config writes
    "space bound moved": (0, lambda h: h["space"][0].update(low=0.0, high=1.0)),
    "space entry renamed": (0, lambda h: h["space"][0].update(name="vP0")),
    "space unit changed": (0, lambda h: h["space"][4].update(unit="V")),
    "space entries swapped": (0, lambda h: h["space"].insert(0, h["space"].pop(1))),
    "header config with output_dir": (0, lambda h: h["config"].update(output_dir="rec")),
}


@pytest.mark.parametrize("damage", list(RECORD_DAMAGE))
def test_a_damaged_record_exits_2_from_analyze_and_resume(tmp_path, capsys, damage):
    cfg = write_json(tmp_path / "run.json", {
        "task": "shuttle", "generations": 7, "population": 8, "seed": 2,
    })
    out = tmp_path / "rec"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["analyze", "--record", str(out), "--hdmr", "--cov-pairs", "0,1"]) == 0
    capsys.readouterr()
    path = out / harness.RECORD_NAME
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    index, edit = RECORD_DAMAGE[damage]
    edit(lines[index])
    text = "".join(json.dumps(line) + "\n" for line in lines)
    for placeholder, raw in OVERFLOWS:
        text = text.replace(json.dumps(placeholder), raw)
    path.write_text(text)
    damaged = path.read_bytes()
    with pytest.raises(harness.ConfigError, match="is malformed"):
        harness.load_record(out)
    for command in (["analyze", "--record", str(out), "--hdmr", "--cov-pairs", "0,1"],
                    ["run", "--config", cfg, "--out", str(out), "--resume"]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "is malformed" in err and "file not found" not in err
    assert path.read_bytes() == damaged


def test_a_record_of_another_version_exits_2_and_is_left_as_it_is(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "task": "benchmark", "generations": 3, "population": 4,
    })
    out = tmp_path / "rec"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    path = out / harness.RECORD_NAME
    header, *rest = path.read_text().splitlines(keepends=True)
    # the package version older records carried, version 2, whose noise was drawn differently,
    # version 4, whose floats Python's repr spelled, version 6, one object per candidate, and
    # version 7, whose ramp kernel rounded otherwise
    for version in ("0.1.0", 2, 4, 6, 7):
        path.write_text(json.dumps({**json.loads(header), "version": version}) + "\n"
                        + "".join(rest))
        old = path.read_bytes()
        capsys.readouterr()
        assert main(["analyze", "--record", str(out), "--cov-pairs", "0,1"]) == 2
        assert f"version {version!r}" in capsys.readouterr().err
        assert main(["run", "--config", cfg, "--out", str(out), "--resume"]) == 2
        assert f"version {version!r}" in capsys.readouterr().err
        assert path.read_bytes() == old


def test_analyze_missing_record_exits_2(tmp_path):
    assert main(["analyze", "--record", str(tmp_path / "void"), "--hdmr"]) == 2


def test_analyze_bad_cov_pair_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "task": "benchmark", "generations": 2, "population": 3,
    })
    record_dir = tmp_path / "rec"
    main(["run", "--config", cfg, "--out", str(record_dir)])
    capsys.readouterr()
    assert main(["analyze", "--record", str(record_dir), "--cov-pairs", "zero,one"]) == 2
    assert main(["analyze", "--record", str(record_dir), "--cov-pairs", "0,99"]) == 2


def test_analyze_too_few_samples_for_hdmr_exits_2(tmp_path, run_config, capsys):
    main(["run", "--config", run_config, "--out", str(tmp_path / "rec")])
    capsys.readouterr()
    assert main(["analyze", "--record", str(tmp_path / "rec"), "--hdmr"]) == 2
    assert "need at least 50 samples" in capsys.readouterr().err


def test_output_path_under_a_file_exits_3(tmp_path, run_config, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied")
    rc = main(["run", "--config", run_config, "--out", str(blocker / "sub")])
    assert rc == 3
    assert "i/o error:" in capsys.readouterr().err


def test_console_entry_point_is_installed(tmp_path, run_config):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "spintune.cli", "run",
         "--config", run_config, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["best_cost"] is not None
    assert (out / harness.RECORD_NAME).exists()
