import json
import subprocess
import sys

import pytest

from spintune import harness
from spintune.cli import main


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
    for artifact in (harness.RECORD_NAME, "trace.csv", "covariance.json",
                     "best_params.json"):
        assert (out / artifact).exists()


def test_run_seed_override_matches_config_seed(tmp_path, run_config, capsys):
    main(["run", "--config", run_config, "--seed", "11", "--out", str(tmp_path / "a")])
    override = json.loads(capsys.readouterr().out)
    explicit = write_json(tmp_path / "run11.json", {
        "task": "benchmark", "generations": 3, "population": 4, "seed": 11,
    })
    main(["run", "--config", explicit, "--out", str(tmp_path / "b")])
    direct = json.loads(capsys.readouterr().out)
    assert override == direct
    a = (tmp_path / "a" / harness.RECORD_NAME).read_bytes()
    b = (tmp_path / "b" / harness.RECORD_NAME).read_bytes()
    assert a == b


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
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 3
    assert rows[0].startswith("ramp_time\\eps_final")
    assert len(rows[1].split(",")) == 1 + 4


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


def test_unknown_task_exits_2(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "task": "espresso", "generations": 2, "population": 3,
    })
    assert main(["run", "--config", cfg]) == 2


@pytest.mark.parametrize("payload", [
    {"task": "benchmark", "generations": "three", "population": 4},
    {"task": "benchmark", "generations": 2, "population": 4, "seed": -1},
    {"task": "benchmark", "generations": 2, "population": 4.7},
    {"task": "benchmark", "generations": 2, "population": 4, "shots": None},
    {"task": "benchmark", "generations": 1e400, "population": 4},
    ["task", "benchmark"],
])
def test_wrongly_typed_config_exits_2(tmp_path, capsys, payload):
    cfg = write_json(tmp_path / "cfg.json", payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_without_axes_exits_2(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"base": {}})
    assert main(["sweep", "--config", cfg]) == 2


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
