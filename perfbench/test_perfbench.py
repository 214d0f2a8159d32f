"""Self-tests of the benchmark: exact counts repeat, seeds change configs.

    python3 -m pytest perfbench -q

The count test runs every workload twice at its smallest size, traced,
so it takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, Checks, best_so_far_recorded

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXACT_COUNTS = ("dqd.ramp_steps", "dqd.init_fidelity_calls", "rb.primitives_applied",
                "rb.sequences_calls", "harness.record_bytes",
                "cmaes.generations_to_target", "backends.evals")


def _bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat_for_one_seed(workload):
    counts = []
    for _ in range(2):
        proc = _bench(ROOT, workload, 11, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stderr
        counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_generated_configs(workload):
    configs = WORKLOADS[workload].configs
    assert configs(1, 15) == configs(1, 15)
    assert configs(1, 15) != configs(2, 15)


def _record(*generations):
    gens = []
    best = (float("inf"), [])
    for costs, recorded in generations:
        cands = [{"cost": c, "x": [c], "meta": {}} for c in costs]
        best = min([best] + [(c["cost"], c["x"]) for c in cands], key=lambda b: b[0])
        gens.append(SimpleNamespace(candidates=cands, best_cost=best[0],
                                    best_params=recorded or best[1]))
    return SimpleNamespace(generations=gens)


def test_best_so_far_check_recomputes_from_candidates():
    assert best_so_far_recorded(_record(([0.5, 0.2], None), ([0.3, 0.1], None)))
    assert not best_so_far_recorded(_record(([0.5, 0.2], None), ([0.3, 0.1], [0.3])))


def test_missed_target_counts_but_keeps_the_run_correct():
    checks = Checks()
    checks.add(True, "output")
    checks.target(False, "target")
    assert (checks.attempted, checks.failed, checks.missed) == (2, 0, 1)
    checks.add(False, "output")
    assert checks.failed == 1 and checks.failures == ["output"]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_renamed_layer_fails_instead_of_reading_zero():
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer("bench.unit", run.calibrate_ms, 0.5)
    with pytest.raises(AttributeError):
        tracer.install([("cmaes", "no_such_function", "cmaes.missing")])
    tracer.uninstall()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "gate_loop", 1, trace=0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
