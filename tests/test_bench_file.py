import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_file", Path(__file__).resolve().parent.parent / "scripts" / "bench_file.py")
bench_file = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_file)


def run(value):
    return {"result": None if value is None else {"metrics": {"wall_s": {"value": value}}}}


def test_pair_counts_give_the_median_ratio_of_the_pairs_with_both_runs():
    change = [run(1.0), run(3.0), run(2.0), run(None)]
    parent = [run(2.0), run(2.0), run(2.0), run(1.0)]
    counts = bench_file.pair_counts(change, parent, {"wall_s": "lower"})["wall_s"]
    assert counts == {"won": 1, "lost": 1, "tied": 1, "skipped": 1, "median_ratio": 1.0}
    counts = bench_file.pair_counts(change[:2], parent[:2], {"wall_s": "higher"})["wall_s"]
    assert counts == {"won": 1, "lost": 1, "tied": 0, "skipped": 0, "median_ratio": 1.0}


@pytest.mark.parametrize("change, parent", [([run(None)], [run(1.0)]), ([run(1.0)], [run(0.0)])])
def test_pair_counts_have_no_median_ratio_without_a_usable_pair(change, parent):
    assert bench_file.pair_counts(change, parent, {"wall_s": "lower"})["wall_s"]["median_ratio"] is None


def test_workloads_and_metrics_are_the_names_benchmark_json_declares():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert bench_file.WORKLOADS == tuple(w["name"] for w in declared["workloads"])
    assert bench_file.METRICS == tuple(m["name"] for m in declared["end_to_end"])
