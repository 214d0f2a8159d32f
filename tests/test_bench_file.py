import importlib.util
import json
import sys
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


def test_paired_ratios_check_both_copies_then_swap_which_goes_first():
    now, calls, workdirs, checked = [0.0], [], [], []
    change_s = iter([1.0, 0.5, 1.0, 1.5, 3.0])  # warm-up, then one per pair

    def unit(pkg, workdir):
        assert workdir.is_dir() and not any(workdir.iterdir())
        (workdir / "out").write_text("x")
        workdirs.append(workdir)

        def run():
            calls.append(pkg)
            now[0] += next(change_s) if pkg == "change" else 2.0
            return pkg

        return run, lambda outputs: checked.append(outputs) or []

    out = bench_file.paired_ratios({"tiny": unit}, "change", "parent", pairs=4,
                                   clock=lambda: now[0])
    assert calls == ["change", "parent"] + ["change", "parent", "parent", "change"] * 2
    assert checked == ["change", "parent"]
    assert not any(path.exists() for path in workdirs)
    stats = out["tiny"]
    assert stats["values"] == [0.25, 0.5, 0.75, 1.5]
    assert stats["pairs"] == 4 and stats["wins"] == 3
    assert (stats["q1"], stats["median"], stats["q3"]) == pytest.approx((0.4375, 0.625, 0.9375))


def test_paired_ratios_stop_at_a_failed_check():
    def unit(pkg, workdir):
        return (lambda: pkg), (lambda outputs: ["wrong"] if outputs == "parent" else [])

    with pytest.raises(RuntimeError, match="tiny on parent"):
        bench_file.paired_ratios({"tiny": unit}, "change", "parent", pairs=4)


def test_each_tree_loads_as_its_own_package_and_runs_every_workload():
    spintune = sys.modules.get("spintune")
    root = Path(__file__).resolve().parent.parent
    try:
        a, b = (bench_file.load_tree(name, root) for name in ("spintune_pair_a", "spintune_pair_b"))
        # relative imports resolve within each copy, and module caches are per copy
        assert a.harness.backends is sys.modules["spintune_pair_a.backends"]
        assert a.cli.harness is a.harness and a.rb is not b.rb
        assert a.rb._group_tables is not b.rb._group_tables
        assert a.rb.clifford_table().tobytes() == b.rb.clifford_table().tobytes()
        with bench_file.as_spintune(a):
            from spintune import cli
        assert cli is a.cli
        # each unit is its perfbench workload, its outputs checked on both copies
        out = bench_file.paired_ratios(bench_file.workload_units(), a, b, pairs=2)
    finally:
        for name in [n for n in sys.modules if n.startswith("spintune_pair_")]:
            del sys.modules[name]
    assert sys.modules.get("spintune") is spintune
    assert tuple(out) == bench_file.WORKLOADS
    assert all(stats["pairs"] == 2 and 0 <= stats["wins"] <= 2 for stats in out.values())
