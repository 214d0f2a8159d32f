#!/usr/bin/env python3
"""Write BENCH_<pr>.json: the four perfbench workloads over fixed seeds.

    python3 scripts/bench_file.py --pr 6 [--parent DIR]

Runs ``perfbench/run.py --workload W --seed S --seconds 15 --trace 0`` for
every workload and seeds 11-15 from the repository root. With ``--parent``
(the root of another checkout, such as the parent commit) each run is paired
with the same run there, the two alternating which goes first. The file
holds each tree's ``git rev-parse HEAD`` (suffixed ``-dirty`` when tracked
files were edited since; null outside a git checkout) and, per tree and
workload, the median and quartiles of each end-to-end metric, how many runs
were correct, the failed operations, and the machine line of the first run.
Under ``per_layer`` it keeps the same summary of the generation latencies
and the record bytes written that the report line of each run prints;
claims stay on the end-to-end metrics.
With ``--parent``, ``pairs`` holds, per workload and end-to-end metric, how
many seed pairs the change won, lost and tied, by the metric's direction
(``end_to_end[].better`` in BENCHMARK.json), how many it skipped because
either run has no result, and ``median_ratio``, the median over the seed
pairs of change / parent (null when no pair has both values, or a parent
value is 0); a claim can be checked against a pair rule from the file
alone.

With ``--parent``, ``paired`` holds per workload the ratio change / parent of
one unit's time, timed in one process. A child process (one BLAS thread)
loads each tree's ``src/spintune`` under its own package name, so the
package's relative imports resolve within each copy. A unit is the
workload's own ``prepare`` and ``run`` from ``perfbench/workloads.py``,
with the configs ``configs(11, 1)`` gives (one unit of each workload, two
readout repeats) and the package name ``spintune`` pointed at one copy for
the call: so it writes, resumes and analyzes what perfbench does, and only
``run`` is timed. The child runs every unit on both copies once, checking
each output with the workload's ``check``, then PAIRS pairs per unit,
swapping which copy goes first in every pair and collecting garbage before
each call, and records the median and quartiles of the ratios and the
pairs the change won. A pair is timed within two seconds or so, so the
machine's drift between runs, which separate processes see in full, mostly
cancels (Kalibera & Jones, ISMM 2013); it does not cancel a noisy spell
shorter than a pair.

Caveats: both trees run under one numpy, one orjson and one allocator, so
the section cannot see a change to those; module-level caches are per copy,
hence the warm-up; a tree that changes the package's imports or its
dependencies cannot be paired this way; and the workloads are this
checkout's. perfbench alone measures ``peak_rss_mb``, ``setup_s`` and
end-to-end wall time; the paired section adds a figure and replaces none.

    python3 scripts/bench_file.py --pair CHANGE PARENT

prints only the paired section of two checkouts, as JSON. Standard library
only; the child imports the trees and perfbench, which need numpy and scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the workloads and end-to-end metrics BENCHMARK.json declares, in its order
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
METRICS = tuple(metric["name"] for metric in BENCHMARK["end_to_end"])
SEEDS = (11, 12, 13, 14, 15)
SECONDS = 15
PER_LAYER = ("gen_ms_p50", "gen_ms_p90", "harness.record_bytes")
PAIRS = 30
PAIRED_SEED, PAIRED_SECONDS = SEEDS[0], 1


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run: its machine line, its report and its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    machine = next((line["machine"] for line in lines if "machine" in line), None)
    report = next((line["report"] for line in lines if "report" in line), {})
    result = lines[-1] if lines and "correct" in lines[-1] else None
    if proc.returncode != 0 or result is None:
        print(f"{tree} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
    return {"machine": machine, "report": report, "result": result}


def head_commit(tree: Path) -> str | None:
    """The commit checked out at ``tree``, suffixed ``-dirty`` when tracked files differ
    from it, or None outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                              check=False)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(runs: list[dict]) -> dict:
    done = [r for r in runs if r["result"] is not None]
    results = [r["result"] for r in done]
    out = {"runs": len(runs), "correct": sum(bool(r["correct"]) for r in results),
           "failed": sum(r["failed"] for r in results), "metrics": {}, "per_layer": {}}
    for key, names, source in (("metrics", METRICS, [r["metrics"] for r in results]),
                               ("per_layer", PER_LAYER, [r["report"] for r in done])):
        for name in names:
            values = [block[name]["value"] for block in source if name in block]
            if len(values) >= 2:
                out[key][name] = quartiles(values)
    return out


def pair_counts(change: list[dict], parent: list[dict], better: dict) -> dict:
    """Per metric, the seed pairs the change won, lost and tied, those it skipped,
    and the median over the pairs of change / parent.

    ``better`` maps each metric to the direction that wins, "lower" or "higher".
    """
    out = {}
    for name, direction in better.items():
        counts = dict.fromkeys(("won", "lost", "tied", "skipped"), 0)
        both = []
        for pair in zip(change, parent):
            new, old = (r["result"]["metrics"].get(name, {}).get("value") if r["result"]
                        else None for r in pair)
            if new is None or old is None:
                counts["skipped"] += 1
                continue
            both.append((new, old))
            if new == old:
                counts["tied"] += 1
            else:
                counts["won" if (new < old) == (direction == "lower") else "lost"] += 1
        counts["median_ratio"] = (statistics.median(new / old for new, old in both)
                                  if both and all(old != 0 for _, old in both) else None)
        out[name] = counts
    return out


def load_tree(name: str, root: Path) -> types.ModuleType:
    """The package ``root/src/spintune`` imported as ``name``, every module loaded."""
    package = root / "src" / "spintune"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for path in sorted(package.glob("[!_]*.py")):
        importlib.import_module(f"{name}.{path.stem}")
    return module


@contextlib.contextmanager
def as_spintune(pkg: types.ModuleType):
    """Make ``from spintune import m`` give ``pkg``'s module m within the block."""
    saved = sys.modules.get("spintune")
    sys.modules["spintune"] = pkg
    try:
        yield
    finally:
        if saved is None:
            del sys.modules["spintune"]
        else:
            sys.modules["spintune"] = saved


class _Untraced:
    """The tracer a workload's ``run`` takes, recording nothing."""

    unit = ""

    @staticmethod
    def phase(name: str):
        return contextlib.nullcontext()


def workload_units(seed: int = PAIRED_SEED, seconds: int = PAIRED_SECONDS) -> dict:
    """Per workload BENCHMARK.json declares, its perfbench unit: ``unit(pkg, workdir)``
    prepares ``workdir`` and returns the timed call and the check of its outputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))

    def unit_of(workload):
        cfg = workload.configs(seed, seconds)

        def unit(pkg, workdir: Path):
            with as_spintune(pkg):
                workload.prepare(cfg, workdir)

            def run():
                with as_spintune(pkg):
                    return workload.run(cfg, workdir, _Untraced())

            def check(outputs) -> list[str]:
                with as_spintune(pkg):
                    return workload.check(cfg, outputs).failures
            return run, check
        return unit

    return {name: unit_of(workloads.WORKLOADS[name]) for name in WORKLOADS}


def paired_ratios(units: dict, change, parent, pairs: int = PAIRS,
                  clock=time.perf_counter) -> dict:
    """Per unit, the quartiles of change / parent time over ``pairs`` pairs, the first
    of each pair swapping in turn, and the pairs the change won. Both copies are run
    and checked first; a failed check raises."""
    with tempfile.TemporaryDirectory() as scratch:
        def timed(name, pkg, checked=False) -> float:
            workdir = Path(tempfile.mkdtemp(dir=scratch))
            run, check = units[name](pkg, workdir)
            gc.collect()
            start = clock()
            outputs = run()
            elapsed = clock() - start
            failures = check(outputs) if checked else []
            shutil.rmtree(workdir)
            if failures:
                raise RuntimeError(f"{name} on {getattr(pkg, '__name__', pkg)}: {failures}")
            return elapsed

        for name in units:
            for pkg in (change, parent):
                timed(name, pkg, checked=True)
        out = {}
        for name in units:
            ratios = []
            for i in range(pairs):
                if i % 2 == 0:
                    new, old = timed(name, change), timed(name, parent)
                else:
                    old, new = timed(name, parent), timed(name, change)
                ratios.append(new / old)
            out[name] = {**quartiles(ratios), "wins": sum(r < 1.0 for r in ratios),
                         "pairs": pairs}
    return out


def paired(change: Path, parent: Path) -> dict | None:
    """The paired section of two checkouts, from a child process."""
    proc = subprocess.run([sys.executable, __file__, "--pair", str(change), str(parent)],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        print(f"paired section exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, help="number in the file name")
    parser.add_argument("--parent", type=Path, default=None,
                        help="root of a checkout to pair every run with")
    parser.add_argument("--pair", type=Path, nargs=2, metavar=("CHANGE", "PARENT"),
                        help="print only the paired section of two checkouts")
    args = parser.parse_args(argv)
    if args.pair is not None:
        # one BLAS thread, as perfbench runs, set before the trees import numpy
        os.environ.update(dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
        trees = [load_tree(f"spintune_{label}", root.resolve())
                 for label, root in zip(("change", "parent"), args.pair)]
        with contextlib.redirect_stdout(sys.stderr):
            out = paired_ratios(workload_units(), *trees)
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0
    if args.pr is None:
        parser.error("--pr is required")
    trees = {"change": ROOT}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
    runs: dict = {label: {w: [] for w in WORKLOADS} for label in trees}
    k = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            order = list(trees) if k % 2 == 0 else list(trees)[::-1]
            for label in order:
                runs[label][workload].append(run_once(trees[label], workload, seed))
                print(label, workload, seed, runs[label][workload][-1]["result"] is not None,
                      file=sys.stderr)
            k += 1
    first = runs["change"][WORKLOADS[0]][0]
    payload = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                   "--trace 0",
        "seeds": list(SEEDS),
        "machine": first["machine"],
        "commits": {label: head_commit(tree) for label, tree in trees.items()},
        "trees": {label: {w: summarize(r) for w, r in by_workload.items()}
                  for label, by_workload in runs.items()},
    }
    if "parent" in runs:
        better = {metric["name"]: metric["better"] for metric in BENCHMARK["end_to_end"]}
        payload["pairs"] = {w: pair_counts(runs["change"][w], runs["parent"][w], better)
                            for w in WORKLOADS}
        payload["paired"] = paired(ROOT, trees["parent"])
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
