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
alone. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the workloads and end-to-end metrics BENCHMARK.json declares, in its order
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
METRICS = tuple(metric["name"] for metric in BENCHMARK["end_to_end"])
SEEDS = (11, 12, 13, 14, 15)
SECONDS = 15
PER_LAYER = ("gen_ms_p50", "gen_ms_p90", "harness.record_bytes")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--parent", type=Path, default=None,
                        help="root of a checkout to pair every run with")
    args = parser.parse_args(argv)
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
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
