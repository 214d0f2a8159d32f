#!/usr/bin/env python3
"""Closed-loop campaign benchmark for spintune.

    python3 perfbench/run.py --workload readout_batch --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.
Prints a machine line and a report line (every metric by name, unit and
sample count), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of one untraced pass. With ``--trace 1``
the same configs run once more with a span on every layer, the metrics
are the per-layer ones, and the spans are written to ``perfbench/out/``.
See README.md for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is one client in one process, and a
# second BLAS thread would only contend with it on a small box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import functools
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracing import LAYERS, PROBE_LAYERS, Tracer, layer_metrics
from workloads import EXPECTED_SPANS, WORKLOADS, generation_of_target

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 5

# Calibration-loop time of a quiet 2-core x86 box; wall_s is expressed
# in seconds of a box that runs the loop this fast.
CALIBRATION_REF_MS = 4.0
# Longest stretch of a loop between two calibration readings.
CALIBRATE_EVERY_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dqd.init_fidelity_s": "s",
    "dqd.init_fidelity_calls": "count",
    "dqd.grid_s": "s",
    "dqd.ramp_steps": "count",
    "dqd.ramp_steps_per_s": "1/s",
    "dqd.bytes_computed": "B",
    "rb.evaluate_s": "s",
    "rb.sequences_s": "s",
    "rb.sequences_calls": "count",
    "rb.primitives_applied": "count",
    "rb.decay_curve_s": "s",
    "analysis.fit_s": "s",
    "cmaes.ask_s": "s",
    "cmaes.tell_s": "s",
    "cmaes.generations_to_target": "count",
    "backends.evaluate_s": "s",
    "backends.self_s": "s",
    "backends.evals": "count",
    "backends.eval_failures": "count",
    "harness.self_s": "s",
    "harness.record_bytes": "B",
    "harness.load_s": "s",
    "harness.export_s": "s",
    "harness.resume_s": "s",
    "analysis.hdmr_s": "s",
    "cli.analyze_s": "s",
    "cli.sweep_s": "s",
    "cli.self_s": "s",
    "gen_ms_p50": "ms",
    "gen_ms_p90": "ms",
    "time_to_target_s": "s",
    "report_s": "s",
    "trajectories_per_s": "1/s",
    "fail_frac": "ratio",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


@functools.lru_cache(maxsize=1)
def _stream_buffer():
    return np.ones(1 << 21)  # 16 MB, several times the last-level cache


def calibrate_ms(reps: int = 3) -> float:
    """Mean time of a fixed loop that tracks machine speed.

    Interpreter work, small numpy calls and a memory stream, the three
    kinds of work the workloads mix.
    """
    buf = _stream_buffer()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i % 7
        a = np.full((32, 32), 1.0 / 32)
        for _ in range(200):
            a = a @ a
        np.multiply(buf, 1.0, out=buf)
        buf.sum()
        times.append(time.perf_counter() - start)
    return statistics.mean(times) * 1e3


def machine_info() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Fresh interpreter until ready: imports, fixtures and lazy caches.

    Returns the raw seconds of each start and the calibration readings
    around them (one more reading than starts).
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    times, readings = [], [calibrate_ms()]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        readings.append(calibrate_ms())
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return times, readings


def run_pass(workload, cfg: dict, workdir: Path, layers):
    """One timed phase over the whole config; returns tracer and outputs."""
    workdir.mkdir(parents=True)
    workload.prepare(cfg, workdir)
    tracer = Tracer(workload.unit_span, calibrate_ms, CALIBRATE_EVERY_S)
    tracer.install(layers)
    try:
        outputs = workload.run(cfg, workdir, tracer)
    finally:
        tracer.uninstall()
    return tracer, outputs


def campaign_figures(workload, cfg: dict, tracer, outputs: dict) -> dict:
    """End-to-end figures of one pass, from its probe spans and outputs.

    ``wall_s`` sums the stretches between consecutive calibration
    readings, each scaled by (CALIBRATION_REF_MS / the mean of the two
    readings around it) to the workload's calibration exponent: seconds
    on a box that runs the calibration loop in CALIBRATION_REF_MS.
    ``wall_raw_s`` is the same sum unscaled. All other times are raw and
    exclude the readings.
    """
    spans, clock = tracer.spans, tracer.clock
    readings = sorted(tracer.readings.items())
    stretches = [(spans[b][1] - spans[a][2], (va + vb) / 2)
                 for (a, va), (b, vb) in zip(readings, readings[1:])]
    alpha = workload.calibration_exponent
    wall = sum(raw * (CALIBRATION_REF_MS / cal) ** alpha for raw, cal in stretches)

    asks: dict[int, list[float]] = {}
    for name, start, _, parent, _ in spans:
        if name == "cmaes.ask":
            asks.setdefault(parent, []).append(clock(start))
    records = outputs.get("records", [])
    gen_s, to_target, gens_to_target = [], [], []
    for k, i in enumerate(tracer.named("harness.run", parent="bench.loop")):
        bounds = asks.get(i, []) + [clock(spans[i][2])]
        gen_s += list(np.diff(bounds))
        record = records[k] if k < len(records) else None
        if workload.hit is not None and record is not None:
            g = generation_of_target(record, workload.hit)
            if g is not None:
                to_target.append(bounds[g + 1] - clock(spans[i][1]))
                gens_to_target.append(g + 1)
    reports = [tracer.duration(i) for i in tracer.named("bench.report")]
    evals = workload.evaluations(cfg, outputs)
    trajectories = evals if workload.name in ("readout_batch", "ramp_grid") else 0
    return {
        "wall_s": wall,
        "wall_raw_s": sum(raw for raw, _ in stretches),
        "evals": evals,
        "evals_per_s": evals / wall,
        "trajectories_per_s": trajectories / wall,
        "generations": len(gen_s),
        "gen_ms_p50": float(np.median(gen_s)) * 1e3 if gen_s else 0.0,
        "gen_ms_p90": float(np.percentile(gen_s, 90)) * 1e3 if gen_s else 0.0,
        "time_to_target_s": float(np.median(to_target)) if to_target else 0.0,
        "targets": len(to_target),
        "cmaes.generations_to_target": float(np.median(gens_to_target)) if gens_to_target else 0,
        "report_s": float(np.median(reports)) if reports else 0.0,
        "reports": len(reports),
        "stretch_s": [raw for raw, _ in stretches],
        "calibration_ms": [cal for _, cal in stretches],
        "fits_unconverged": sum(not fit.converged for fit in outputs.get("fits", [])),
        "harness.record_bytes": sum(p.stat().st_size for p in outputs.get("record_files", [])),
    }


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "spintune" / "__init__.py").is_file():
        print(f"error: spintune sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cfg = workload.configs(args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        import spintune.cli  # noqa: F401 - the CLI module is not imported by the package

        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            workload.prepare(cfg, Path(tmp))
        return 0

    setup_times, setup_readings = measure_setup(args)

    import spintune.cli  # noqa: F401

    machine = machine_info()
    machine["calibration_ms_before"] = calibrate_ms(10)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        probe, outputs = run_pass(workload, cfg, Path(tmp) / "untraced", PROBE_LAYERS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        figures = campaign_figures(workload, cfg, probe, outputs)
        checks = workload.check(cfg, outputs)
        if args.trace:
            tracer, traced_outputs = run_pass(workload, cfg, Path(tmp) / "traced", LAYERS)
            traced_figures = campaign_figures(workload, cfg, tracer, traced_outputs)
    machine["calibration_ms_after"] = calibrate_ms(10)

    if args.trace:
        calls = tracer.calls()
        missing = [name for name in EXPECTED_SPANS[workload.name] if not calls.get(name)]
        if missing:
            print(f"error: layer self-check failed, no calls recorded for {missing}; "
                  "a patched name was probably renamed or rebound", file=sys.stderr)
            return 1
        for key in ("evals", "harness.record_bytes"):
            checks.add(traced_figures[key] == figures[key],
                       f"traced pass changed {key}: {traced_figures[key]} != {figures[key]}")
    figures["setup_s"] = statistics.median(
        raw * CALIBRATION_REF_MS * 2 / (before + after)
        for raw, before, after in zip(setup_times, setup_readings, setup_readings[1:]))
    figures["setup_raw_s"] = statistics.median(setup_times)
    figures["peak_rss_mb"] = peak_rss_mb
    figures["fail_frac"] = (checks.failed + checks.missed) / max(checks.attempted, 1)
    print(json.dumps({"machine": machine}, sort_keys=True))

    if args.trace:
        values = layer_metrics(tracer)
        for key in ("gen_ms_p50", "gen_ms_p90", "time_to_target_s", "report_s",
                    "trajectories_per_s", "fail_frac", "cmaes.generations_to_target",
                    "harness.record_bytes"):
            values[key] = figures[key]
        values["trace.overhead_pct"] = (
            traced_figures["wall_s"] / figures["wall_s"] - 1.0) * 100.0
        values["trace.spans"] = len(tracer.spans)
        metrics = _metric_block(values, PER_LAYER)
        header = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "machine": machine, "metrics": metrics}
        tracer.write(OUT / f"trace_{workload.name}_seed{args.seed}.jsonl", header)
    else:
        metrics = _metric_block(figures, END_TO_END)

    report = {name: {"value": figures[name], "unit": unit}
              for name, unit in {**END_TO_END, **PER_LAYER}.items() if name in figures}
    report["samples"] = {"generations": figures["generations"], "targets": figures["targets"],
                         "reports": figures["reports"], "setup_runs": len(setup_times),
                         "evals": figures["evals"], "stretch_s": figures["stretch_s"],
                         "calibration_ms": figures["calibration_ms"],
                         "fits_unconverged": figures["fits_unconverged"],
                         "targets_missed": checks.missed,
                         "wall_raw_s": figures["wall_raw_s"],
                         "setup_raw_s": figures["setup_raw_s"]}
    print(json.dumps({"report": report}, sort_keys=True))
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for miss in checks.misses:
        print(f"target missed: {miss}", file=sys.stderr)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
