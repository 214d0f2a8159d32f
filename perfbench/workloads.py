"""The four closed-loop workloads: configs, timed phase and output checks.

Each workload is one client in one process: generation g+1 is asked
only after generation g is told, and every call returns before the next
is made. ``configs`` turns the benchmark seed into plain JSON configs,
the only input the program receives. ``prepare`` writes config files and
warms fixtures and lazy caches, ``run`` is the timed phase, and ``check``
verifies the outputs after timing has stopped.

Why these four (see README.md for the layer-to-metric map):

- readout_batch: the paper's headline campaign. Each candidate runs one
  tiny 300-step ramp, so per-call cost in backends and dqd dominates.
- ramp_grid: the same dqd kernel in bulk through ``tune sweep``, with
  no optimizer; memory traffic and chunk size matter, call overhead not.
- gate_loop: RB composition and least-squares fits do the work and dqd
  is never called, so a dqd change must predict no change here.
- shuttle_campaign: a 25 us cost function, so cmaes, harness
  bookkeeping and persistence dominate; the only workload that reads
  records back (exports, resume, analyze).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from oracle import TOLERANCE, cell_fidelity

READOUT_TARGET_VISIBILITY = 0.98
READOUT_BAND = 0.05
SHUTTLE_P_TOLERANCE = 0.10
GATE_MIN_P = 0.992
RB_LENGTHS = (1, 3, 6, 10, 16, 24, 40, 60, 90, 140, 200, 300)
SHUTTLE_COV_PAIRS = ("0,1", "4,5")
GRID_STEPS = 300
NOISY_SAMPLES = 100
CLEAN_ORACLE_CELLS = 3

# Seconds per unit that size each workload from --seconds, near one
# unit's time on a 2-core x86 box. They are constants, never a
# measurement, so one seed and one --seconds always give the same work
# and the same exact counts.
NOMINAL_UNIT_S = {
    "readout_batch": 3.0,
    "ramp_grid": 4.0,
    "gate_loop": 1.8,
    "shuttle_campaign": 1.6,
}


def derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence((seed,) + path).generate_state(1)[0])


def _units(name: str, seconds: int, minimum: int = 1) -> int:
    return max(minimum, round(seconds / NOMINAL_UNIT_S[name]))


def _sink():
    return contextlib.redirect_stdout(io.StringIO())


def best_so_far(record):
    """Yield each generation with the best-so-far candidate after it.

    Best-so-far follows the harness rule: a candidate takes over only
    with a strictly lower cost.
    """
    best, holder = math.inf, None
    for gen in record.generations:
        for cand in gen.candidates:
            if cand["cost"] < best:
                best, holder = cand["cost"], cand
        yield gen, holder


def generation_of_target(record, hit) -> int | None:
    """First generation whose best-so-far candidate meets ``hit``."""
    for g, (_, holder) in enumerate(best_so_far(record)):
        if holder is not None and hit(holder["meta"]):
            return g
    return None


def best_so_far_recorded(record) -> bool:
    """Whether every generation records the best-so-far cost and parameters."""
    for gen, holder in best_so_far(record):
        want = (holder["cost"], holder["x"]) if holder is not None else (math.inf, [])
        if (gen.best_cost, list(gen.best_params)) != want:
            return False
    return True


class Checks:
    """Operations attempted, failed and missed, with what went wrong.

    A failure is a wrong output: a raised or non-finite evaluation, a
    record whose best-so-far does not follow its candidates, a grid cell
    off its oracle, a resume that is not byte-exact, a missing output.
    Any failure makes the run incorrect. A miss is a closed loop that
    did not reach its planted target. The program picks best parameters
    from single noisy evaluations, so on a few seeds a loop misses;
    misses count in ``fail_frac`` but leave the run correct.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.missed = 0
        self.failures: list[str] = []
        self.misses: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def target(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.missed += 1
            self.misses.append(what)

    def add_evaluations(self, records) -> None:
        """One operation per candidate: it must not raise or cost non-finite.

        One more per record: its best-so-far must follow its candidates.
        """
        failed = 0
        for record in records:
            for gen in record.generations:
                for cand in gen.candidates:
                    self.attempted += 1
                    failed += (not math.isfinite(cand["cost"])) or "error" in cand["meta"]
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} failed evaluations")
        for r, record in enumerate(records):
            self.add(best_so_far_recorded(record),
                     f"record {r} best-so-far does not follow its candidates")


# ----------------------------------------------------------------------
# readout_batch


class ReadoutBatch:
    calibration_exponent = 1.0
    unit_span = "harness.run"
    name = "readout_batch"

    @staticmethod
    def configs(seed: int, seconds: int) -> dict:
        # 30 generations, not the 15 of the band test: at 15 about a third
        # of repeats have not yet reached the planted visibility, and a
        # missed target counts as a failed operation.
        return {
            "run": {"task": "readout", "generations": 30, "population": 150,
                    "seed": derived_seed(seed, 0), "shots": 10_000},
            "repeats": _units("readout_batch", seconds, minimum=2),
        }

    @staticmethod
    def prepare(cfg: dict, workdir: Path) -> None:
        from spintune import backends

        landscape = backends.make_readout_landscape(cfg["run"]["seed"])
        # fills the init-fidelity-at-optimum cache the batch will hit
        backends.true_readout_visibility(landscape, backends.readout_space(),
                                         landscape.optimum)

    @staticmethod
    def run(cfg: dict, workdir: Path, tracer) -> dict:
        from spintune import harness

        out = workdir / "batch"
        config = harness.RunConfig(**cfg["run"], output_dir=str(out))
        tracer.unit = "batch"
        with tracer.phase("bench.loop"):
            result = harness.batch(config, repeats=cfg["repeats"])
        return {"records": result.records, "aggregate": result.aggregate,
                "record_files": sorted(out.glob("run_*/record.jsonl"))}

    @staticmethod
    def evaluations(cfg: dict, outputs: dict) -> int:
        return sum(r.evaluation_count for r in outputs["records"] if r is not None)

    @staticmethod
    def hit(meta: dict) -> bool:
        return meta["true_visibility"] >= READOUT_TARGET_VISIBILITY

    @classmethod
    def check(cls, cfg: dict, outputs: dict) -> Checks:
        checks = Checks()
        records = outputs["records"]
        for r, record in enumerate(records):
            checks.add(record is not None, f"repeat {r} raised")
        done = [r for r in records if r is not None]
        checks.add_evaluations(done)
        for r, record in enumerate(done):
            checks.target(generation_of_target(record, cls.hit) is not None,
                          f"repeat {r} missed visibility {READOUT_TARGET_VISIBILITY}")
        band = outputs["aggregate"]["band_width"]
        checks.add(band is not None and band <= READOUT_BAND, f"band {band} > {READOUT_BAND}")
        checks.add(len(outputs["record_files"]) == cfg["repeats"], "record files missing")
        return checks


# ----------------------------------------------------------------------
# ramp_grid


def _sweep(base: dict, n1: int, n2: int, noise: dict | None) -> dict:
    payload = {
        "base": base,
        "axis1": {"name": "ramp_time", "start": 0.04, "stop": 4.0, "num": n1, "spacing": "geom"},
        "axis2": {"name": "eps_final", "start": 2.0, "stop": 40.0, "num": n2},
        "n_steps": GRID_STEPS,
    }
    if noise is not None:
        payload["noise"] = noise
    return payload


def _axis_values(axis: dict) -> np.ndarray:
    if axis.get("spacing") == "geom":
        return np.geomspace(axis["start"], axis["stop"], axis["num"])
    return np.linspace(axis["start"], axis["stop"], axis["num"])


def _read_grid(path: Path) -> np.ndarray:
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in row.split(",")[1:]] for row in rows])


class RampGrid:
    # Across 20 runs on a 2-core VM, log sweep time followed log
    # calibration time with slope 0.63 (correlation 0.9), where the loop
    # workloads follow it with slope 0.9 to 1: the sweep is partly bound
    # by memory, which slows less than the interpreter does.
    calibration_exponent = 0.6
    unit_span = "bench.sweep"
    name = "ramp_grid"
    hit = None

    @staticmethod
    def configs(seed: int, seconds: int) -> dict:
        units = []
        for u in range(_units("ramp_grid", seconds)):
            rng = np.random.default_rng(derived_seed(seed, 1, u))
            # the acceptance shapes around a seed-jittered operating point
            base = {"eps_initial": float(-30.0 + rng.uniform(-1.0, 1.0)),
                    "tunnel_coupling": float(10.0 * rng.uniform(0.95, 1.05)),
                    "zeeman_diff": 0.3}
            noise = {"sigma_eps": 1.0, "n_samples": NOISY_SAMPLES,
                     "seed": derived_seed(seed, 2, u)}
            units.append({
                "sweeps": {"noisy": _sweep(base, 8, 8, noise),
                           "clean_small": _sweep(base, 8, 8, None),
                           "clean": _sweep(base, 40, 40, None)},
                "oracle_cells": {
                    "noisy": [[int(rng.integers(8)), int(rng.integers(8))]],
                    "clean": [[int(rng.integers(40)), int(rng.integers(40))]
                              for _ in range(CLEAN_ORACLE_CELLS)],
                },
            })
        return {"units": units}

    @staticmethod
    def prepare(cfg: dict, workdir: Path) -> None:
        for u, unit in enumerate(cfg["units"]):
            for kind, payload in unit["sweeps"].items():
                (workdir / f"u{u}_{kind}.json").write_text(json.dumps(payload))

    @staticmethod
    def run(cfg: dict, workdir: Path, tracer) -> dict:
        from spintune import cli

        codes = []
        for u, unit in enumerate(cfg["units"]):
            tracer.unit = f"unit{u}"
            with tracer.phase("bench.unit"):
                for kind in unit["sweeps"]:
                    argv = ["sweep", "--config", str(workdir / f"u{u}_{kind}.json"),
                            "--out", str(workdir / f"u{u}_{kind}.csv")]
                    with tracer.phase("bench.sweep"), _sink():
                        codes.append(cli.main(argv))
        return {"codes": codes, "workdir": workdir}

    @staticmethod
    def evaluations(cfg: dict, outputs: dict) -> int:
        """Trajectories integrated: grid cells times noise samples."""
        total = 0
        for unit in cfg["units"]:
            for payload in unit["sweeps"].values():
                samples = payload["noise"]["n_samples"] if "noise" in payload else 1
                total += payload["axis1"]["num"] * payload["axis2"]["num"] * samples
        return total

    @staticmethod
    def check(cfg: dict, outputs: dict) -> Checks:
        checks = Checks()
        for code in outputs["codes"]:
            checks.add(code == 0, f"sweep exit code {code}")
        workdir = outputs["workdir"]
        for u, unit in enumerate(cfg["units"]):
            grids = {}
            for kind, payload in unit["sweeps"].items():
                path = workdir / f"u{u}_{kind}.csv"
                grid = _read_grid(path) if path.exists() else np.zeros((0, 0))
                shape = (payload["axis1"]["num"], payload["axis2"]["num"])
                ok = grid.shape == shape and bool(np.all((grid >= -1e-9) & (grid <= 1 + 1e-9)))
                checks.add(ok, f"unit {u} {kind} grid malformed")
                grids[kind] = grid if ok else None
            for kind, cells in unit["oracle_cells"].items():
                payload = unit["sweeps"][kind]
                noise = payload.get("noise")
                shifts = (np.random.default_rng(noise["seed"]).normal(
                    0.0, noise["sigma_eps"], noise["n_samples"]) if noise else np.zeros(1))
                a1, a2 = _axis_values(payload["axis1"]), _axis_values(payload["axis2"])
                for i, j in cells:
                    if grids[kind] is None:
                        checks.add(False, f"unit {u} {kind} cell ({i},{j}) missing")
                        continue
                    want = cell_fidelity(payload["base"], {"ramp_time": a1[i], "eps_final": a2[j]},
                                         shifts, payload["n_steps"])
                    got = grids[kind][i, j]
                    checks.add(abs(got - want) <= TOLERANCE,
                               f"unit {u} {kind} cell ({i},{j}): {got!r} vs oracle {want!r}")
            if grids["noisy"] is not None and grids["clean_small"] is not None:
                checks.add(grids["noisy"].mean() < grids["clean_small"].mean(),
                           f"unit {u} noisy grid mean not below clean")
            else:
                checks.add(False, f"unit {u} noise penalty not checkable")
        return checks


# ----------------------------------------------------------------------
# gate_loop


class GateLoop:
    calibration_exponent = 1.0
    unit_span = "bench.unit"
    name = "gate_loop"
    hit = None

    @staticmethod
    def configs(seed: int, seconds: int) -> dict:
        return {"units": [
            {"run": {"task": "single_qubit", "generations": 40, "population": 14,
                     "seed": derived_seed(seed, 3, u), "shots": 100}}
            for u in range(_units("gate_loop", seconds))
        ]}

    @staticmethod
    def prepare(cfg: dict, workdir: Path) -> None:
        from spintune import rb

        # builds the Clifford group multiplication tables
        rb.rb_sequences(rb.RbConfig(seed=cfg["units"][0]["run"]["seed"]))

    @staticmethod
    def run(cfg: dict, workdir: Path, tracer) -> dict:
        from spintune import analysis, harness, rb

        lengths = np.array(RB_LENGTHS, dtype=float)
        records, curves, fits = [], [], []
        for u, unit in enumerate(cfg["units"]):
            tracer.unit = f"unit{u}"
            with tracer.phase("bench.unit"):
                with tracer.phase("bench.loop"):
                    record = harness.run(harness.RunConfig(**unit["run"]))
                with tracer.phase("bench.report"):
                    rb_cfg = rb.RbConfig(shots_per_sequence=unit["run"]["shots"],
                                         seed=unit["run"]["seed"])
                    curve = rb.rb_decay_curve(rb_cfg, np.array(record.best_params), list(RB_LENGTHS))
                    fit = analysis.fit_decay(lengths, curve)
                    harness.covariance_series(record)
            records.append(record)
            curves.append(curve)
            fits.append(fit)
        return {"records": records, "curves": curves, "fits": fits, "record_files": []}

    @staticmethod
    def evaluations(cfg: dict, outputs: dict) -> int:
        return sum(r.evaluation_count for r in outputs["records"])

    @staticmethod
    def check(cfg: dict, outputs: dict) -> Checks:
        checks = Checks()
        checks.add_evaluations(outputs["records"])
        lengths = np.array(RB_LENGTHS, dtype=float)
        for u, (curve, fit) in enumerate(zip(outputs["curves"], outputs["fits"])):
            # The fit must do at least as well as the flat line through
            # the curve's mean, the limit of its model as A goes to 0.
            a, p, c = (fit.params.get(k, float("nan")) for k in ("A", "p", "C"))
            residual = float(np.linalg.norm(a * p**lengths + c - curve))
            flat = float(np.linalg.norm(curve - curve.mean()))
            checks.add(0.0 < p <= 1.0 and residual <= flat * (1 + 1e-9) + 1e-12,
                       f"unit {u} decay fit p={p}: residual {residual} above flat {flat}")
            # A fit that stops at its evaluation limit still reports its
            # estimate; only the estimate is held to the planted bar.
            checks.target(p >= GATE_MIN_P, f"unit {u} fitted p {p} < {GATE_MIN_P}")
        return checks


# ----------------------------------------------------------------------
# shuttle_campaign


class ShuttleCampaign:
    calibration_exponent = 1.0
    unit_span = "bench.unit"
    name = "shuttle_campaign"

    @staticmethod
    def configs(seed: int, seconds: int) -> dict:
        return {"units": [
            {"run": {"task": "shuttle", "generations": 200, "population": 50,
                     "seed": derived_seed(seed, 4, u)}}
            for u in range(_units("shuttle_campaign", seconds))
        ]}

    @staticmethod
    def prepare(cfg: dict, workdir: Path) -> None:
        from spintune import backends

        for unit in cfg["units"]:
            backends.make_shuttle_landscape(unit["run"]["seed"])

    @staticmethod
    def run(cfg: dict, workdir: Path, tracer) -> dict:
        from spintune import cli, harness

        records, originals, codes = [], [], []
        for u, unit in enumerate(cfg["units"]):
            tracer.unit = f"unit{u}"
            out = workdir / f"u{u}"
            config = harness.RunConfig(**unit["run"], output_dir=str(out))
            with tracer.phase("bench.unit"):
                with tracer.phase("bench.loop"):
                    record = harness.run(config)
                with tracer.phase("bench.report"):
                    # the three exports `tune run` writes
                    harness.export(record, "trace", out / "trace.csv")
                    harness.export(record, "covariance", out / "covariance.json")
                    harness.export(record, "best_params", out / "best_params.json")
                    path = out / harness.RECORD_NAME
                    original = path.read_bytes()
                    path.write_bytes(original[: len(original) // 2])
                    with tracer.phase("bench.resume"):
                        harness.run(config, resume=True)
                    argv = ["analyze", "--record", str(out), "--hdmr"]
                    for pair in SHUTTLE_COV_PAIRS:
                        argv += ["--cov-pairs", pair]
                    with tracer.phase("bench.analyze"), _sink():
                        codes.append(cli.main(argv))
            records.append(record)
            originals.append(original)
        return {"records": records, "originals": originals, "codes": codes,
                "record_files": [workdir / f"u{u}" / harness.RECORD_NAME
                                 for u in range(len(cfg["units"]))]}

    @staticmethod
    def evaluations(cfg: dict, outputs: dict) -> int:
        return sum(r.evaluation_count for r in outputs["records"])

    @staticmethod
    def hit(meta: dict) -> bool:
        from spintune import backends

        return abs(meta["p"] - backends.SHUTTLE_P_OPTIMUM) <= (
            SHUTTLE_P_TOLERANCE * backends.SHUTTLE_P_OPTIMUM)

    @classmethod
    def check(cls, cfg: dict, outputs: dict) -> Checks:
        checks = Checks()
        checks.add_evaluations(outputs["records"])
        for u, record in enumerate(outputs["records"]):
            checks.target(generation_of_target(record, cls.hit) is not None,
                          f"unit {u} missed the planted depolarization")
        for u, (path, original) in enumerate(zip(outputs["record_files"], outputs["originals"])):
            checks.add(path.read_bytes() == original, f"unit {u} resume not byte-exact")
            out = path.parent
            wrote = ["trace.csv", "covariance.json", "best_params.json", "hdmr.json", "hdmr.csv"]
            wrote += [f"cov_{p.replace(',', '_')}.csv" for p in SHUTTLE_COV_PAIRS]
            missing = [name for name in wrote if not (out / name).is_file()]
            checks.add(not missing, f"unit {u} missing outputs {missing}")
        for code in outputs["codes"]:
            checks.add(code == 0, f"analyze exit code {code}")
        return checks


WORKLOADS = {w.name: w for w in (ReadoutBatch, RampGrid, GateLoop, ShuttleCampaign)}

# Spans each workload must hit at least once in a traced pass.
EXPECTED_SPANS = {
    "readout_batch": ("cmaes.ask", "cmaes.tell", "backends.evaluate",
                      "dqd.init_fidelity", "harness.run"),
    "ramp_grid": ("cli.main", "dqd.grid"),
    "gate_loop": ("cmaes.ask", "cmaes.tell", "rb.evaluate", "rb.sequences",
                  "rb.decay_curve", "analysis.fit", "harness.run"),
    "shuttle_campaign": ("cmaes.ask", "cmaes.tell", "backends.evaluate", "harness.run",
                         "harness.load", "harness.export", "cli.main", "analysis.hdmr"),
}
