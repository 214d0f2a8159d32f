"""Closed-loop run orchestration with persisted, resumable records.

A run wires one task backend to the optimizer: ask for candidates,
evaluate the whole generation in one backend call (one reproducible shot
seed per candidate), tell the ranked results back, and append one JSON
line per generation to the record file. Identical configs produce byte-identical record files;
wall-clock timings go to a separate sidecar so they never break that.

Errors: ConfigError for an invalid config, fixture or stored record;
EvaluationError when every candidate of a generation fails, raised before
that generation is written, so the record can be resumed once the cause is
fixed.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import analysis, backends, cmaes, dqd, rb

__all__ = [
    "ConfigError",
    "EvaluationError",
    "RunConfig",
    "GenerationRecord",
    "RunRecord",
    "BatchResult",
    "space_for_task",
    "run",
    "batch",
    "load_record",
    "read_json",
    "evaluated_samples",
    "EXPORTS",
    "export",
    "covariance_series",
    "evaluate_params",
]

log = logging.getLogger(__name__)

RECORD_NAME = "record.jsonl"
TIMINGS_NAME = "timings.jsonl"
AGGREGATE_NAME = "aggregate.json"

_INITIAL_MEAN = 0.5
_INITIAL_SIGMA = 0.25


class ConfigError(Exception):
    """Invalid run configuration or missing fixture."""


class EvaluationError(Exception):
    """Every candidate of a generation failed; nothing of it was written."""


# RunConfig fields that take integers only (bools are rejected), with their minimums.
_INTEGER_MINIMUMS = {"generations": 1, "population": 2, "seed": 0, "shots": 1}
# The most trials numpy's binomial draw accepts.
_MAX_SHOTS = 2**63 - 1


def read_json(path: Path | str):
    """The JSON value in a config file; a missing or unparsable file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as err:  # JSONDecodeError, undecodable bytes, over-long integers
        raise ConfigError(f"config file is not valid JSON: {err}") from None


@dataclass(frozen=True)
class RunConfig:
    """One closed-loop optimization task."""

    task: str
    generations: int
    population: int
    seed: int = 0
    shots: int = 1000
    backend_fixture: object = None
    output_dir: object = None

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        for name, minimum in _INTEGER_MINIMUMS.items():
            value = getattr(self, name)
            try:
                dqd._require_int(name, value, minimum)
            except ValueError as err:
                raise ConfigError(str(err)) from None
            object.__setattr__(self, name, int(value))
        if self.shots > _MAX_SHOTS:
            raise ConfigError(f"shots must be <= {_MAX_SHOTS}")
        if not isinstance(self.output_dir, (type(None), str, os.PathLike)):
            raise ConfigError(f"output_dir must be a path, got {self.output_dir!r}")
        if self.output_dir is not None and "\0" in str(self.output_dir):
            raise ConfigError("output_dir must not contain a NUL character")
        if not isinstance(self.backend_fixture, (type(None), dict, str, os.PathLike)):
            raise ConfigError("backend_fixture must be a JSON object or a path, "
                              f"got {self.backend_fixture!r}")

    def to_dict(self) -> dict:
        payload = dict(vars(self))
        if isinstance(self.backend_fixture, os.PathLike):
            payload["backend_fixture"] = os.fspath(self.backend_fixture)
        if self.output_dir is not None:
            payload["output_dir"] = str(self.output_dir)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        if not isinstance(payload, dict):
            raise ConfigError(f"config must be a JSON object, got {type(payload).__name__}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in payload:
                raise ConfigError(f"config is missing required key {f.name!r}")
        return cls(**{f.name: payload[f.name] for f in fields(cls) if f.name in payload})

    @classmethod
    def from_json(cls, path: Path | str) -> "RunConfig":
        return cls.from_dict(read_json(path))


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    candidates: list
    state: dict
    best_cost: float
    best_params: list


@dataclass(frozen=True)
class RunRecord:
    config: RunConfig
    space: backends.ParameterSpace
    generations: list = field(default_factory=list)

    @property
    def best_cost(self) -> float:
        return self.generations[-1].best_cost

    @property
    def best_params(self) -> list:
        return self.generations[-1].best_params

    @property
    def evaluation_count(self) -> int:
        return sum(len(g.candidates) for g in self.generations)


@dataclass(frozen=True)
class BatchResult:
    records: list
    aggregate: dict


_BENCHMARK_OPTIMUM = np.linspace(0.3, 0.7, 5)


def _benchmark_space() -> backends.ParameterSpace:
    return backends.ParameterSpace(tuple(
        backends.SpaceEntry(f"x{i}", 0.0, 1.0, "1") for i in range(5)
    ))


def _readout_evaluator(config, space, landscape):
    return lambda X, seeds: backends.readout_backend_evaluate(
        landscape, space, X, config.shots, shot_seed=seeds)


def _shuttle_evaluator(config, space, landscape):
    return lambda X, seeds: backends.shuttle_backend_evaluate(
        landscape, space, X, n_shots=config.shots, shot_seed=seeds)


def _single_qubit_evaluator(config, space, landscape):
    cfg = rb.RbConfig(shots_per_sequence=config.shots, seed=config.seed)
    return lambda X, seeds: rb.rb_backend_evaluate(cfg, space.denormalize(X), shot_seed=seeds)


def _benchmark_evaluator(config, space, landscape):
    return lambda X, seeds: [backends.CostEvaluation(
        cost=float(np.sum((x - _BENCHMARK_OPTIMUM) ** 2))) for x in X]


@dataclass(frozen=True)
class _Task:
    """What makes a task: its parameters, its planted device and its cost.

    ``landscape`` builds the default landscape for a seed (None where the
    task has none). ``evaluator(config, space, landscape)`` returns
    evaluate(X, shot_seeds), which takes an (n, d) block of unit-cube
    candidates with one shot seed each, returns n CostEvaluations, and
    looks its backend up on the backend's module at every call.
    """

    space: Callable[[], backends.ParameterSpace]
    landscape: Callable[[int], backends.HiddenLandscape] | None
    evaluator: Callable


_TASKS = {
    "readout": _Task(backends.readout_space, backends.make_readout_landscape,
                     _readout_evaluator),
    "shuttle": _Task(backends.shuttle_space, backends.make_shuttle_landscape,
                     _shuttle_evaluator),
    "single_qubit": _Task(backends.rb_space, None, _single_qubit_evaluator),
    "benchmark": _Task(_benchmark_space, None, _benchmark_evaluator),
}
TASKS = tuple(_TASKS)


def space_for_task(task: str) -> backends.ParameterSpace:
    if task not in _TASKS:
        raise ConfigError(f"unknown task {task!r}")
    return _TASKS[task].space()


def _load_landscape(config: RunConfig, make_default) -> backends.HiddenLandscape:
    fixture = config.backend_fixture
    if fixture is None:
        return make_default(config.seed)
    if isinstance(fixture, dict):
        try:
            return backends.HiddenLandscape.from_dict(fixture)
        except (KeyError, ValueError, TypeError) as err:
            raise ConfigError(f"bad inline landscape fixture: {err}") from None
    try:
        return backends.HiddenLandscape.load(fixture)
    except FileNotFoundError:
        raise ConfigError(f"backend fixture not found: {fixture}") from None
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as err:
        raise ConfigError(f"bad landscape fixture {fixture}: {err}") from None


def _make_evaluator(config: RunConfig, space: backends.ParameterSpace):
    """Return evaluate(X, shot_seeds) for the configured task."""
    task = _TASKS[config.task]
    landscape = _load_landscape(config, task.landscape) if task.landscape else None
    if landscape is not None and landscape.optimum.shape != (space.dimension,):
        raise ConfigError(f"landscape fixture has {landscape.optimum.size} parameters; "
                          f"the {config.task} task has {space.dimension}")
    return task.evaluator(config, space, landscape)


def _shot_seeds(base_seed: int, generation: int, ids) -> list[int]:
    """SeedSequence((base_seed, generation, id)).generate_state(1)[0] of every id, in one pass.

    numpy's hash constants do not depend on the entropy, so its mixing runs
    once on uint32 arrays, one element per id.
    """
    ids = np.asarray(ids, dtype=np.uint32)
    words = [value >> shift & 0xFFFFFFFF for value in (base_seed, generation)
             for shift in range(0, max(value.bit_length(), 1), 32)]
    entropy = [np.full_like(ids, word) for word in words] + [ids]
    entropy += [np.zeros_like(ids)] * (4 - len(entropy))
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & 0xFFFFFFFF
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        value = x * 0xCA01F9DD - y * 0x4973F715
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        pool = [mix(value, hashmix(word)) for value in pool]
    state = (pool[0] ^ 0x8B51F9DD) * (0x8B51F9DD * 0x58F38DED & 0xFFFFFFFF)
    return (state ^ state >> 16).tolist()


def _state_to_dict(state: cmaes.DistributionState) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(state).items()}


def _state_from_dict(payload: dict) -> cmaes.DistributionState:
    return cmaes.DistributionState(**{
        k: np.array(v, dtype=float) if isinstance(v, list) else v for k, v in payload.items()})


def _dump_line(payload) -> bytes:
    """One line of a record or its sidecar: compact key-sorted JSON and its newline."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def run(config: RunConfig, resume: bool = False) -> RunRecord:
    """Execute the closed loop, appending one record line per generation.

    With ``resume`` and an existing record file, completed generations
    are kept and the loop continues from the stored optimizer state;
    counter-based sampling makes the continuation byte-identical to an
    uninterrupted run. If every candidate of a generation fails, EvaluationError
    is raised before that generation is written.
    """
    space = space_for_task(config.task)
    evaluate = _make_evaluator(config, space)
    params = cmaes.StrategyParams.defaults(
        dimension=space.dimension, population=config.population, seed=config.seed)
    state = cmaes.DistributionState.initial(
        np.full(space.dimension, _INITIAL_MEAN), sigma=_INITIAL_SIGMA)

    done: list[GenerationRecord] = []
    with contextlib.ExitStack() as files:
        record_file = timing_file = None
        if config.output_dir is not None:
            out_dir = Path(config.output_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            stored: list[bytes] = []
            if resume:
                try:
                    prior = load_record(out_dir)
                except _NothingStored:
                    pass  # nothing survived to continue from: start afresh
                else:
                    _check_resumable(prior, config, space)
                    done = prior.generations
                    # the kept generations 0..k-1 are lines 1..k of the file
                    stored = (out_dir / RECORD_NAME).read_bytes().split(b"\n")[1:len(done) + 1]
            # kept generations go back as stored, unless a non-finite cost becomes null
            record_file = files.enter_context((out_dir / RECORD_NAME).open("wb"))
            record_file.writelines([_dump_line(_header_payload(config, space)), *(
                line + b"\n" if all(math.isfinite(c["cost"]) for c in rec.candidates)
                else _dump_line(_generation_payload(rec)) for rec, line in zip(done, stored))])
            record_file.flush()
            del stored
            _trim_timings(out_dir / TIMINGS_NAME, len(done))
            timing_file = files.enter_context((out_dir / TIMINGS_NAME).open("ab"))

        best_cost, best_params = np.inf, []
        if done:
            state = _state_from_dict(done[-1].state)
            best_cost, best_params = done[-1].best_cost, list(done[-1].best_params)

        for gen in range(len(done), config.generations):
            ticks = [time.perf_counter()]  # and the end of each phase timed in the sidecar
            candidates = cmaes.ask(state, params)
            ticks.append(time.perf_counter())
            X = np.array([cand.x for cand in candidates])
            results = _evaluate_generation(evaluate, X, candidates, config.seed, gen)
            ticks.append(time.perf_counter())
            if not any(math.isfinite(cost) for cost, _ in results):
                cost, meta = results[0]
                raise EvaluationError(f"every candidate of generation {gen} failed; the first: "
                                      f"{meta.get('error', f'cost {cost}')}")
            evaluated = []
            cand_rows = []
            for cand, x, (cost, meta) in zip(candidates, space.denormalize(X).tolist(), results):
                evaluated.append((cand, cost))
                cand_rows.append({"id": cand.id, "x": x, "cost": cost, "meta": meta})
                if cost < best_cost:
                    best_cost, best_params = cost, x
            state = cmaes.tell(state, params, evaluated)
            rec = GenerationRecord(
                generation=gen,
                candidates=cand_rows,
                state=_state_to_dict(state),
                best_cost=float(best_cost),
                best_params=list(best_params),
            )
            done.append(rec)
            ticks.append(time.perf_counter())
            if record_file is not None:
                record_file.write(_dump_line(_generation_payload(rec)))
                record_file.flush()
                ticks.append(time.perf_counter())
                phases = {f"{phase}_s": end - start for phase, start, end
                          in zip(("ask", "evaluate", "tell", "persist"), ticks, ticks[1:])}
                timing_file.write(_dump_line(
                    {"generation": gen, "seconds": ticks[-1] - ticks[0], **phases}))
                timing_file.flush()

    record = RunRecord(config=config, space=space, generations=done)
    log.info("run finished: best cost %.6g at %s", record.best_cost,
             dict(zip(space.names, record.best_params)))
    return record


def _evaluate_generation(evaluate, X: np.ndarray, candidates: list, seed: int,
                         gen: int) -> list[tuple[float, dict]]:
    """(cost, metadata) of each candidate, from one evaluator call on X.

    If that call raises, each candidate is evaluated alone as a one-row
    block, and only those that raise then are failed: cost inf and an
    ``error`` in the metadata.
    """
    seeds = _shot_seeds(seed, gen, [cand.id for cand in candidates])

    def costed(rows: np.ndarray, row_seeds: list) -> list[tuple[float, dict]]:
        results = evaluate(rows, row_seeds)
        if len(results) != len(rows):
            raise ValueError(f"{len(results)} evaluations for {len(rows)} candidates")
        return [(float(r.cost), r.metadata) for r in results]

    try:
        return costed(X, seeds)
    except Exception:  # noqa: BLE001 - retried one candidate at a time below
        log.debug("generation %d failed as a block; evaluating candidates alone", gen,
                  exc_info=True)
    out = []
    for i, cand in enumerate(candidates):
        try:
            out += costed(X[i:i + 1], seeds[i:i + 1])
        except Exception as err:  # noqa: BLE001 - a bad candidate must not kill the run
            log.warning("candidate %d of generation %d failed: %s", cand.id, gen, err)
            out.append((float("inf"), {"error": str(err)}))
    return out


def _header_payload(config: RunConfig, space: backends.ParameterSpace) -> dict:
    from . import __version__

    payload = config.to_dict()
    # The storage location does not define the run; keeping it out of the
    # header makes records from identical configs byte-comparable.
    payload.pop("output_dir", None)
    return {
        "type": "header",
        "config": payload,
        "space": space.to_dicts(),
        "version": __version__,
    }


def _generation_payload(rec: GenerationRecord) -> dict:
    """A generation as written: a non-finite candidate cost becomes null."""
    candidates = [cand if math.isfinite(cand["cost"]) else {**cand, "cost": None}
                  for cand in rec.candidates]
    return {"type": "generation", **vars(rec), "candidates": candidates}


def _stored_cost(cost) -> float:
    """A candidate cost as loaded: null, as a failed one is written, is +inf."""
    if cost is None:
        return math.inf
    if not isinstance(cost, float):
        raise TypeError(f"candidate cost {cost!r} is not a float")
    return cost


class _NothingStored(ConfigError):
    """No record file, or not even its header line was written in full."""


def load_record(record_dir: Path | str) -> RunRecord:
    """Load a persisted run.

    Only the final line may be torn, as a crash mid-write leaves it; it is
    dropped. A null candidate cost, as a failed candidate is written, reads
    back as +inf. Any other unreadable line, a first line that is not the
    header, or generation numbers other than 0, 1, 2, ... raise ConfigError.
    """
    path = Path(record_dir) / RECORD_NAME
    if not path.exists():
        raise _NothingStored(f"no {RECORD_NAME} in {record_dir}")
    lines = path.read_bytes().split(b"\n")
    payloads = []
    for i, line in enumerate(lines):
        try:
            payload = json.loads(line)
        except ValueError:
            payload = None
        if isinstance(payload, dict):
            payloads.append(payload)
        elif i < len(lines) - 1:
            raise ConfigError(f"{path} line {i + 1} is not a JSON object")
    if not payloads:
        raise _NothingStored(f"{path} has no complete header line")
    header, *rest = payloads
    if header.get("type") != "header":
        raise ConfigError(f"{path} has no header line")
    gens: list[GenerationRecord] = []
    for k, payload in enumerate(rest):
        if (payload.get("type"), payload.get("generation")) != ("generation", k):
            raise ConfigError(f"{path} line {k + 2} is not generation {k}")
        try:
            candidates = [{**cand, "cost": _stored_cost(cand["cost"])}
                          for cand in payload["candidates"]]
            gens.append(GenerationRecord(k, candidates, payload["state"],
                                         float(payload["best_cost"]),
                                         list(payload["best_params"])))
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{path} generation {k} is malformed: {err}") from None
    config = RunConfig.from_dict(header["config"])
    space = backends.ParameterSpace.from_dicts(header["space"])
    return RunRecord(config=config, space=space, generations=gens)


def _check_resumable(prior: RunRecord, config: RunConfig,
                     space: backends.ParameterSpace) -> None:
    """Refuse to continue a stored run under other settings.

    Only ``generations`` may differ, and not below the stored count:
    stored generations are never rewritten.
    """
    old, new = prior.config.to_dict(), config.to_dict()
    changed = [key for key in new if key not in ("generations", "output_dir")
               and _dump_line(old[key]) != _dump_line(new[key])]
    if prior.space != space:
        changed.append("space")
    if changed:
        raise ConfigError(f"cannot resume: the stored run differs in {', '.join(changed)}")
    if len(prior.generations) > config.generations:
        raise ConfigError(f"cannot resume: {len(prior.generations)} generations are "
                          f"stored but {config.generations} requested")


def _trim_timings(path: Path, kept: int) -> None:
    """Cut the timings sidecar, one line per generation in order, to ``kept`` lines.

    A line without its newline is a torn write and is dropped.
    """
    lines = path.read_text().splitlines(keepends=True)[:kept] if path.exists() else []
    path.write_text("".join(line for line in lines if line.endswith("\n")))


def _pin_backend_fixture(config: RunConfig) -> RunConfig:
    """Materialize the default landscape so every repeat sees the same device.

    A batch models repeated tune-ups of one physical sample, so the hidden
    landscape must stay fixed while the optimizer seed and shot noise vary.
    Without this, each derived seed would plant a different optimum.
    """
    make_default = _TASKS[config.task].landscape
    if config.backend_fixture is not None or make_default is None:
        return config
    return replace(config, backend_fixture=make_default(config.seed).to_dict())


def batch(config: RunConfig, repeats: int) -> BatchResult:
    """Repeat the run with derived seeds; failures do not abort the batch."""
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    config = _pin_backend_fixture(config)
    base_out = Path(config.output_dir) if config.output_dir is not None else None
    records: list = []
    rows = []
    for r in range(repeats):
        # repeat 0 is the base run itself, so a batch of one is just run()
        if r == 0:
            derived = config.seed
        else:
            derived = int(np.random.SeedSequence((config.seed, r)).generate_state(1)[0])
        sub_out = str(base_out / f"run_{r:03d}") if base_out is not None else None
        sub = replace(config, seed=derived, output_dir=sub_out)
        try:
            record = run(sub)
        except Exception as err:  # noqa: BLE001 - isolate per-repeat failures
            log.warning("repeat %d failed: %s", r, err)
            records.append(None)
            rows.append({"repeat": r, "seed": derived, "error": str(err)})
            continue
        records.append(record)
        rows.append({
            "repeat": r,
            "seed": derived,
            "best_cost": record.best_cost,
            "best_params": record.best_params,
        })
    best_costs = [row["best_cost"] for row in rows if "best_cost" in row]
    aggregate = {
        "task": config.task,
        "base_seed": config.seed,
        "repeats": repeats,
        "runs": rows,
        "best_costs": best_costs,
        "band_width": (max(best_costs) - min(best_costs)) if best_costs else None,
    }
    if base_out is not None:
        base_out.mkdir(parents=True, exist_ok=True)
        (base_out / AGGREGATE_NAME).write_text(
            json.dumps(aggregate, sort_keys=True, indent=2) + "\n")
    return BatchResult(records=records, aggregate=aggregate)


def covariance_series(record: RunRecord) -> analysis.CovarianceSeries:
    """Distribution covariance before each generation plus the final one.

    Generation 0 is the untouched initial state, so its matrix is the
    identity; entry g > 0 is the state after telling generation g - 1.
    """
    n = record.space.dimension
    mats = [np.eye(n)]
    gens = [0]
    for rec in record.generations:
        mats.append(np.array(rec.state["cov"], dtype=float))
        gens.append(rec.generation + 1)
    return analysis.CovarianceSeries(generations=tuple(gens), matrices=np.array(mats))


def evaluate_params(config: RunConfig, physical_values, shot_seed: int = 0) -> backends.CostEvaluation:
    """Evaluate one physical-unit parameter vector under a run's backend."""
    space = space_for_task(config.task)
    evaluate = _make_evaluator(config, space)
    x = space.normalize(np.asarray(physical_values, dtype=float))
    return evaluate(np.clip(x, 0.0, 1.0)[None], [shot_seed])[0]


def evaluated_samples(record: RunRecord) -> tuple[np.ndarray, np.ndarray]:
    """Unit-cube rows, clipped, and costs of every candidate with a finite cost."""
    cands = [cand for gen in record.generations for cand in gen.candidates]
    costs = np.array([cand["cost"] for cand in cands], dtype=float)
    rows = np.array([cand["x"] for cand in cands], dtype=float)
    rows = rows.reshape(len(cands), record.space.dimension)
    finite = np.isfinite(costs)
    return np.clip(record.space.normalize(rows)[finite], 0.0, 1.0), costs[finite]


def _trace_csv(record: RunRecord) -> str:
    lines = ["generation,individual,cost"] + [
        f"{rec.generation},{cand['id']},{cand['cost']!r}"
        for rec in record.generations for cand in rec.candidates]
    return "\n".join(lines) + "\n"


def _covariance_json(record: RunRecord) -> str:
    series = covariance_series(record)
    return json.dumps({"generations": list(series.generations),
                       "matrices": series.matrices.tolist()}, sort_keys=True) + "\n"


def _best_params_json(record: RunRecord) -> str:
    return json.dumps({"task": record.config.task, "names": list(record.space.names),
                       "values": record.best_params, "cost": record.best_cost},
                      sort_keys=True, indent=2) + "\n"


# Analysis-ready views of a run: name -> (file name in the run's output directory, renderer).
# Every evaluation; the distribution covariance per generation; the best physical parameters.
EXPORTS = {
    "trace": ("trace.csv", _trace_csv),
    "covariance": ("covariance.json", _covariance_json),
    "best_params": ("best_params.json", _best_params_json),
}


def export(record: RunRecord, what: str, out_path: Path | str) -> Path:
    """Write one EXPORTS view of a run record; grids are the sweep command's, not exports."""
    if what not in EXPORTS:
        raise ValueError(f"unknown export {what!r}; expected one of {', '.join(EXPORTS)} "
                         "(grids are written by the sweep command)")
    out_path = Path(out_path)
    out_path.write_text(EXPORTS[what][1](record))
    return out_path
