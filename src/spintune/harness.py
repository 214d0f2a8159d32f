"""Closed-loop run orchestration with persisted, resumable records.

A run wires one task backend to the optimizer: ask for a generation of
points, clip them into the unit cube, evaluate them in one backend call
(each row's shot seed is its key, seed << 64 | generation << 32 | row),
tell the steps and costs back, and append one JSON line per generation to
the record file. Identical configs produce byte-identical record files;
wall-clock timings go to a separate sidecar so they never break that. A
record of version RECORD_VERSION is a header line, then per generation
its number, its state and its candidates by row, each {x, cost (null
where failed), meta}; best-so-far is not stored but recomputed on load,
and other versions are refused. Every object spintune stores goes out
through one writer, ``json_plain``, and every object a user writes or a
record holds comes back through one reader, ``json_object``, which
refuses unknown keys; a stored line or candidate must hold exactly its
keys. A fixture file is read once, and its object, not its path, is what
a run holds and records.

Errors: ConfigError for an invalid config, fixture or stored record;
EvaluationError when every candidate of a generation fails, raised before
that generation is written, so the record can be resumed once the cause is
fixed. A candidate whose evaluation raises or whose cost is not finite is
failed: cost +inf and an ``error`` in its metadata.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import time
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
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
    "json_keys",
    "json_object",
    "json_plain",
    "evaluated_samples",
    "EXPORTS",
    "export",
    "covariance_series",
    "evaluate_params",
]

log = logging.getLogger(__name__)

RECORD_NAME = "record.jsonl"
RECORD_VERSION = 3
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
    """The JSON value in a config or fixture file; a missing or unparsable file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except ValueError as err:  # JSONDecodeError, undecodable bytes, over-long integers
        raise ConfigError(f"{path} is not valid JSON: {err}") from None


def json_keys(payload, allowed, what: str) -> None:
    """Refuse, naming ``what``, a payload that is not a JSON object or has a key not allowed."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(payload).__name__}")
    if unknown := sorted(set(payload) - set(allowed), key=str):
        raise ConfigError(f"{what} has unknown keys {unknown}")


def json_object(cls, payload, what: str):
    """Dataclass ``cls`` from a JSON object, written or stored; else a ConfigError naming ``what``."""
    json_keys(payload, [f.name for f in fields(cls)], what)
    if missing := [f.name for f in fields(cls) if f.name not in payload
                   and f.default is MISSING and f.default_factory is MISSING]:
        raise ConfigError(f"{what} is missing required keys {missing}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {what}: {err}") from None


def json_plain(obj):
    """``obj`` with each dataclass a dict of its fields and each array, tuple or list a list."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: json_plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [json_plain(item) for item in obj]
    return obj


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
        for name in ("output_dir", "backend_fixture"):  # a path is kept as its string
            if isinstance(getattr(self, name), os.PathLike):
                object.__setattr__(self, name, str(getattr(self, name)))


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
        landscape, space, X, config.shots, shot_seeds=seeds)


def _shuttle_evaluator(config, space, landscape):
    return lambda X, seeds: backends.shuttle_backend_evaluate(
        landscape, X, n_shots=config.shots, shot_seeds=seeds)


def _single_qubit_evaluator(config, space, landscape):
    cfg = rb.RbConfig(shots_per_sequence=config.shots, seed=config.seed)
    return lambda X, seeds: rb.rb_backend_evaluate(cfg, space.denormalize(X), shot_seeds=seeds)


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


def _make_evaluator(config: RunConfig, space: backends.ParameterSpace):
    """Return evaluate(X, shot_seeds) for the configured task, its fixture file already read."""
    task = _TASKS[config.task]
    if task.landscape is None:
        return task.evaluator(config, space, None)
    fixture = config.backend_fixture
    landscape = (task.landscape(config.seed) if fixture is None
                 else json_object(backends.HiddenLandscape, fixture, "landscape fixture"))
    if landscape.optimum.shape != (space.dimension,):
        raise ConfigError(f"landscape fixture has {landscape.optimum.size} parameters; "
                          f"the {config.task} task has {space.dimension}")
    return task.evaluator(config, space, landscape)


def _shot_seeds(base_seed: int, generation: int, rows) -> list[int]:
    """Each row's shot seed: its key (base_seed, generation, row), the last two 32 bits wide."""
    return [base_seed << 64 | generation << 32 | row for row in rows]


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
    config = _read_fixture_file(config)
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
                    # the kept generations 0..k-1 are lines 1..k of the file, kept as stored
                    stored = (out_dir / RECORD_NAME).read_bytes().split(b"\n")[1:len(done) + 1]
            record_file = files.enter_context((out_dir / RECORD_NAME).open("wb"))
            record_file.writelines([_dump_line(_header_payload(config, space)),
                                    *(line + b"\n" for line in stored)])
            record_file.flush()
            del stored
            _trim_timings(out_dir / TIMINGS_NAME, len(done))
            timing_file = files.enter_context((out_dir / TIMINGS_NAME).open("ab"))

        if done:
            state = cmaes.DistributionState(**done[-1].state)

        for gen in range(len(done), config.generations):
            ticks = [time.perf_counter()]  # and the end of each phase timed in the sidecar
            points, steps = cmaes.ask(state, params)
            ticks.append(time.perf_counter())
            X = np.clip(points, 0.0, 1.0)  # evaluated in the unit cube; tell gets the raw steps
            results = _evaluate_generation(evaluate, X, config.seed, gen)
            ticks.append(time.perf_counter())
            if not any(math.isfinite(cost) for cost, _ in results):
                raise EvaluationError(f"every candidate of generation {gen} failed; "
                                      f"the first: {results[0][1]['error']}")
            state = cmaes.tell(state, params, steps, [cost for cost, _ in results])
            rec = _generation(gen, [{"x": x, "cost": cost, "meta": meta} for x, (cost, meta)
                                    in zip(space.denormalize(X).tolist(), results)],
                              json_plain(state), done[-1] if done else None)
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


def _evaluate_generation(evaluate, X: np.ndarray, seed: int, gen: int) -> list[tuple[float, dict]]:
    """(cost, metadata) of each row of X, candidates 0..n-1, from one evaluator call.

    If that call raises, each candidate is evaluated alone as a one-row
    block, and only those that raise then are failed: cost inf and an
    ``error`` in the metadata. A row whose cost is not finite is failed
    the same way.
    """
    seeds = _shot_seeds(seed, gen, range(len(X)))

    def costed(rows: np.ndarray, row_seeds: list) -> list[tuple[float, dict]]:
        results = evaluate(rows, row_seeds)
        if len(results) != len(rows):
            raise ValueError(f"{len(results)} evaluations for {len(rows)} candidates")
        return [(cost, r.metadata) if math.isfinite(cost := float(r.cost))
                else (math.inf, {**r.metadata, "error": f"cost {cost}"}) for r in results]

    try:
        return costed(X, seeds)
    except Exception:  # noqa: BLE001 - retried one candidate at a time below
        log.debug("generation %d failed as a block; evaluating candidates alone", gen,
                  exc_info=True)
    out = []
    for i in range(len(X)):
        try:
            out += costed(X[i:i + 1], seeds[i:i + 1])
        except Exception as err:  # noqa: BLE001 - a bad candidate must not kill the run
            log.warning("candidate %d of generation %d failed: %s", i, gen, err)
            out.append((float("inf"), {"error": str(err)}))
    return out


def _generation(number: int, candidates: list, state: dict,
                before: GenerationRecord | None) -> GenerationRecord:
    """A generation with its best-so-far: a candidate takes over only with a strictly lower cost."""
    best_cost, best_params = (before.best_cost, before.best_params) if before else (math.inf, [])
    for cand in candidates:
        if cand["cost"] < best_cost:
            best_cost, best_params = cand["cost"], cand["x"]
    return GenerationRecord(number, candidates, state, float(best_cost), list(best_params))


def _header_payload(config: RunConfig, space: backends.ParameterSpace) -> dict:
    payload = json_plain(config)
    # The storage location does not define the run; keeping it out of the
    # header makes records from identical configs byte-comparable.
    payload.pop("output_dir", None)
    return {
        "type": "header",
        "config": payload,
        "space": json_plain(space.entries),
        "version": RECORD_VERSION,
    }


def _generation_payload(rec: GenerationRecord) -> dict:
    """A generation as written: its candidates, a failed one's cost as null, and its state."""
    candidates = [cand if math.isfinite(cand["cost"]) else {**cand, "cost": None}
                  for cand in rec.candidates]
    return {"type": "generation", "generation": rec.generation, "candidates": candidates,
            "state": rec.state}


def _stored_candidate(cand) -> dict:
    """A candidate as loaded, exactly {x, cost, meta}: meta an object, a null cost +inf."""
    json_keys(cand, ("x", "cost", "meta"), "candidate")  # a missing key is a KeyError
    if not isinstance(cand["meta"], dict):
        raise TypeError(f"candidate meta {cand['meta']!r} is not an object")
    cost = math.inf if cand["cost"] is None else cand["cost"]  # a failed one is written null
    if not isinstance(cost, float):
        raise TypeError(f"candidate cost {cost!r} is not a float")
    return {**cand, "cost": cost}


def _is_int(value, expected: int) -> bool:
    """Whether a loaded JSON value is the integer ``expected``; 2.0 and true are not."""
    return type(value) is int and value == expected


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not strict JSON")


class _NothingStored(ConfigError):
    """No record file, or not even its header line was written in full."""


def load_record(record_dir: Path | str) -> RunRecord:
    """Load a persisted run of record version RECORD_VERSION.

    Only the final line may be torn, as a crash mid-write leaves it; it is
    dropped. A null candidate cost, as a failed candidate is written, reads
    back as +inf, and each generation's best-so-far is recomputed from the
    candidates. Any other line that is not strict JSON (NaN and Infinity
    are not), a first line that is not the header, a version or generation
    number other than the JSON integer RECORD_VERSION, k or k + 1 (line k's
    state), a header, generation line or candidate without exactly its keys,
    or a malformed config, space, candidate x row, metadata or search
    distribution (a non-finite mean or path included) raise ConfigError.
    """
    path = Path(record_dir) / RECORD_NAME
    if not path.exists():
        raise _NothingStored(f"no {RECORD_NAME} in {record_dir}")
    lines = path.read_bytes().split(b"\n")
    payloads = []
    for i, line in enumerate(lines):
        try:
            payload = json.loads(line, parse_constant=_refuse_constant)
            if not isinstance(payload, dict):
                raise ValueError("not a JSON object")
        except ValueError as err:
            if i < len(lines) - 1:
                raise ConfigError(f"{path} line {i + 1} is malformed: {err}") from None
        else:
            payloads.append(payload)
    if not payloads:
        raise _NothingStored(f"{path} has no complete header line")
    header, *rest = payloads
    if header.get("type") != "header":
        raise ConfigError(f"{path} has no header line")
    if not _is_int(header.get("version"), RECORD_VERSION):
        raise ConfigError(f"{path} header is malformed: a record of version "
                          f"{header.get('version')!r}; only version {RECORD_VERSION} can be read")
    try:
        json_keys(header, ("type", "config", "space", "version"), "header")
        config = json_object(RunConfig, header["config"], "config")
        space = backends.ParameterSpace(tuple(
            json_object(backends.SpaceEntry, entry, "space entry") for entry in header["space"]))
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path} header is malformed: {err!r}") from None
    gens: list[GenerationRecord] = []
    for k, payload in enumerate(rest):
        if payload.get("type") != "generation" or not _is_int(payload.get("generation"), k):
            raise ConfigError(f"{path} line {k + 2} is malformed: it is not generation {k}")
        try:
            json_keys(payload, ("type", "generation", "candidates", "state"), "generation line")
            candidates = [_stored_candidate(cand) for cand in payload["candidates"]]
            xs = np.array([cand["x"] for cand in candidates], dtype=float)
            if xs.shape != (len(candidates), space.dimension) or not np.isfinite(xs).all():
                raise ValueError(f"candidate x values are not finite rows of {space.dimension}")
            state = json_object(cmaes.DistributionState, payload["state"], "state")
            if state.mean.shape != (space.dimension,):
                raise ValueError(f"state mean is not of dimension {space.dimension}")
            if not _is_int(payload["state"]["generation"], k + 1):  # missing: a KeyError
                raise ValueError(f"state generation is not {k + 1}")
            gens.append(_generation(k, candidates, payload["state"], gens[-1] if gens else None))
        except (ConfigError, IndexError, KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{path} generation {k} is malformed: {err!r}") from None
    return RunRecord(config=config, space=space, generations=gens)


def _check_resumable(prior: RunRecord, config: RunConfig,
                     space: backends.ParameterSpace) -> None:
    """Refuse to continue a stored run under other settings.

    Only ``generations`` may differ, and not below the stored count:
    stored generations are never rewritten.
    """
    old, new = vars(prior.config), vars(config)
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


def _read_fixture_file(config: RunConfig) -> RunConfig:
    """The config with a landscape task's fixture file replaced by the JSON object it holds.

    The run then holds, and its header records, the device, so resume
    compares devices rather than file names. Tasks without a landscape
    ignore the fixture and keep it as given.
    """
    fixture = config.backend_fixture
    if _TASKS[config.task].landscape is None or fixture is None or isinstance(fixture, dict):
        return config
    return replace(config, backend_fixture=read_json(fixture))


def batch(config: RunConfig, repeats: int) -> BatchResult:
    """Repeat the run with derived seeds; failures do not abort the batch."""
    try:
        dqd._require_int("repeats", repeats, 1)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    config = _read_fixture_file(config)
    make_default = _TASKS[config.task].landscape
    if config.backend_fixture is None and make_default is not None:
        # The repeats model tune-ups of one sample: with its derived seed each
        # would otherwise plant a different optimum.
        config = replace(config, backend_fixture=json_plain(make_default(config.seed)))
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
        "repeats": int(repeats),
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
    config = _read_fixture_file(config)
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
        f"{rec.generation},{row},{cand['cost']!r}"
        for rec in record.generations for row, cand in enumerate(rec.candidates)]
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
