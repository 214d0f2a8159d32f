"""Closed-loop run orchestration with persisted, resumable records.

A run wires one task backend to the optimizer: ask for a generation of
points, clip them into the unit cube, evaluate them in one backend call
(each row's shot seed is its key, seed << 64 | generation << 32 | row),
tell the steps and costs back, and append one JSON line per generation to
the record file. Identical configs produce byte-identical record files;
wall-clock timings go to a separate sidecar so they never break that. A
record of version RECORD_VERSION is a header line, then per generation its
number, its state and its columns, as GenerationRecord holds them: x, the
population's rows, costs (null where failed) and meta, one object per row;
best-so-far is recomputed on load, and other versions are refused.
``generations`` is a cap: a run of deterministic costs ends where
``_stop_reason`` first names a criterion, TolFun or EqualFunValues, over
its last 10 + ceil(30 * dimension / population) stored generations, so no
stop is written. In memory a generation holds arrays, its rows x and their
costs (+inf where failed), beside each row's metadata, its least cost and
its DistributionState; ``candidates`` builds {x, cost, meta} row dicts on
access.
Record and sidecar lines are compact, key-sorted JSON that orjson writes
and reads, the same floats bit for bit; configs, fixtures, exports and the
batch aggregate stay on the standard library's json. Every object spintune
stores goes out through one writer, ``json_plain``; a user's objects and a
record's config and states come back through one reader, ``json_object``,
which refuses unknown keys. A generation line holds exactly its keys, a
header is the one its config writes, and a second run writing a directory
is refused. A config opens no file: it takes a fixture as a JSON object,
and holds, as a run records, the checked landscape's ``json_plain`` form;
it builds the task's ``space``, the run's ``landscape`` and the stop rule's
``window`` once, and a record is its config and its generations.

Errors: ConfigError for an invalid config, fixture or stored record;
EvaluationError when every candidate of a generation fails, raised before
that generation is written, so the record can be resumed once the cause is
fixed. A candidate whose evaluation raises or whose cost is not finite is
failed: cost +inf and an ``error`` in its metadata.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import logging
import math
import time
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import orjson

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
RECORD_VERSION = 8
TIMINGS_NAME = "timings.jsonl"
AGGREGATE_NAME = "aggregate.json"

_INITIAL_MEAN = 0.5
_INITIAL_SIGMA = 0.25
TOL_FUN = 1e-12


class ConfigError(Exception):
    """Invalid run configuration or missing fixture."""


class EvaluationError(Exception):
    """Every candidate of a generation failed; nothing of it was written."""


# RunConfig fields that take integers only (bools are rejected), with their ranges: a shot
# seed's key holds a generation and a row in _KEY_BITS each, a record header the seed in 64
# bits, and shots are at most what numpy's binomial draw accepts.
_KEY_BITS = 32
_INTEGER_RANGES = {"generations": (1, 2**_KEY_BITS), "population": (2, 2**_KEY_BITS),
                   "seed": (0, dqd._MAX_UINT64), "shots": (1, 2**63 - 1)}


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
    """One closed-loop optimization task.

    Built once, not fields: the task's ``space``; ``landscape``, its fixture,
    else the task's default for the seed (None where the task has none); and
    ``window``, the generations the stop rule reads, None if costs are noisy.
    """

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
        for name, (minimum, maximum) in _INTEGER_RANGES.items():
            value = getattr(self, name)
            try:
                dqd._require_int(name, value, minimum, maximum)
            except ValueError as err:
                raise ConfigError(str(err)) from None
            object.__setattr__(self, name, int(value))
        task, space = _TASKS[self.task], _TASKS[self.task].space()
        if self.backend_fixture is None:
            landscape = task.landscape and task.landscape(self.seed)
        elif task.landscape is None:
            raise ConfigError(f"the {self.task} task has no landscape; backend_fixture must be null")
        else:
            landscape = json_object(backends.HiddenLandscape, self.backend_fixture, "landscape fixture")
            if landscape.optimum.shape != (space.dimension,):
                raise ConfigError(f"landscape fixture has {landscape.optimum.size} parameters; "
                                  f"the {self.task} task has {space.dimension}")
            # the checked device's JSON: a later change to the caller's object bypasses no check
            object.__setattr__(self, "backend_fixture", json_plain(landscape))
        window = 10 + math.ceil(30 * space.dimension / self.population)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "landscape", landscape)
        object.__setattr__(self, "window", window if task.deterministic(landscape) else None)


@dataclass(frozen=True, eq=False)  # an array field has no truth value, so no generated __eq__
class GenerationRecord:
    generation: int
    x: np.ndarray
    costs: np.ndarray
    meta: list
    state: cmaes.DistributionState
    best_cost: float
    best_params: list
    least: float  # this generation's least cost, which the stop rule reads

    def __eq__(self, other):  # by value: the line's values as written, and the best-so-far
        return isinstance(other, GenerationRecord) and (
            (_generation_payload(self), self.best_cost, self.best_params)
            == (_generation_payload(other), other.best_cost, other.best_params))

    @property
    def candidates(self) -> list[dict]:  # each row a fresh {x, cost, meta}: x a list, failed inf
        return [{"x": x, "cost": cost, "meta": meta}
                for x, cost, meta in zip(self.x.tolist(), self.costs.tolist(), self.meta)]


@dataclass(frozen=True)
class RunRecord:
    config: RunConfig
    generations: list = field(default_factory=list)

    @property
    def space(self) -> backends.ParameterSpace:
        return self.config.space

    @property  # with no generation, as a record cut after its header: inf and [], as none found
    def best_cost(self) -> float:
        return self.generations[-1].best_cost if self.generations else math.inf

    @property
    def best_params(self) -> list:
        return self.generations[-1].best_params if self.generations else []

    @property
    def evaluation_count(self) -> int:
        return sum(len(g.costs) for g in self.generations)

    @property
    def stop(self) -> str | None:
        """The criterion that ended the run at its last generation; None if none holds there."""
        return _stop_reason(self.generations, self.config.window)


@dataclass(frozen=True)
class BatchResult:
    records: list
    aggregate: dict


_BENCHMARK_OPTIMUM = np.linspace(0.3, 0.7, 5)


def _benchmark_space() -> backends.ParameterSpace:
    return backends.ParameterSpace(tuple(
        backends.SpaceEntry(f"x{i}", 0.0, 1.0, "1") for i in range(5)
    ))


def _readout_evaluator(config):
    space = config.space
    f_opt = backends.optimum_init_fidelity(config.landscape, space)  # once per run, not per generation
    return lambda X, seeds: backends.readout_backend_evaluate(
        config.landscape, space, X, config.shots, shot_seeds=seeds, f_opt=f_opt)


def _shuttle_evaluator(config):
    return lambda X, seeds: backends.shuttle_backend_evaluate(
        config.landscape, X, n_shots=config.shots, shot_seeds=seeds)


def _single_qubit_evaluator(config):
    cfg = rb.RbConfig(shots_per_sequence=config.shots, seed=config.seed)
    return lambda X, seeds: rb.rb_backend_evaluate(cfg, config.space.denormalize(X), shot_seeds=seeds)


def _benchmark_evaluator(config):
    return lambda X, seeds: [backends.CostEvaluation(
        cost=float(np.sum((x - _BENCHMARK_OPTIMUM) ** 2))) for x in X]


@dataclass(frozen=True)
class _Task:
    """What makes a task: its parameters, its planted device and its cost.

    ``landscape`` builds the default landscape for a seed (None where the
    task has none). ``evaluator(config)`` returns evaluate(X, shot_seeds) on
    ``config.landscape``: it takes an (n, d) block of unit-cube candidates
    with one shot seed each, returns n CostEvaluations, and looks its
    backend up on the backend's module at every call.
    ``deterministic(landscape)``: whether its costs are free of shot noise.
    """

    space: Callable[[], backends.ParameterSpace]
    landscape: Callable[[int], backends.HiddenLandscape] | None
    evaluator: Callable
    deterministic: Callable[[backends.HiddenLandscape | None], bool]


_TASKS = {
    "readout": _Task(backends.readout_space, backends.make_readout_landscape,
                     _readout_evaluator, lambda land: not land.shot_noise),
    "shuttle": _Task(backends.shuttle_space, backends.make_shuttle_landscape,
                     _shuttle_evaluator, lambda land: not land.shot_noise),
    "single_qubit": _Task(backends.rb_space, None, _single_qubit_evaluator, lambda _: False),
    "benchmark": _Task(_benchmark_space, None, _benchmark_evaluator, lambda _: True),
}
TASKS = tuple(_TASKS)


def space_for_task(task: str) -> backends.ParameterSpace:
    if task not in _TASKS:
        raise ConfigError(f"unknown task {task!r}")
    return _TASKS[task].space()


def _make_evaluator(config: RunConfig):
    """Return evaluate(X, shot_seeds) for the configured task."""
    return _TASKS[config.task].evaluator(config)


def _stop_reason(gens: list, window: int | None) -> str | None:
    """The criterion (Hansen's tutorial, B.3) holding over the last ``window`` of ``gens``, or None.

    EqualFunValues: their least costs are equal. TolFun: those and the last
    generation's costs, where a failed row is +inf, span less than TOL_FUN.
    """
    if window is None or len(gens) < window:
        return None
    least = [gen.least for gen in gens[-window:]]
    if (low := min(least)) == (high := max(least)):
        return "EqualFunValues"
    return "TolFun" if max(high, gens[-1].costs.max()) - low < TOL_FUN else None


def _shot_seeds(base_seed: int, generation: int, rows) -> list[int]:
    """Each row's shot seed: its key (base_seed, generation, row), the last two _KEY_BITS wide."""
    head = base_seed << 2 * _KEY_BITS | generation << _KEY_BITS
    return [head | row for row in rows]


def _dump_line(payload) -> bytes:
    """One line of a record or its sidecar: compact key-sorted JSON and its newline."""
    return orjson.dumps(payload, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)


def run(config: RunConfig, resume: bool = False) -> RunRecord:
    """Execute the closed loop, appending one record line per generation.

    It ends after ``config.generations``, or earlier where ``_stop_reason``
    first names a criterion. With ``resume`` and an existing record file,
    completed generations are kept and the loop continues from the stored
    optimizer state; counter-based sampling makes the continuation
    byte-identical to an uninterrupted run, and a stopped run is kept as
    stored, whatever the cap. If every candidate of a generation fails,
    EvaluationError is raised before that generation is written.
    """
    if resume and config.output_dir is None:
        raise ConfigError("resume needs an output directory holding the record")
    space, window, evaluate = config.space, config.window, _make_evaluator(config)
    params = cmaes.StrategyParams(space.dimension, config.population, config.seed)

    done: list[GenerationRecord] = []
    with contextlib.ExitStack() as files:
        record_file = timing_file = None
        if config.output_dir is not None:
            out_dir = Path(config.output_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            record_file = files.enter_context((out_dir / RECORD_NAME).open("ab"))
            try:  # held until the run returns; the kernel releases it if the process dies
                fcntl.flock(record_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ConfigError(f"another run is writing {out_dir}") from None
            stored = [_dump_line(_header_payload(config))[:-1]]
            if resume:
                try:
                    prior = load_record(out_dir)
                except _NothingStored:
                    pass  # nothing survived to continue from: start afresh
                else:
                    _check_resumable(prior, config)
                    done = prior.generations
                    # the kept generations 0..k-1 are lines 1..k of the file, kept as stored, and
                    # so is line 0, the header, once the run has stopped: its cap no longer counts
                    lines = (out_dir / RECORD_NAME).read_bytes().split(b"\n")[:len(done) + 1]
                    if _stop_reason(done, window) is None:
                        lines[0] = stored[0]
                    stored = lines
            record_file.truncate(0)
            record_file.writelines(line + b"\n" for line in stored)
            record_file.flush()
            del stored
            _trim_timings(out_dir / TIMINGS_NAME, len(done))
            timing_file = files.enter_context((out_dir / TIMINGS_NAME).open("ab"))

        state = done[-1].state if done else cmaes.DistributionState.initial(
            np.full(space.dimension, _INITIAL_MEAN), sigma=_INITIAL_SIGMA)

        for gen in range(len(done), config.generations):
            if _stop_reason(done, window) is not None:
                break
            ticks = [time.perf_counter()]  # and the end of each phase timed in the sidecar
            points, steps = cmaes.ask(state, params)
            ticks.append(time.perf_counter())
            X = np.clip(points, 0.0, 1.0)  # evaluated in the unit cube; tell gets the raw steps
            costs, meta = zip(*_evaluate_generation(evaluate, X, config.seed, gen))
            ticks.append(time.perf_counter())
            if not np.isfinite(costs).any():
                raise EvaluationError(f"every candidate of generation {gen} failed; "
                                      f"the first: {meta[0]['error']}")
            state = cmaes.tell(state, params, steps, costs)
            rec = _generation(gen, space.denormalize(X), np.array(costs), list(meta), state,
                              done[-1] if done else None)
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

    record = RunRecord(config=config, generations=done)
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


def _generation(number: int, x: np.ndarray, costs: np.ndarray, meta: list,
                state: cmaes.DistributionState,
                before: GenerationRecord | None) -> GenerationRecord:
    """A generation with its best-so-far: the first row of least cost, if strictly lower."""
    best_cost, best_params = (before.best_cost, before.best_params) if before else (math.inf, [])
    x.flags.writeable = costs.flags.writeable = False
    if (least := costs[row := int(np.argmin(costs))]) < best_cost:
        best_cost, best_params = least, x[row].tolist()
    return GenerationRecord(number, x, costs, meta, state, float(best_cost), list(best_params),
                            float(least))


def _header_payload(config: RunConfig) -> dict:
    payload = json_plain(config)
    # The storage location does not define the run; keeping it out of the
    # header makes records from identical configs byte-comparable.
    payload.pop("output_dir", None)
    return {
        "type": "header",
        "config": payload,
        "space": json_plain(config.space.entries),
        "version": RECORD_VERSION,
    }


def _generation_payload(rec: GenerationRecord) -> dict:
    """A generation as written: its columns, a failed row's cost as null, and its state."""
    return {"type": "generation", "generation": rec.generation, "x": rec.x.tolist(),
            "costs": [cost if cost < math.inf else None for cost in rec.costs.tolist()],
            "meta": rec.meta, "state": json_plain(rec.state)}


def _is_int(value, expected: int) -> bool:
    """Whether a loaded JSON value is the integer ``expected``; 2.0 and true are not."""
    return type(value) is int and value == expected


class _NothingStored(ConfigError):
    """No record file, or not even its header line was written in full."""


def load_record(record_dir: Path | str) -> RunRecord:
    """Load a persisted run of record version RECORD_VERSION.

    Only the final line may be torn, as a crash mid-write leaves it; it is
    dropped. orjson parses each line when its turn comes; it refuses NaN,
    Infinity and a number beyond the float range, and reads an integer
    beyond 64 bits as a float, so a line with a cost of magnitude 2^63 or
    more is parsed again by ``json`` to see how that cost was spelled. A
    null cost, as a failed row is written,
    reads back as +inf; each best-so-far is recomputed. Any other line that
    is not strict JSON, a first line that is not the header, a version or
    generation number other than the JSON integer RECORD_VERSION, k or
    k + 1 (line k's state), a malformed config, a header other than the one
    it writes (so the space is the task's), a generation line without
    exactly its keys, columns not of the config's population (x rows of the
    space's dimension, costs each a finite float, a JSON number written
    with a fraction or an exponent, or null, meta each an object), a
    malformed search distribution (a non-finite mean or path, or a
    covariance with no positive eigenvalue, included), or a generation after
    the run's stop, raise ConfigError, the first damaged line's in file order.
    """
    path = Path(record_dir) / RECORD_NAME
    if not path.exists():
        raise _NothingStored(f"no {RECORD_NAME} in {record_dir}")
    lines = path.read_bytes().split(b"\n")

    def payloads():  # each line's JSON object, parsed only when its turn comes
        for i, line in enumerate(lines):
            try:
                payload = orjson.loads(line)
                if not isinstance(payload, dict):
                    raise ValueError("not a JSON object")
            except ValueError as err:
                if i < len(lines) - 1:
                    raise ConfigError(f"{path} line {i + 1} is malformed: {err}") from None
            else:
                yield payload

    stored = payloads()
    if (header := next(stored, None)) is None:
        raise _NothingStored(f"{path} has no complete header line")
    if header.get("type") != "header":
        raise ConfigError(f"{path} has no header line")
    if not _is_int(header.get("version"), RECORD_VERSION):
        raise ConfigError(f"{path} header is malformed: a record of version "
                          f"{header.get('version')!r}; only version {RECORD_VERSION} can be read")
    try:  # the header must be, as JSON values, the header its config writes
        config = json_object(RunConfig, header["config"], "config")
        written = _header_payload(config)
        items = [{(key, _dump_line(value)) for key, value in h.items()} for h in (header, written)]
        if differ := sorted({key for key, _ in items[0] ^ items[1]}):
            raise ConfigError(f"its {differ} differ from the header its config writes")
    except (ConfigError, KeyError) as err:
        raise ConfigError(f"{path} header is malformed: {err!r}") from None
    space, window = config.space, config.window
    gens: list[GenerationRecord] = []
    for k, payload in enumerate(stored):
        if payload.get("type") != "generation" or not _is_int(payload.get("generation"), k):
            raise ConfigError(f"{path} line {k + 2} is malformed: it is not generation {k}")
        if (reason := _stop_reason(gens, window)) is not None:
            raise ConfigError(f"{path} line {k + 2} is malformed: it follows the stop ({reason})")
        try:
            json_keys(payload, ("type", "generation", "x", "costs", "meta", "state"),
                      "generation line")
            x = dqd._require_reals("x", payload["x"])  # a missing column is a KeyError
            costs, meta = payload["costs"], payload["meta"]
            if x.shape != (n := config.population, space.dimension):
                raise ValueError(f"x is not {n} rows of {space.dimension}")
            if not (isinstance(costs, list) and isinstance(meta, list)
                    and len(costs) == len(meta) == n):
                raise ValueError(f"costs and meta are not lists of {n}")
            # orjson reads an integer beyond 64 bits as a float, a whole one like all
            # floats of that size; json keeps the integer an int, which is refused below
            if any(isinstance(cost, float) and abs(cost) >= 2.0**63 for cost in costs):
                costs = json.loads(lines[k + 1])["costs"]
            for cost in costs:
                if not (cost is None or isinstance(cost, float) and math.isfinite(cost)):
                    raise ValueError(f"cost {cost!r} is not a finite float (a JSON number "
                                     "written with a fraction or an exponent) or null")
            if not all(isinstance(row, dict) for row in meta):
                raise TypeError("meta holds a row that is not an object")
            state = json_object(cmaes.DistributionState, payload["state"], "state")
            state.eigensystem  # a covariance with no positive eigenvalue is a ValueError
            if state.mean.shape != (space.dimension,):
                raise ValueError(f"state mean is not of dimension {space.dimension}")
            if state.generation != k + 1:  # a missing generation is 0
                raise ValueError(f"state generation is not {k + 1}")
            costs = np.array([math.inf if cost is None else cost for cost in costs])
            gens.append(_generation(k, x, costs, meta, state, gens[-1] if gens else None))
        except (ConfigError, IndexError, KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{path} generation {k} is malformed: {err!r}") from None
    return RunRecord(config=config, generations=gens)


def _check_resumable(prior: RunRecord, config: RunConfig) -> None:
    """Refuse to continue a stored run under other settings.

    Only ``generations`` may differ, and not below the stored count:
    stored generations are never rewritten.
    """
    old, new = json_plain(prior.config), json_plain(config)
    changed = [key for key in new if key not in ("generations", "output_dir")
               and _dump_line(old[key]) != _dump_line(new[key])]
    if changed:
        raise ConfigError(f"cannot resume: the stored run differs in {', '.join(changed)}")
    if len(prior.generations) > config.generations:
        raise ConfigError(f"cannot resume: {len(prior.generations)} generations are "
                          f"stored but {config.generations} requested")


def _trim_timings(path: Path, kept: int) -> None:
    """Cut the timings sidecar, one line per generation in order, to ``kept`` lines.

    A line ends at b"\n" alone; one without it is a torn write and is dropped.
    """
    lines = path.read_bytes().split(b"\n")[:-1][:kept] if path.exists() else []
    path.write_bytes(b"".join(line + b"\n" for line in lines))


def batch(config: RunConfig, repeats: int) -> BatchResult:
    """Repeat the run with derived seeds; failures do not abort the batch."""
    try:
        dqd._require_int("repeats", repeats, 1)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if config.backend_fixture is None and config.landscape is not None:
        # The repeats model tune-ups of one sample: with its derived seed each
        # would otherwise plant a different optimum.
        config = replace(config, backend_fixture=json_plain(config.landscape))
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
    mats = [np.eye(record.space.dimension), *(rec.state.cov for rec in record.generations)]
    return analysis.CovarianceSeries(np.array(mats, dtype=float))


def evaluate_params(config: RunConfig, physical_values, shot_seed: int = 0) -> backends.CostEvaluation:
    """Evaluate one physical-unit parameter vector under a run's backend."""
    x = config.space.normalize(np.asarray(physical_values, dtype=float))
    return _make_evaluator(config)(np.clip(x, 0.0, 1.0)[None], [shot_seed])[0]


def evaluated_samples(record: RunRecord) -> tuple[np.ndarray, np.ndarray]:
    """Unit-cube rows, clipped, and costs of every candidate with a finite cost."""
    rows = np.concatenate([np.empty((0, record.space.dimension)),
                           *(gen.x for gen in record.generations)])
    costs = np.concatenate([[], *(gen.costs for gen in record.generations)])
    finite = np.isfinite(costs)
    return np.clip(record.space.normalize(rows)[finite], 0.0, 1.0), costs[finite]


def _trace_csv(record: RunRecord) -> str:
    lines = ["generation,individual,cost"] + [
        f"{rec.generation},{row},{cost!r}"
        for rec in record.generations for row, cost in enumerate(rec.costs.tolist())]
    return "\n".join(lines) + "\n"


def _covariance_json(record: RunRecord) -> str:
    series = covariance_series(record)
    return json.dumps({"generations": list(range(len(series.matrices))),
                       "matrices": series.matrices.tolist()}, sort_keys=True) + "\n"


def _best_params_json(record: RunRecord) -> str:
    cost = record.best_cost if record.best_cost < math.inf else None  # json writes no Infinity
    return json.dumps({"task": record.config.task, "names": list(record.space.names),
                       "values": record.best_params, "cost": cost}, sort_keys=True, indent=2) + "\n"


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
