import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintune import backends, harness, rb
from spintune.harness import ConfigError, RunConfig


def shot_seed(base_seed, generation, candidate_id):
    """The shot seed of one candidate: its key, packed into one integer."""
    return base_seed << 64 | generation << 32 | candidate_id


@settings(max_examples=300)
@given(keys=st.lists(st.tuples(st.integers(0, 2**128 - 1), st.integers(0, 2**32 - 1),
                               st.integers(0, 2**32 - 1)), min_size=2, max_size=20, unique=True))
def test_distinct_keys_give_distinct_shot_seeds(keys):
    seeds = [harness._shot_seeds(seed, generation, [row])[0] for seed, generation, row in keys]
    assert len(set(seeds)) == len(keys)


@settings(max_examples=20, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**128 - 1), min_size=2, max_size=2, unique=True))
def test_runs_that_differ_only_in_seed_draw_disjoint_shot_seeds(seeds):
    seen = []
    for seed in seeds:
        calls = []

        def evaluate(X, shot_seeds):
            calls.extend(shot_seeds)
            return [backends.CostEvaluation(cost=float(np.sum(x))) for x in X]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_make_evaluator", lambda config, space: evaluate)
            harness.run(benchmark_config(generations=3, population=4, seed=seed))
        assert len(set(calls)) == 12
        seen.append(set(calls))
    assert not seen[0] & seen[1]


def benchmark_config(**overrides):
    base = dict(task="benchmark", generations=6, population=4, seed=5)
    base.update(overrides)
    return RunConfig(**base)


# ------------------------------------------------------------------ run loop

def test_minimal_loop_evaluates_population_once():
    record = harness.run(RunConfig(task="benchmark", generations=1, population=2))
    assert len(record.generations) == 1
    assert record.evaluation_count == 2


def test_evaluation_count_is_generations_times_population():
    record = harness.run(benchmark_config())
    assert record.evaluation_count == 6 * 4


def test_best_cost_series_is_non_increasing():
    record = harness.run(benchmark_config(generations=20))
    series = [g.best_cost for g in record.generations]
    assert all(b <= a for a, b in zip(series, series[1:]))
    running = min(c["cost"] for g in record.generations for c in g.candidates)
    assert series[-1] == running


def test_benchmark_task_converges_to_planted_point():
    record = harness.run(benchmark_config(generations=40, population=12))
    assert record.best_cost < 1e-4
    np.testing.assert_allclose(record.best_params,
                               np.linspace(0.3, 0.7, 5), atol=0.05)


def _fail_at_seed(monkeypatch, bad_seed):
    """Make every evaluator call whose block holds ``bad_seed`` raise.

    The fault follows one candidate: it strikes the generation's block and
    then that candidate's own one-row retry.
    """
    real = harness._make_evaluator

    def faulty_factory(config, space):
        inner = real(config, space)

        def evaluate(X, shot_seeds):
            if bad_seed in shot_seeds:
                raise RuntimeError(f"synthetic backend fault at seed {bad_seed}")
            return inner(X, shot_seeds)

        return evaluate

    monkeypatch.setattr(harness, "_make_evaluator", faulty_factory)


def test_failing_candidate_is_penalized_not_fatal(monkeypatch, caplog):
    cfg = RunConfig(task="benchmark", generations=2, population=4)
    clean = harness.run(cfg)
    bad_seed = shot_seed(cfg.seed, 0, 2)
    _fail_at_seed(monkeypatch, bad_seed)
    record = harness.run(cfg)
    rows = record.generations[0].candidates
    assert [i for i, c in enumerate(rows) if c["cost"] == float("inf")] == [2]
    assert rows[2]["meta"] == {"error": f"synthetic backend fault at seed {bad_seed}"}
    assert "candidate 2 of generation 0 failed: synthetic backend fault" in caplog.text
    clean_rows = clean.generations[0].candidates
    assert rows[:2] + rows[3:] == clean_rows[:2] + clean_rows[3:]
    assert len(record.generations) == 2
    assert record.best_cost < float("inf")


def test_one_evaluator_call_per_generation(monkeypatch):
    real = harness._make_evaluator
    blocks = []

    def counting_factory(config, space):
        inner = real(config, space)

        def evaluate(X, shot_seeds):
            blocks.append((X.shape, len(shot_seeds)))
            return inner(X, shot_seeds)

        return evaluate

    monkeypatch.setattr(harness, "_make_evaluator", counting_factory)
    harness.run(benchmark_config(generations=3, population=6))
    assert blocks == [((6, 5), 6)] * 3


@pytest.mark.parametrize("task, module, name", [
    ("readout", backends, "readout_backend_evaluate"),
    ("shuttle", backends, "shuttle_backend_evaluate"),
    ("single_qubit", rb, "rb_backend_evaluate"),
])
def test_evaluators_look_up_their_backend_at_call_time(monkeypatch, task, module, name):
    # Tracing and profiling wrap these module attributes after import, so
    # an evaluator bound to the original function would bypass them.
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(list(kwargs["shot_seeds"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    record = harness.run(RunConfig(task=task, generations=2, population=5, seed=3, shots=20))
    assert len(calls) == 2
    seen = sorted(seed for call in calls for seed in call)
    assert seen == sorted(shot_seed(3, g, i) for g in range(2) for i in range(5))
    assert record.evaluation_count == 10


def test_failed_candidate_cost_is_written_as_null(tmp_path, monkeypatch):
    cfg = benchmark_config(generations=3, output_dir=str(tmp_path))
    _fail_at_seed(monkeypatch, shot_seed(cfg.seed, 1, 0))
    record = harness.run(cfg)
    assert record.generations[1].candidates[0]["cost"] == math.inf

    def no_constants(token):
        raise ValueError(f"non-JSON token {token}")

    text = (tmp_path / harness.RECORD_NAME).read_text()
    lines = [json.loads(line, parse_constant=no_constants) for line in text.splitlines()]
    costs = [c["cost"] for line in lines[1:] for c in line["candidates"]]
    assert costs.count(None) == 1 and lines[2]["candidates"][0]["cost"] is None
    assert "error" in lines[2]["candidates"][0]["meta"]
    assert harness.load_record(tmp_path).generations[1].candidates[0]["cost"] == math.inf
    # resume rewrites the stored failure with the same bytes
    (tmp_path / harness.RECORD_NAME).write_text("".join(text.splitlines(keepends=True)[:3]))
    harness.run(cfg, resume=True)
    assert (tmp_path / harness.RECORD_NAME).read_text() == text


def assert_plain(value):
    """Every leaf of a JSON value is exactly a float, int, bool, str or None."""
    if isinstance(value, dict):
        assert all(type(k) is str for k in value)
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            assert_plain(v)
    else:
        assert type(value) in (float, int, bool, str, type(None)), (value, type(value))


@pytest.mark.parametrize("task, fixture", [
    ("readout", None),
    ("readout", harness.json_plain(backends.make_readout_landscape(2, shot_noise=False))),
    ("shuttle", None),
    ("shuttle", harness.json_plain(backends.make_shuttle_landscape(2, shot_noise=True))),
    ("single_qubit", None),
    ("benchmark", None),
])
def test_backend_metadata_and_failures_are_json_plain(monkeypatch, task, fixture):
    # the harness writes metadata as the backend returns it
    cfg = RunConfig(task=task, generations=2, population=4, seed=2, shots=30,
                    backend_fixture=fixture)
    space = harness.space_for_task(task)
    X = np.random.default_rng(0).uniform(0.0, 1.0, (4, space.dimension))
    assert_plain([ev.metadata for ev in harness._make_evaluator(cfg, space)(X, [5, 6, 7, 8])])
    _fail_at_seed(monkeypatch, shot_seed(cfg.seed, 1, 2))
    record = harness.run(cfg)
    metas = [c["meta"] for gen in record.generations for c in gen.candidates]
    assert metas[6] == {"error": f"synthetic backend fault at seed {shot_seed(2, 1, 2)}"}
    assert_plain(metas)


def test_a_non_finite_cost_is_a_failed_candidate(tmp_path, monkeypatch):
    # NaN or -inf from a backend must neither win best-so-far nor reach the record
    real = harness._make_evaluator
    bad = {shot_seed(0, 0, 1): float("nan"), shot_seed(0, 1, 2): -math.inf}

    def factory(config, space):
        inner = real(config, space)
        return lambda X, seeds: [backends.CostEvaluation(bad.get(seed, ev.cost), ev.metadata)
                                 for seed, ev in zip(seeds, inner(X, seeds))]

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    monkeypatch.setattr(harness, "_make_evaluator", factory)
    record = harness.run(benchmark_config(generations=3, seed=0, output_dir=tmp_path))
    for line in (tmp_path / harness.RECORD_NAME).read_text().splitlines():
        json.loads(line, parse_constant=refuse)
    assert all(math.isfinite(gen.best_cost) for gen in record.generations)
    failed = [record.generations[0].candidates[1], record.generations[1].candidates[2]]
    assert [(c["cost"], c["meta"]) for c in failed] == [
        (math.inf, {"error": "cost nan"}), (math.inf, {"error": "cost -inf"})]
    assert harness.load_record(tmp_path).generations == record.generations


def test_evaluated_samples_are_the_finite_candidates_in_the_unit_cube(monkeypatch):
    cfg = RunConfig(task="shuttle", generations=3, population=6, seed=2)
    _fail_at_seed(monkeypatch, shot_seed(cfg.seed, 1, 3))
    record = harness.run(cfg)
    samples, costs = harness.evaluated_samples(record)
    rows = [(record.space.normalize(np.array(c["x"])), c["cost"])
            for gen in record.generations for c in gen.candidates if math.isfinite(c["cost"])]
    assert len(rows) == 17
    np.testing.assert_array_equal(samples, np.clip([x for x, _ in rows], 0.0, 1.0))
    np.testing.assert_array_equal(costs, [cost for _, cost in rows])


# -------------------------------------------------------- records and resume

def test_identical_configs_write_identical_record_bytes(tmp_path):
    cfg = benchmark_config()
    harness.run(replace(cfg, output_dir=tmp_path / "a"))
    harness.run(replace(cfg, output_dir=tmp_path / "b"))
    a = (tmp_path / "a" / harness.RECORD_NAME).read_bytes()
    b = (tmp_path / "b" / harness.RECORD_NAME).read_bytes()
    assert a == b


def test_timings_sidecar_has_one_line_per_generation(tmp_path):
    cfg = benchmark_config(output_dir=tmp_path)
    harness.run(cfg)
    lines = (tmp_path / harness.TIMINGS_NAME).read_text().splitlines()
    assert len(lines) == cfg.generations
    payload = json.loads(lines[0])
    assert payload["generation"] == 0
    assert payload["seconds"] >= 0


def test_load_record_round_trips_a_run(tmp_path):
    cfg = benchmark_config(output_dir=tmp_path)
    record = harness.run(cfg)
    loaded = harness.load_record(tmp_path)
    assert loaded.generations == record.generations
    assert loaded.space == record.space
    assert loaded.config.task == cfg.task
    assert loaded.config.seed == cfg.seed


def test_resume_after_whole_line_truncation_matches_uninterrupted(tmp_path):
    cfg = benchmark_config(output_dir=tmp_path / "full")
    harness.run(cfg)
    full = (tmp_path / "full" / harness.RECORD_NAME).read_bytes()

    part_dir = tmp_path / "part"
    part_dir.mkdir()
    lines = full.decode().splitlines(keepends=True)
    (part_dir / harness.RECORD_NAME).write_text("".join(lines[:4]))
    resumed = harness.run(replace(cfg, output_dir=part_dir), resume=True)
    assert (part_dir / harness.RECORD_NAME).read_bytes() == full
    assert len(resumed.generations) == cfg.generations


def test_resume_after_midline_truncation_matches_uninterrupted(tmp_path):
    cfg = benchmark_config(output_dir=tmp_path / "full")
    harness.run(cfg)
    full = (tmp_path / "full" / harness.RECORD_NAME).read_bytes()

    part_dir = tmp_path / "part"
    part_dir.mkdir()
    lines = full.decode().splitlines(keepends=True)
    torn = "".join(lines[:3]) + lines[3][: len(lines[3]) // 2]
    (part_dir / harness.RECORD_NAME).write_text(torn)

    salvage = harness.load_record(part_dir)
    assert len(salvage.generations) == 2  # header plus two complete lines

    harness.run(replace(cfg, output_dir=part_dir), resume=True)
    assert (part_dir / harness.RECORD_NAME).read_bytes() == full


def test_resume_on_empty_directory_is_a_fresh_run(tmp_path):
    cfg = benchmark_config(output_dir=tmp_path / "fresh")
    record = harness.run(cfg, resume=True)
    assert len(record.generations) == cfg.generations
    again = harness.run(replace(cfg, output_dir=tmp_path / "plain"))
    assert record.generations == again.generations


def stored_run(tmp_path, cfg, keep):
    """Run cfg in tmp_path/full, copy it cut to `keep` generations into tmp_path/part."""
    harness.run(replace(cfg, output_dir=tmp_path / "full"))
    full = (tmp_path / "full" / harness.RECORD_NAME).read_bytes()
    part = tmp_path / "part"
    part.mkdir()
    lines = full.decode().splitlines(keepends=True)
    (part / harness.RECORD_NAME).write_text("".join(lines[:1 + keep]))
    return full, part


@pytest.mark.parametrize("change", [
    dict(seed=99, population=8),
    dict(seed=99),
    dict(population=8),
    dict(shots=10),
    dict(task="shuttle"),
    dict(backend_fixture="elsewhere.json"),
])
def test_resume_refuses_a_changed_config(tmp_path, change):
    cfg = benchmark_config(seed=1, population=6, generations=5)
    _, part = stored_run(tmp_path, cfg, keep=3)
    stored = (part / harness.RECORD_NAME).read_bytes()
    with pytest.raises(ConfigError, match="cannot resume"):
        harness.run(replace(cfg, output_dir=part, **change), resume=True)
    assert (part / harness.RECORD_NAME).read_bytes() == stored


def test_resume_refuses_fewer_generations_than_stored(tmp_path):
    cfg = benchmark_config(generations=5)
    full, part = stored_run(tmp_path, cfg, keep=5)
    with pytest.raises(ConfigError, match="5 generations are stored but 2 requested"):
        harness.run(replace(cfg, output_dir=part, generations=2), resume=True)
    assert (part / harness.RECORD_NAME).read_bytes() == full


def test_resume_may_extend_a_finished_run(tmp_path):
    cfg = benchmark_config(generations=3)
    _, part = stored_run(tmp_path, cfg, keep=3)
    longer = replace(cfg, generations=6)
    record = harness.run(replace(longer, output_dir=part), resume=True)
    harness.run(replace(longer, output_dir=tmp_path / "long"))
    assert len(record.generations) == 6
    assert ((part / harness.RECORD_NAME).read_bytes()
            == (tmp_path / "long" / harness.RECORD_NAME).read_bytes())


def test_corrupt_middle_line_is_an_error_not_a_truncation(tmp_path):
    cfg = benchmark_config(generations=5)
    full, part = stored_run(tmp_path, cfg, keep=5)
    lines = full.decode().splitlines(keepends=True)
    lines[2] = lines[2][: len(lines[2]) // 2] + "\n"  # generation 1, torn
    (part / harness.RECORD_NAME).write_text("".join(lines))
    with pytest.raises(ConfigError, match="line 3"):
        harness.load_record(part)
    with pytest.raises(ConfigError):
        harness.run(replace(cfg, output_dir=part), resume=True)
    assert (part / harness.RECORD_NAME).read_text() == "".join(lines)


@pytest.mark.parametrize("cost", ['"0.5"', "1", "true", "{}"])
def test_a_stored_cost_must_be_a_float_or_null(tmp_path, cost):
    cfg = benchmark_config(generations=2, output_dir=str(tmp_path))
    harness.run(cfg)
    path = tmp_path / harness.RECORD_NAME
    header, gen0, gen1 = path.read_text().splitlines(keepends=True)
    first = json.loads(gen0)["candidates"][0]["cost"]
    path.write_text(header + gen0.replace(f'"cost":{first!r}', f'"cost":{cost}', 1) + gen1)
    with pytest.raises(ConfigError, match="generation 0 is malformed"):
        harness.load_record(tmp_path)
    with pytest.raises(ConfigError):
        harness.run(cfg, resume=True)


@pytest.mark.parametrize("order", [[0, 2, 3, 4], [0, 1, 1, 2], [1, 2], [0, 1, 3]])
def test_generation_numbers_must_run_from_zero_without_gaps(tmp_path, order):
    cfg = benchmark_config(generations=5)
    full, part = stored_run(tmp_path, cfg, keep=5)
    lines = full.decode().splitlines(keepends=True)
    (part / harness.RECORD_NAME).write_text(lines[0] + "".join(lines[1 + g] for g in order))
    with pytest.raises(ConfigError, match="is not generation"):
        harness.load_record(part)


def test_a_torn_header_resumes_as_a_fresh_run(tmp_path):
    cfg = benchmark_config()
    full, part = stored_run(tmp_path, cfg, keep=0)
    header = (part / harness.RECORD_NAME).read_bytes()
    for torn in (b"", header[:10]):
        (part / harness.RECORD_NAME).write_bytes(torn)
        with pytest.raises(ConfigError):
            harness.load_record(part)
        harness.run(replace(cfg, output_dir=part), resume=True)
        assert (part / harness.RECORD_NAME).read_bytes() == full


def sidecar_generations(out_dir):
    lines = (out_dir / harness.TIMINGS_NAME).read_text().splitlines()
    return [json.loads(line)["generation"] for line in lines]


def test_resume_trims_the_timings_sidecar_to_kept_generations(tmp_path):
    cfg = benchmark_config(generations=5, output_dir=tmp_path)
    harness.run(cfg)
    lines = (tmp_path / harness.RECORD_NAME).read_text().splitlines(keepends=True)
    (tmp_path / harness.RECORD_NAME).write_text("".join(lines[:3]))
    harness.run(cfg, resume=True)
    assert sidecar_generations(tmp_path) == [0, 1, 2, 3, 4]

    # a torn last sidecar line is dropped too
    timings = (tmp_path / harness.TIMINGS_NAME).read_text()
    (tmp_path / harness.TIMINGS_NAME).write_text(timings[: len(timings) - 5])
    (tmp_path / harness.RECORD_NAME).write_text("".join(lines))
    harness.run(cfg, resume=True)
    assert sidecar_generations(tmp_path) == [0, 1, 2, 3]


@pytest.fixture(scope="module")
def small_records(tmp_path_factory):
    """Name -> (config, failing shot seed or None, record bytes, timings bytes) of short runs.

    One is a plain benchmark run; the other a shot-noise shuttle run, whose
    metadata is not empty, with one failed candidate.
    """
    noisy = harness.json_plain(backends.make_shuttle_landscape(3, shot_noise=True))
    runs = {
        "benchmark": (RunConfig(task="benchmark", generations=3, population=2, seed=4), None),
        "shuttle": (RunConfig(task="shuttle", generations=3, population=3, seed=3, shots=300,
                              backend_fixture=noisy), shot_seed(3, 1, 2)),
    }
    records = {}
    for name, (cfg, bad_seed) in runs.items():
        out = tmp_path_factory.mktemp(name)
        with pytest.MonkeyPatch.context() as mp:
            if bad_seed is not None:
                _fail_at_seed(mp, bad_seed)
            harness.run(replace(cfg, output_dir=out))
        records[name] = (cfg, bad_seed, (out / harness.RECORD_NAME).read_bytes(),
                         (out / harness.TIMINGS_NAME).read_bytes())
    assert b'"cost":null' in records["shuttle"][2] and b'"shots":' in records["shuttle"][2]
    return records


@given(data=st.data())
def test_resume_from_any_truncation_restores_the_uninterrupted_bytes(small_records, data):
    name = data.draw(st.sampled_from(sorted(small_records)), label="record")
    cfg, bad_seed, full, timings = small_records[name]
    cut = data.draw(st.integers(0, len(full)), label="cut")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if bad_seed is not None:
            _fail_at_seed(mp, bad_seed)
        out = Path(tmp)
        (out / harness.RECORD_NAME).write_bytes(full[:cut])
        (out / harness.TIMINGS_NAME).write_bytes(timings)
        harness.run(replace(cfg, output_dir=out), resume=True)
        assert (out / harness.RECORD_NAME).read_bytes() == full
        assert sidecar_generations(out) == list(range(cfg.generations))


def test_timings_split_each_generation_into_its_phases(tmp_path):
    cfg = RunConfig(task="shuttle", generations=4, population=6, seed=1)
    for out in ("a", "b"):
        harness.run(replace(cfg, output_dir=tmp_path / out))
    record = (tmp_path / "a" / harness.RECORD_NAME).read_bytes()
    assert record == (tmp_path / "b" / harness.RECORD_NAME).read_bytes()
    header, *lines = [json.loads(line) for line in record.splitlines()]
    assert header["version"] == harness.RECORD_VERSION == 3
    assert {key for line in lines for key in line} == {
        "type", "generation", "candidates", "state"}
    assert {key for line in lines for cand in line["candidates"] for key in cand} == {
        "x", "cost", "meta"}
    assert {key for line in lines for cand in line["candidates"] for key in cand["meta"]} == {
        "p"}
    for line in (tmp_path / "a" / harness.TIMINGS_NAME).read_text().splitlines():
        timing = json.loads(line)
        phases = [timing.pop(f"{phase}_s") for phase in ("ask", "evaluate", "tell", "persist")]
        assert set(timing) == {"generation", "seconds"}
        assert min(phases) >= 0.0 and sum(phases) <= timing["seconds"]


def test_resume_copies_kept_lines_and_rewrites_only_a_non_finite_cost(tmp_path, monkeypatch):
    cfg = benchmark_config(generations=5, output_dir=tmp_path)
    _fail_at_seed(monkeypatch, shot_seed(cfg.seed, 1, 0))
    harness.run(cfg)
    full = (tmp_path / harness.RECORD_NAME).read_bytes()
    header, gen0, gen1, *rest = full.splitlines(keepends=True)
    assert b'"cost":null' in gen1
    # generation 0 spaced and with its keys reversed still loads, and stays as stored
    spaced = (json.dumps(dict(reversed(json.loads(gen0).items()))) + "\n").encode()
    assert spaced != gen0 and json.loads(spaced) == json.loads(gen0)
    (tmp_path / harness.RECORD_NAME).write_bytes(header + spaced + gen1 + rest[0])
    harness.run(cfg, resume=True)
    assert (tmp_path / harness.RECORD_NAME).read_bytes() == header + spaced + gen1 + b"".join(rest)
    # a failure stored as the non-JSON token Infinity is refused, and the file left as it is
    legacy = header + gen0 + gen1.replace(b'"cost":null', b'"cost":Infinity') + rest[0]
    (tmp_path / harness.RECORD_NAME).write_bytes(legacy)
    with pytest.raises(ConfigError, match="line 3 is malformed: Infinity"):
        harness.run(cfg, resume=True)
    assert (tmp_path / harness.RECORD_NAME).read_bytes() == legacy


def test_resume_encodes_only_the_header_and_the_new_generations(tmp_path, monkeypatch):
    cfg = benchmark_config(generations=6)
    full, part = stored_run(tmp_path, cfg, keep=4)
    encoded = []
    real = harness._dump_line

    def counting(payload):
        if isinstance(payload, dict) and "type" in payload:
            encoded.append((payload["type"], payload.get("generation")))
        return real(payload)

    monkeypatch.setattr(harness, "_dump_line", counting)
    harness.run(replace(cfg, output_dir=part), resume=True)
    assert (part / harness.RECORD_NAME).read_bytes() == full
    assert encoded == [("header", None), ("generation", 4), ("generation", 5)]


def test_record_bytes_do_not_depend_on_output_location(tmp_path):
    cfg = benchmark_config()
    harness.run(replace(cfg, output_dir=tmp_path / "deep" / "nested"))
    harness.run(replace(cfg, output_dir=tmp_path / "flat"))
    a = (tmp_path / "deep" / "nested" / harness.RECORD_NAME).read_bytes()
    b = (tmp_path / "flat" / harness.RECORD_NAME).read_bytes()
    assert a == b


# -------------------------------------------------------------------- batch

def test_batch_of_one_is_a_plain_run():
    cfg = RunConfig(task="readout", generations=5, population=6, seed=9, shots=200)
    result = harness.batch(cfg, repeats=1)
    direct = harness.run(cfg)
    assert result.records[0].generations == direct.generations
    assert result.aggregate["best_costs"] == [direct.best_cost]


def test_batch_repeats_share_one_planted_landscape():
    cfg = RunConfig(task="readout", generations=3, population=4, seed=6, shots=100)
    result = harness.batch(cfg, repeats=3)
    fixtures = [r.config.backend_fixture for r in result.records]
    assert fixtures[0] == fixtures[1] == fixtures[2]
    seeds = [row["seed"] for row in result.aggregate["runs"]]
    assert len(set(seeds)) == 3
    assert seeds[0] == cfg.seed


def test_batch_aggregate_is_reproducible_bytes(tmp_path):
    cfg = RunConfig(task="readout", generations=3, population=4, seed=12,
                    shots=100, output_dir=tmp_path / "a")
    harness.batch(cfg, repeats=3)
    harness.batch(replace(cfg, output_dir=tmp_path / "b"), repeats=3)
    a = (tmp_path / "a" / harness.AGGREGATE_NAME).read_bytes()
    b = (tmp_path / "b" / harness.AGGREGATE_NAME).read_bytes()
    assert a == b
    assert (tmp_path / "a" / "run_002" / harness.RECORD_NAME).exists()


def test_batch_isolates_a_failing_repeat(monkeypatch):
    real = harness.run

    def flaky(config, resume=False):
        if config.seed != 7:
            raise RuntimeError("device dropped out")
        return real(config, resume)

    monkeypatch.setattr(harness, "run", flaky)
    result = harness.batch(
        RunConfig(task="benchmark", generations=2, population=4, seed=7), repeats=3)
    assert result.records[0] is not None
    assert result.records[1] is None and result.records[2] is None
    errors = [row for row in result.aggregate["runs"] if "error" in row]
    assert len(errors) == 2
    assert len(result.aggregate["best_costs"]) == 1


def test_batch_rejects_nonpositive_repeats():
    for repeats in (0, True, 2.5, "3"):
        with pytest.raises(ConfigError, match="repeats"):
            harness.batch(benchmark_config(), repeats=repeats)


def test_repeated_readout_tuneups_land_in_a_narrow_band():
    cfg = RunConfig(task="readout", generations=15, population=150,
                    seed=2024, shots=10000)
    result = harness.batch(cfg, repeats=44)
    costs = result.aggregate["best_costs"]
    assert len(costs) == 44
    assert result.aggregate["band_width"] == pytest.approx(max(costs) - min(costs))
    assert result.aggregate["band_width"] <= 0.05


# ------------------------------------------------------------------- export

def test_trace_export_lists_every_evaluation(tmp_path):
    record = harness.run(RunConfig(task="benchmark", generations=2, population=3))
    path = harness.export(record, "trace", tmp_path / "trace.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,individual,cost"
    assert len(lines) == 1 + 2 * 3
    gen, cand, cost = lines[1].split(",")
    assert (gen, cand) == ("0", "0")
    float(cost)


def test_covariance_export_starts_from_identity(tmp_path):
    record = harness.run(benchmark_config())
    path = harness.export(record, "covariance", tmp_path / "cov.json")
    payload = json.loads(path.read_text())
    assert payload["generations"][0] == 0
    np.testing.assert_array_equal(np.array(payload["matrices"][0]), np.eye(5))
    assert len(payload["matrices"]) == 6 + 1


def test_export_rejects_grid_requests(tmp_path):
    record = harness.run(RunConfig(task="benchmark", generations=1, population=2))
    with pytest.raises(ValueError):
        harness.export(record, "grid", tmp_path / "grid.csv")


def test_best_params_export_reevaluates_to_recorded_cost(tmp_path):
    cfg = RunConfig(task="readout", generations=30, population=20, seed=3, shots=1000)
    record = harness.run(cfg)
    path = harness.export(record, "best_params", tmp_path / "best.json")
    payload = json.loads(path.read_text())
    assert payload["task"] == "readout"
    assert payload["names"] == list(record.space.names)

    check = harness.evaluate_params(cfg, payload["values"], shot_seed=0)
    visibility = -payload["cost"]
    sigma = math.sqrt(max(1e-12, 1.0 - visibility**2) / cfg.shots)
    assert abs(check.cost - payload["cost"]) <= 6 * sigma


def test_noiseless_task_reevaluates_exactly():
    cfg = RunConfig(task="shuttle", generations=20, population=10, seed=1)
    record = harness.run(cfg)
    check = harness.evaluate_params(cfg, record.best_params)
    assert check.cost == pytest.approx(record.best_cost, abs=1e-12)


def test_evaluate_params_reads_a_fixture_file_as_the_object_it_holds(tmp_path):
    land = backends.make_shuttle_landscape(4, shot_noise=True)
    (tmp_path / "device.json").write_text(json.dumps(harness.json_plain(land)))
    cfg = RunConfig(task="shuttle", generations=1, population=2, shots=200)
    values = backends.shuttle_space().denormalize(np.full(8, 0.4))
    by_file = harness.evaluate_params(
        replace(cfg, backend_fixture=tmp_path / "device.json"), values, shot_seed=3)
    inline = harness.evaluate_params(
        replace(cfg, backend_fixture=harness.json_plain(land)), values, shot_seed=3)
    assert by_file == inline
    assert by_file != harness.evaluate_params(cfg, values, shot_seed=3)


# ------------------------------------------------------------- config errors

def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        RunConfig(task="tea_making", generations=5, population=4)
    with pytest.raises(ConfigError):
        RunConfig(task="readout", generations=0, population=4)
    with pytest.raises(ConfigError):
        RunConfig(task="readout", generations=5, population=1)
    with pytest.raises(ConfigError):
        RunConfig(task="readout", generations=5, population=4, shots=0)


def test_config_from_dict_requires_core_keys():
    with pytest.raises(ConfigError):
        harness.json_object(RunConfig, {"task": "readout", "generations": 5}, "config")


@pytest.mark.parametrize("key, value", [
    ("generations", "three"), ("generations", 2.0), ("generations", 1e400),
    ("generations", True), ("population", 4.7), ("population", "4"),
    ("seed", -1), ("seed", None), ("seed", False), ("shots", None), ("shots", [10]),
])
def test_config_takes_integers_only_and_a_non_negative_seed(key, value):
    payload = {"task": "benchmark", "generations": 2, "population": 4, key: value}
    with pytest.raises(ConfigError, match=key):
        harness.json_object(RunConfig, payload, "config")
    with pytest.raises(ConfigError, match=key):
        RunConfig(**payload)


@pytest.mark.parametrize("payload", [[], ["task"], "benchmark", 3, None])
def test_config_from_dict_needs_an_object(payload):
    with pytest.raises(ConfigError, match="JSON object"):
        harness.json_object(RunConfig, payload, "config")


def test_config_keeps_integers_as_python_ints():
    cfg = harness.json_object(RunConfig, {"task": "benchmark", "generations": np.int64(2),
                                          "population": 4, "seed": 0}, "config")
    assert type(cfg.generations) is int
    assert cfg == RunConfig(task="benchmark", generations=2, population=4)


def test_config_from_json_errors_are_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        harness.json_object(RunConfig, harness.read_json(tmp_path / "missing.json"), "config")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        harness.json_object(RunConfig, harness.read_json(bad), "config")


def test_missing_fixture_file_is_a_config_error(tmp_path):
    cfg = RunConfig(task="readout", generations=2, population=4,
                    backend_fixture=str(tmp_path / "absent.json"))
    with pytest.raises(ConfigError):
        harness.run(cfg)


def test_a_fixture_file_is_recorded_as_the_device_it_holds(tmp_path):
    land = backends.make_shuttle_landscape(3, shot_noise=True)
    (tmp_path / "device.json").write_text(json.dumps(harness.json_plain(land)))
    cfg = RunConfig(task="shuttle", generations=3, population=4, seed=2, shots=50)
    harness.run(replace(cfg, backend_fixture=tmp_path / "device.json",
                        output_dir=tmp_path / "file"))
    harness.run(replace(cfg, backend_fixture=harness.json_plain(land),
                        output_dir=tmp_path / "inline"))
    record = (tmp_path / "file" / harness.RECORD_NAME).read_bytes()
    assert record == (tmp_path / "inline" / harness.RECORD_NAME).read_bytes()
    assert harness.load_record(tmp_path / "file").config.backend_fixture == harness.json_plain(land)


def test_malformed_inline_fixture_is_a_config_error():
    cfg = RunConfig(task="readout", generations=2, population=4,
                    backend_fixture={"kind": "bogus"})
    with pytest.raises(ConfigError):
        harness.run(cfg)


def test_load_record_requires_header_and_file(tmp_path):
    with pytest.raises(ConfigError):
        harness.load_record(tmp_path)
    headerless = tmp_path / harness.RECORD_NAME
    headerless.write_text('{"type":"note"}\n')
    with pytest.raises(ConfigError):
        harness.load_record(tmp_path)
