import fcntl
import gc
import json
import math
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spintune import backends, harness, rb
from spintune.cli import main
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
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2, unique=True))
def test_runs_that_differ_only_in_seed_draw_disjoint_shot_seeds(seeds):
    seen = []
    for seed in seeds:
        calls = []

        def evaluate(X, shot_seeds):
            calls.extend(shot_seeds)
            return [backends.CostEvaluation(cost=float(np.sum(x))) for x in X]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_make_evaluator", lambda config: evaluate)
            harness.run(benchmark_config(generations=3, population=4, seed=seed))
        assert len(set(calls)) == 12
        seen.append(set(calls))
    assert not seen[0] & seen[1]


def written(record):
    """A record's generation lines as written and its best-so-far series, to compare two records."""
    return ([harness._dump_line(harness._generation_payload(gen)) for gen in record.generations],
            [(gen.best_cost, gen.best_params) for gen in record.generations])


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


def test_best_so_far_is_the_first_row_of_least_cost_if_strictly_lower(tmp_path, monkeypatch):
    # ties go to the earlier row, and -0.0 does not displace a best of 0.0
    table = [[0.5, 0.0, 0.0, 0.5], [-0.0, 0.0, 1.0, -0.0], [math.nan, -1.0, -1.0, 2.0]]
    costs = {shot_seed(5, g, row): cost for g, line in enumerate(table)
             for row, cost in enumerate(line)}
    monkeypatch.setattr(harness, "_make_evaluator", lambda config: lambda X, seeds: [
        backends.CostEvaluation(costs[seed]) for seed in seeds])
    record = harness.run(benchmark_config(generations=3, output_dir=tmp_path))
    for rec in (record, harness.load_record(tmp_path)):
        best = [(gen.best_cost, gen.best_params) for gen in rec.generations]
        rows = [gen.candidates for gen in rec.generations]
        assert best == [(0.0, rows[0][1]["x"])] * 2 + [(-1.0, rows[2][1]["x"])]
        assert math.copysign(1.0, rec.generations[1].best_cost) == 1.0


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

    def faulty_factory(config):
        inner = real(config)

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

    def counting_factory(config):
        inner = real(config)

        def evaluate(X, shot_seeds):
            blocks.append((X.shape, len(shot_seeds)))
            return inner(X, shot_seeds)

        return evaluate

    monkeypatch.setattr(harness, "_make_evaluator", counting_factory)
    harness.run(benchmark_config(generations=3, population=6))
    assert blocks == [((6, 5), 6)] * 3


def test_a_block_short_of_one_result_is_retried_row_by_row(monkeypatch):
    cfg = benchmark_config(generations=2)
    clean = harness.run(cfg)
    real = harness._make_evaluator
    blocks = []

    def short_factory(config):
        inner = real(config)

        def evaluate(X, shot_seeds):
            blocks.append(len(X))
            return inner(X, shot_seeds)[:max(len(X) - 1, 1)]

        return evaluate

    monkeypatch.setattr(harness, "_make_evaluator", short_factory)
    record = harness.run(cfg)
    assert blocks == [4, 1, 1, 1, 1] * 2
    assert written(record) == written(clean)


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


def test_a_single_qubit_run_draws_its_sequences_once(monkeypatch):
    real, calls = rb.rb_sequences, []

    def counting(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(rb, "rb_sequences", counting)
    record = harness.run(RunConfig(task="single_qubit", generations=5, population=6, seed=2,
                                   shots=20))
    assert record.evaluation_count == 30
    assert len(calls) == 1


def test_a_noisy_decay_curve_at_a_gate_loops_best_pulse_is_drawn():
    # seed 18's best pulse has a return probability just above 1 when rounded
    config = RunConfig(task="single_qubit", generations=40, population=14, seed=18, shots=100)
    record = harness.run(config)
    lengths = [1, 3, 6, 10, 16, 24, 40, 60, 90, 140, 200, 300]
    curve = rb.rb_decay_curve(rb.RbConfig(shots_per_sequence=100, seed=18),
                              np.array(record.best_params), lengths, shot_seed=18)
    assert np.all((curve >= 0.0) & (curve <= 1.0))


def test_failed_candidate_cost_is_written_as_null(tmp_path, monkeypatch):
    cfg = benchmark_config(generations=3, output_dir=str(tmp_path))
    _fail_at_seed(monkeypatch, shot_seed(cfg.seed, 1, 0))
    record = harness.run(cfg)
    assert record.generations[1].costs[0] == math.inf

    def no_constants(token):
        raise ValueError(f"non-JSON token {token}")

    text = (tmp_path / harness.RECORD_NAME).read_text()
    lines = [json.loads(line, parse_constant=no_constants) for line in text.splitlines()]
    costs = [cost for line in lines[1:] for cost in line["costs"]]
    assert costs.count(None) == 1 and lines[2]["costs"][0] is None
    assert "error" in lines[2]["meta"][0]
    assert harness.load_record(tmp_path).generations[1].costs[0] == math.inf
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
    ("readout", harness.json_plain(replace(backends.make_readout_landscape(2), shot_noise=False))),
    ("shuttle", None),
    ("shuttle", harness.json_plain(replace(backends.make_shuttle_landscape(2), shot_noise=True))),
    ("single_qubit", None),
    ("benchmark", None),
])
def test_backend_metadata_and_failures_are_json_plain(monkeypatch, task, fixture):
    # the harness writes metadata as the backend returns it
    cfg = RunConfig(task=task, generations=2, population=4, seed=2, shots=30,
                    backend_fixture=fixture)
    space = cfg.space
    X = np.random.default_rng(0).uniform(0.0, 1.0, (4, space.dimension))
    assert_plain([ev.metadata for ev in harness._make_evaluator(cfg)(X, [5, 6, 7, 8])])
    _fail_at_seed(monkeypatch, shot_seed(cfg.seed, 1, 2))
    record = harness.run(cfg)
    metas = [c["meta"] for gen in record.generations for c in gen.candidates]
    assert metas[6] == {"error": f"synthetic backend fault at seed {shot_seed(2, 1, 2)}"}
    assert_plain(metas)


def test_a_non_finite_cost_is_a_failed_candidate(tmp_path, monkeypatch):
    # NaN or -inf from a backend must neither win best-so-far nor reach the record
    real = harness._make_evaluator
    bad = {shot_seed(0, 0, 1): float("nan"), shot_seed(0, 1, 2): -math.inf}

    def factory(config):
        inner = real(config)
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
    assert written(harness.load_record(tmp_path)) == written(record)


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
    assert written(loaded) == written(record)
    assert loaded.space == record.space
    assert loaded.config.task == cfg.task
    assert loaded.config.seed == cfg.seed


def test_a_record_is_its_config_and_its_generations(tmp_path):
    assert [f.name for f in fields(harness.RunRecord)] == ["config", "generations"]
    assert [f.name for f in fields(RunConfig)] == ["task", "generations", "population", "seed",
                                                   "shots", "backend_fixture", "output_dir"]
    record = harness.run(benchmark_config(output_dir=tmp_path))
    for rec in (record, harness.load_record(tmp_path)):
        assert rec.space is rec.config.space


def test_a_record_cut_after_its_header_has_no_best(tmp_path):
    # a crash right after the header write leaves it; its exports are still strict JSON
    harness.run(RunConfig(task="shuttle", generations=2, population=4, seed=1, output_dir=tmp_path))
    path = tmp_path / harness.RECORD_NAME
    path.write_bytes(path.read_bytes().split(b"\n")[0] + b"\n")
    record = harness.load_record(tmp_path)
    assert (record.stop, record.evaluation_count) == (None, 0)
    assert (record.best_cost, record.best_params) == (math.inf, [])
    exported = {what: harness.export(record, what, tmp_path / name).read_bytes()
                for what, (name, _) in harness.EXPORTS.items()}
    assert exported.pop("trace") == b"generation,individual,cost\n"
    parsed = {what: orjson.loads(data) for what, data in exported.items()}
    assert parsed["best_params"]["cost"] is None and parsed["best_params"]["values"] == []
    assert parsed["covariance"]["matrices"] == [np.eye(record.space.dimension).tolist()]


def test_generations_compare_by_value(tmp_path):
    record = harness.run(benchmark_config(output_dir=tmp_path))
    assert harness.load_record(tmp_path).generations == record.generations
    assert harness.run(benchmark_config(seed=6)).generations != record.generations
    gen = record.generations[-1]
    assert gen == replace(gen, x=gen.x.copy(), meta=[dict(m) for m in gen.meta])
    for changed in (replace(gen, x=gen.x + 1e-12), replace(gen, costs=gen.costs + 1.0),
                    replace(gen, meta=[{"p": 1.0}] * len(gen.meta)),
                    replace(gen, state=record.generations[-2].state),
                    replace(gen, best_cost=gen.best_cost + 1.0), replace(gen, generation=0)):
        assert gen != changed
    assert gen != gen.candidates and gen != None  # noqa: E711 - no other type is equal


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
    assert written(record) == written(again)


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


def test_resume_without_an_output_directory_is_refused_before_evaluating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a candidate was evaluated")

    monkeypatch.setattr(harness, "_evaluate_generation", never)
    with pytest.raises(ConfigError, match="resume needs an output directory"):
        harness.run(benchmark_config(generations=2), resume=True)


def test_a_second_writer_is_refused_and_changes_nothing(tmp_path, capsys):
    full, out = stored_run(tmp_path, benchmark_config(generations=5), keep=2)
    cfg = benchmark_config(generations=5, output_dir=out)
    files = [out / harness.RECORD_NAME, out / harness.TIMINGS_NAME]
    files[1].write_bytes((tmp_path / "full" / harness.TIMINGS_NAME).read_bytes())
    before = [path.read_bytes() for path in files]
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"task": "benchmark", "generations": 5, "population": 4,
                                       "seed": 5}))
    with (out / harness.RECORD_NAME).open("rb") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        for resume in (True, False):
            with pytest.raises(ConfigError, match="another run is writing"):
                harness.run(cfg, resume=resume)
        capsys.readouterr()
        assert main(["run", "--config", str(config_file), "--out", str(out), "--resume"]) == 2
        assert "another run is writing" in capsys.readouterr().err
        assert [path.read_bytes() for path in files] == before
    harness.run(cfg, resume=True)
    assert (out / harness.RECORD_NAME).read_bytes() == full


def test_a_killed_writer_leaves_no_lock(tmp_path):
    full, out = stored_run(tmp_path, benchmark_config(generations=5), keep=3)
    cfg = benchmark_config(generations=5, output_dir=out)
    holder = subprocess.Popen(
        [sys.executable, "-c", "import fcntl, sys, time; f = open(sys.argv[1], 'ab'); "
         "fcntl.flock(f, fcntl.LOCK_EX); print(flush=True); time.sleep(60)",
         str(out / harness.RECORD_NAME)], stdout=subprocess.PIPE)
    try:
        holder.stdout.readline()  # the child holds the lock
        with pytest.raises(ConfigError, match="another run is writing"):
            harness.run(cfg, resume=True)
    finally:
        holder.kill()  # SIGKILL: the child gets no chance to unlock
        holder.wait()
        holder.stdout.close()
    harness.run(cfg, resume=True)
    assert (out / harness.RECORD_NAME).read_bytes() == full


def test_corrupt_middle_line_is_an_error_not_a_truncation(tmp_path, capsys):
    cfg = benchmark_config(generations=5)
    full, part = stored_run(tmp_path, cfg, keep=5)
    (tmp_path / "run.json").write_text(json.dumps(
        {"task": "benchmark", "generations": 5, "population": 4, "seed": 5}))
    lines = full.decode().splitlines(keepends=True)
    # generation 1 torn, then written as JSON that is no object
    for damaged in (lines[2][: len(lines[2]) // 2] + "\n", "[]\n"):
        lines[2] = damaged
        (part / harness.RECORD_NAME).write_text("".join(lines))
        with pytest.raises(ConfigError, match="line 3"):
            harness.load_record(part)
        with pytest.raises(ConfigError):
            harness.run(replace(cfg, output_dir=part), resume=True)
        for command in (["analyze", "--record", str(part)],
                        ["run", "--config", str(tmp_path / "run.json"), "--out", str(part),
                         "--resume"]):
            assert main(command) == 2
            assert "line 3 is malformed" in capsys.readouterr().err
        assert (part / harness.RECORD_NAME).read_text() == "".join(lines)


@pytest.mark.parametrize("cost", ['"0.5"', "1", "true", "{}"])
def test_a_stored_cost_must_be_a_float_or_null(tmp_path, cost):
    cfg = benchmark_config(generations=2, output_dir=str(tmp_path))
    harness.run(cfg)
    path = tmp_path / harness.RECORD_NAME
    header, gen0, gen1 = path.read_text().splitlines(keepends=True)
    first = json.loads(gen0)["costs"][0]
    path.write_text(header + gen0.replace(f'"costs":[{first!r}', f'"costs":[{cost}', 1) + gen1)
    wording = "is not a finite float (a JSON number written with a fraction or an exponent) or null"
    with pytest.raises(ConfigError, match=f"generation 0 is malformed.*{re.escape(wording)}"):
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
    noisy = harness.json_plain(replace(backends.make_shuttle_landscape(3), shot_noise=True))
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
    assert b',null],"generation":1,' in records["shuttle"][2]  # its row 2 of generation 1
    assert b'"shots":' in records["shuttle"][2]
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


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_record_with_one_byte_changed_loads_or_is_a_config_error(small_records, data):
    _, _, full, _ = small_records["shuttle"]  # a noisy shuttle record with a failed row
    at = data.draw(st.integers(0, len(full) - 1), label="at")
    flip = data.draw(st.integers(1, 255), label="xor")
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / harness.RECORD_NAME).write_bytes(
            full[:at] + bytes([full[at] ^ flip]) + full[at + 1:])
        try:
            record = harness.load_record(tmp)
        except ConfigError:
            return
    for gen in record.generations:
        assert gen.x.shape == (len(gen.costs), record.space.dimension) == (len(gen.meta), 8)
        assert not np.isnan(gen.costs).any() and gen.state.generation == gen.generation + 1


@pytest.mark.parametrize("kept", [
    [b'{"generation":0,"note":"\xff"}'],  # not UTF-8
    # separators that str.splitlines splits at, and bytes.split(b"\n") does not
    [b"{}", "\r\x0b\x1c\u2028".encode(), b"{}"],
])
def test_resume_cuts_the_sidecar_at_newlines_whatever_bytes_it_holds(tmp_path, kept):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": "benchmark", "generations": 5, "population": 4}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    full = (out / harness.RECORD_NAME).read_bytes()
    header_and_kept = full.splitlines(keepends=True)[:1 + len(kept)]
    (out / harness.RECORD_NAME).write_bytes(b"".join(header_and_kept))
    (out / harness.TIMINGS_NAME).write_bytes(b"".join(line + b"\n" for line in kept) + b"torn")
    assert main(["run", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert (out / harness.RECORD_NAME).read_bytes() == full
    lines = (out / harness.TIMINGS_NAME).read_bytes().split(b"\n")
    assert lines[:len(kept)] == kept and lines[-1] == b""
    assert [json.loads(line)["generation"] for line in lines[len(kept):-1]] == list(
        range(len(kept), 5))


def tracked_objects(root) -> int:
    """How many objects that the garbage collector tracks ``root`` reaches, classes not followed."""
    seen, todo, count = {id(root)}, [root], 0
    while todo:
        obj = todo.pop()
        count += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, type):
                seen.add(id(ref))
                todo.append(ref)
    return count


def test_a_record_holds_a_bounded_number_of_tracked_objects_per_generation(tmp_path):
    # each candidate held as a dict and an x list made a full collection walk every one
    cfg = RunConfig(task="shuttle", generations=200, population=50, seed=5, output_dir=tmp_path)
    for record in (harness.run(cfg), harness.load_record(tmp_path)):
        assert tracked_objects(record) <= 8 * len(record.generations)


@pytest.mark.parametrize("task, bad_seed", [("shuttle", shot_seed(4, 2, 1)), ("readout", None)])
def test_each_generation_re_encodes_to_its_stored_line(tmp_path, monkeypatch, task, bad_seed):
    # the readout task's default device is noisy: its metadata holds the shot counts
    cfg = RunConfig(task=task, generations=4, population=5, seed=4, shots=200,
                    output_dir=tmp_path)
    if bad_seed is not None:
        _fail_at_seed(monkeypatch, bad_seed)
    record = harness.run(cfg)
    _, *stored = (tmp_path / harness.RECORD_NAME).read_bytes().splitlines(keepends=True)
    loaded = harness.load_record(tmp_path)
    for rec in (record, loaded):
        assert [harness._dump_line(harness._generation_payload(gen))
                for gen in rec.generations] == stored
        # the columns: each line's x rows, its costs with a failed one +inf, and its meta
        lines = [orjson.loads(line) for line in stored]
        assert [(gen.x.tolist(), gen.costs.tolist(), gen.meta) for gen in rec.generations] == [
            (line["x"], [math.inf if cost is None else cost for cost in line["costs"]],
             line["meta"]) for line in lines]
        # candidates: the same rows as {x, cost, meta} dicts
        cands = [cand for gen in rec.generations for cand in gen.candidates]
        assert cands == [{"x": x, "cost": cost, "meta": meta} for gen in rec.generations
                         for x, cost, meta in zip(gen.x.tolist(), gen.costs.tolist(), gen.meta)]
        assert {(type(cand["x"]), type(cand["cost"])) for cand in cands} == {(list, float)}
        failed = [cand for cand in cands if cand["cost"] == math.inf]
        assert len(failed) == (bad_seed is not None)
        assert all("error" in cand["meta"] for cand in failed)
    assert all("shots" in cand["meta"] for cand in cands) == (task == "readout")


def test_timings_split_each_generation_into_its_phases(tmp_path):
    cfg = RunConfig(task="shuttle", generations=4, population=6, seed=1)
    for out in ("a", "b"):
        harness.run(replace(cfg, output_dir=tmp_path / out))
    record = (tmp_path / "a" / harness.RECORD_NAME).read_bytes()
    assert record == (tmp_path / "b" / harness.RECORD_NAME).read_bytes()
    header, *lines = [json.loads(line) for line in record.splitlines()]
    assert header["version"] == harness.RECORD_VERSION == 8
    assert {key for line in lines for key in line} == {
        "type", "generation", "x", "costs", "meta", "state"}
    assert all(len(line[key]) == cfg.population for line in lines for key in ("x", "costs", "meta"))
    assert {key for line in lines for row in line["meta"] for key in row} == {"p"}
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
    assert b'"costs":[null,' in gen1
    # generation 0 spaced and with its keys reversed still loads, and stays as stored
    spaced = (json.dumps(dict(reversed(json.loads(gen0).items()))) + "\n").encode()
    assert spaced != gen0 and json.loads(spaced) == json.loads(gen0)
    (tmp_path / harness.RECORD_NAME).write_bytes(header + spaced + gen1 + rest[0])
    harness.run(cfg, resume=True)
    assert (tmp_path / harness.RECORD_NAME).read_bytes() == header + spaced + gen1 + b"".join(rest)
    # a failure stored as the non-JSON token Infinity is refused, and the file left as it is
    legacy = header + gen0 + gen1.replace(b'"costs":[null', b'"costs":[Infinity') + rest[0]
    (tmp_path / harness.RECORD_NAME).write_bytes(legacy)
    with pytest.raises(ConfigError, match="line 3 is malformed: unexpected character"):
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


# Floats whose spelling or bits are at an edge: a signed zero, the least subnormal, the
# largest finite floats, and two that orjson spells otherwise than Python's repr.
FLOAT_EDGES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-05, 1e16]


@pytest.fixture(scope="module")
def codec_record(tmp_path_factory):
    """A one-generation benchmark record: its directory, header line and generation payload."""
    out = tmp_path_factory.mktemp("codec")
    harness.run(benchmark_config(generations=1, population=len(FLOAT_EDGES), output_dir=out))
    header, line = (out / harness.RECORD_NAME).read_bytes().splitlines(keepends=True)
    return out, header, orjson.loads(line)


@settings(max_examples=200, deadline=None)
@given(costs=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=len(FLOAT_EDGES), max_size=len(FLOAT_EDGES)))
@example(costs=FLOAT_EDGES)
def test_every_finite_float_round_trips_through_a_record_bit_for_bit(codec_record, costs):
    out, header, payload = codec_record
    payload = {**payload, "costs": costs, "meta": [{"costs": costs} for _ in costs]}
    line = harness._dump_line(payload)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    # stdlib json reads the same values: a record stays standard JSON
    assert repr(json.loads(line)) == repr(orjson.loads(line)) == repr(payload)
    (out / harness.RECORD_NAME).write_bytes(header + line)
    loaded = harness.load_record(out).generations[0]
    assert [cost.hex() for cost in loaded.costs.tolist()] == [cost.hex() for cost in costs]
    assert all(repr(row["costs"]) == repr(costs) for row in loaded.meta)


def test_a_cost_spelled_as_an_integer_beyond_64_bits_is_refused(tmp_path):
    # orjson reads such a literal as the float 2^64, which the same number
    # written with an exponent is too; only the latter is a stored float
    harness.run(benchmark_config(generations=1, output_dir=tmp_path))
    path = tmp_path / harness.RECORD_NAME
    header, line = path.read_bytes().splitlines(keepends=True)
    first = orjson.loads(line)["costs"][0]
    for spelled, loads in ((str(2**64), False), (str(-2**64), False), ("1.8446744073709552e19", True),
                           ("-18446744073709551616.0", True)):
        path.write_bytes(header + line.replace(b'"costs":[%s' % orjson.dumps(first),
                                               b'"costs":[' + spelled.encode(), 1))
        if loads:
            assert harness.load_record(tmp_path).generations[0].costs[0] == float(spelled)
        else:
            with pytest.raises(ConfigError, match=f"generation 0 is malformed.*cost {spelled} is not"):
                harness.load_record(tmp_path)


def test_a_seed_beyond_64_bits_exits_2_before_any_file_is_written(tmp_path, capsys):
    too_big = {**harness.json_plain(backends.make_shuttle_landscape(3)), "seed": 2**64}
    run = {"task": "shuttle", "generations": 2, "population": 4}
    for config in ({**run, "seed": 2**64}, {**run, "backend_fixture": too_big}):
        (tmp_path / "run.json").write_text(json.dumps(config))
        for command in (["run"], ["batch", "--repeats", "2"]):
            out = tmp_path / "out"
            assert main([*command, "--config", str(tmp_path / "run.json"), "--out", str(out)]) == 2
            assert f"seed must be <= {2**64 - 1}" in capsys.readouterr().err
            assert not out.exists()
    with pytest.raises(ValueError, match="seed must be <="):
        replace(backends.make_shuttle_landscape(3), seed=2**64)


def test_the_largest_seed_runs_loads_back_as_an_int_and_resumes_byte_exact(tmp_path):
    largest = 2**64 - 1
    cfg = RunConfig(task="shuttle", generations=4, population=4, seed=largest,
                    backend_fixture=harness.json_plain(backends.make_shuttle_landscape(largest)))
    full, part = stored_run(tmp_path, cfg, keep=2)
    loaded = harness.load_record(tmp_path / "full").config
    for seed in (loaded.seed, loaded.backend_fixture["seed"]):
        assert type(seed) is int and seed == largest
    harness.run(replace(cfg, output_dir=part), resume=True)
    assert (part / harness.RECORD_NAME).read_bytes() == full


def test_a_readout_run_integrates_the_ramp_at_its_optimum_once(monkeypatch):
    real, calls = backends.initialization_fidelity, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(backends, "initialization_fidelity", counting)
    record = harness.run(RunConfig(task="readout", generations=3, population=4, seed=3,
                                   shots=20))
    assert len(record.generations) == 3
    assert len(calls) == 1


def test_record_bytes_do_not_depend_on_output_location(tmp_path):
    cfg = benchmark_config()
    harness.run(replace(cfg, output_dir=tmp_path / "deep" / "nested"))
    harness.run(replace(cfg, output_dir=tmp_path / "flat"))
    a = (tmp_path / "deep" / "nested" / harness.RECORD_NAME).read_bytes()
    b = (tmp_path / "flat" / harness.RECORD_NAME).read_bytes()
    assert a == b


# ---------------------------------------------------------------- stop rule

def reference_stop(record, window):
    """(g, criterion) at the first generation g where EqualFunValues or TolFun holds, else None.

    Plain loops over the stored costs, a failed one inf: over generations g - window + 1..g,
    EqualFunValues when their least costs are equal, TolFun when those and generation g's
    costs span less than 1e-12 (Hansen's tutorial, App. B.3).
    """
    costs = [[cand["cost"] for cand in gen.candidates] for gen in record.generations]
    for g in range(window - 1, len(costs)):
        least = [min(row) for row in costs[g + 1 - window:g + 1]]
        if max(least) == min(least):
            return g, "EqualFunValues"
        if max(least + costs[g]) - min(least + costs[g]) < 1e-12:
            return g, "TolFun"
    return None


@pytest.mark.parametrize("cfg, window", [
    (RunConfig(task="shuttle", generations=200, population=50, seed=7), 15),
    (RunConfig(task="benchmark", generations=400, population=12, seed=7), 23),
    (RunConfig(task="readout", generations=400, population=20, backend_fixture=harness.json_plain(
        replace(backends.make_readout_landscape(0), shot_noise=False))), 31),
])
def test_a_deterministic_run_stops_where_a_scalar_reference_first_holds(tmp_path, cfg, window):
    record = harness.run(replace(cfg, output_dir=tmp_path))
    assert cfg.window == window
    assert len(record.generations) < cfg.generations
    assert reference_stop(record, window) == (len(record.generations) - 1, record.stop)
    assert harness.load_record(tmp_path).stop == record.stop


@pytest.mark.parametrize("row_costs", [[0.0, 1.0, 2.0, 3.0], [0.5] * 4])
def test_a_run_whose_least_costs_stay_equal_stops_by_equal_fun_values(tmp_path, monkeypatch,
                                                                      row_costs):
    # TolFun cannot hold where each generation's costs span 3; where every cost is equal
    # both criteria hold, and EqualFunValues is named
    monkeypatch.setattr(harness, "_make_evaluator", lambda config: lambda X, seeds: [
        backends.CostEvaluation(cost) for cost in row_costs])
    cfg = benchmark_config(generations=100, population=4, output_dir=tmp_path / "full")
    record = harness.run(cfg)
    assert (cfg.window, replace(cfg, population=12).window) == (48, 23)  # replace rebuilds it
    assert (len(record.generations), record.stop) == (48, "EqualFunValues")
    assert reference_stop(record, 48) == (47, "EqualFunValues")
    assert harness.load_record(tmp_path / "full").stop == "EqualFunValues"
    full = (tmp_path / "full" / harness.RECORD_NAME).read_bytes()
    (tmp_path / "part").mkdir()
    (tmp_path / "part" / harness.RECORD_NAME).write_bytes(full[:len(full) // 2])
    record = harness.run(replace(cfg, output_dir=tmp_path / "part"), resume=True)
    assert (len(record.generations), record.stop) == (48, "EqualFunValues")
    assert (tmp_path / "part" / harness.RECORD_NAME).read_bytes() == full


@pytest.mark.parametrize("seed", range(4))
def test_noisy_runs_keep_every_generation_where_their_costs_tie(seed):
    # each gate loop's least costs tie over a window (shot counts are whole numbers), and
    # would stop it at generation 25-33; a run of shot-noise costs is never stopped
    gate = harness.run(RunConfig(task="single_qubit", generations=40, population=14, seed=seed,
                                 shots=100))
    assert reference_stop(gate, 17) is not None
    readout = harness.run(RunConfig(task="readout", generations=40, population=20, seed=seed))
    for record in (gate, readout):
        assert len(record.generations) == 40 and record.stop is None
        assert record.config.window is None
    assert harness.run(benchmark_config()).stop is None  # deterministic, ended by its cap


@pytest.fixture(scope="module")
def stopped_record(tmp_path_factory):
    """(config, record bytes) of a benchmark run that stops after 116 of its 400 generations."""
    out = tmp_path_factory.mktemp("stopped")
    cfg = RunConfig(task="benchmark", generations=400, population=12, seed=7)
    record = harness.run(replace(cfg, output_dir=out))
    assert (len(record.generations), record.stop) == (116, "TolFun")
    return cfg, (out / harness.RECORD_NAME).read_bytes()


@settings(max_examples=50)
@given(data=st.data())
def test_a_stopped_record_cut_anywhere_resumes_to_its_bytes(stopped_record, data):
    cfg, full = stopped_record
    cut = data.draw(st.integers(0, len(full)), label="cut")
    generations = data.draw(st.sampled_from([cfg.generations, 2 * cfg.generations]), label="cap")
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / harness.RECORD_NAME).write_bytes(full[:cut])
        record = harness.run(replace(cfg, generations=generations, output_dir=tmp), resume=True)
        resumed = (Path(tmp) / harness.RECORD_NAME).read_bytes()
    assert (len(record.generations), record.stop) == (116, "TolFun")
    assert resumed.splitlines()[1:] == full.splitlines()[1:]
    # a header holds the cap, and a record that holds the stop keeps its own
    kept = cut >= len(full) - 1
    assert orjson.loads(resumed.splitlines()[0])["config"]["generations"] == (
        cfg.generations if kept else generations)
    assert resumed == full or not kept and generations != cfg.generations


def test_a_record_holding_a_generation_after_its_stop_is_refused(tmp_path, monkeypatch,
                                                                 stopped_record):
    cfg, full = stopped_record
    with monkeypatch.context() as mp:
        mp.setattr(harness, "_stop_reason", lambda gens, window: None)
        harness.run(replace(cfg, generations=117, output_dir=tmp_path))
    stored = (tmp_path / harness.RECORD_NAME).read_bytes()
    assert stored.splitlines()[1:117] == full.splitlines()[1:]
    # generation 116 is line 118, after the stop at generation 115
    for read in (lambda: harness.load_record(tmp_path),
                 lambda: harness.run(replace(cfg, output_dir=tmp_path), resume=True)):
        with pytest.raises(ConfigError, match=r"line 118 is malformed: it follows the stop "
                                              r"\(TolFun\)"):
            read()
    assert (tmp_path / harness.RECORD_NAME).read_bytes() == stored


# -------------------------------------------------------------------- batch

def test_batch_of_one_is_a_plain_run():
    cfg = RunConfig(task="readout", generations=5, population=6, seed=9, shots=200)
    result = harness.batch(cfg, repeats=1)
    direct = harness.run(cfg)
    assert written(result.records[0]) == written(direct)
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
    land = replace(backends.make_shuttle_landscape(4), shot_noise=True)
    (tmp_path / "device.json").write_text(json.dumps(harness.json_plain(land)))
    cfg = RunConfig(task="shuttle", generations=1, population=2, shots=200)
    values = backends.shuttle_space().denormalize(np.full(8, 0.4))
    by_file = harness.evaluate_params(
        replace(cfg, backend_fixture=harness.read_json(tmp_path / "device.json")), values,
        shot_seed=3)
    inline = harness.evaluate_params(
        replace(cfg, backend_fixture=harness.json_plain(land)), values, shot_seed=3)
    assert by_file == inline
    assert by_file != harness.evaluate_params(cfg, values, shot_seed=3)


# ------------------------------------------------------------- config errors

def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError, match="unknown task 'tea_making'"):
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
    ("seed", 2**64), ("generations", 2**64), ("population", 2**64), ("shots", 2**63),
    ("generations", 2**32 + 1), ("population", 2**32 + 1),
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


def test_the_counts_a_shot_seed_key_indexes_are_bounded_by_its_field_width():
    # generation and row are each 32 bits of the key: 2**32 of them are indexed, and no more
    cfg = RunConfig(task="benchmark", generations=2**32, population=2**32)
    assert (cfg.generations, cfg.population) == (2**32, 2**32)
    assert harness._shot_seeds(1, 2**32 - 1, [2**32 - 1]) == [2**65 - 1]


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
    with pytest.raises(ConfigError):
        RunConfig(task="readout", generations=2, population=4,
                  backend_fixture=str(tmp_path / "absent.json"))


def test_a_fixture_file_is_recorded_as_the_device_it_holds(tmp_path, monkeypatch, capsys):
    land = harness.json_plain(replace(backends.make_shuttle_landscape(3), shot_noise=True))
    (tmp_path / "device.json").write_text(json.dumps(land))
    monkeypatch.chdir(tmp_path)  # the CLI reads a fixture path from the working directory
    run = {"task": "shuttle", "generations": 3, "population": 4, "seed": 2, "shots": 50}
    for name, fixture in (("file", "device.json"), ("inline", land)):
        (tmp_path / f"{name}.json").write_text(json.dumps({**run, "backend_fixture": fixture}))
        assert main(["run", "--config", f"{name}.json", "--out", name]) == 0
    record = (tmp_path / "file" / harness.RECORD_NAME).read_bytes()
    assert record == (tmp_path / "inline" / harness.RECORD_NAME).read_bytes()
    assert harness.load_record(tmp_path / "file").config.backend_fixture == land


def test_malformed_inline_fixture_is_a_config_error():
    with pytest.raises(ConfigError):
        RunConfig(task="readout", generations=2, population=4,
                  backend_fixture={"kind": "bogus"})


def test_a_fixture_file_is_read_when_the_config_is_made(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": "shuttle", "generations": 3, "population": 4,
                               "backend_fixture": str(tmp_path / "absent.json")}))
    for command in (["run"], ["batch", "--repeats", "2"]):
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "file not found" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fixture", ["device.json", Path("device.json")])
def test_a_config_opens_no_fixture_file(tmp_path, monkeypatch, fixture):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "device.json").write_text(
        json.dumps(harness.json_plain(backends.make_shuttle_landscape(5))))
    with pytest.raises(ConfigError, match="landscape fixture must be a JSON object"):
        RunConfig(task="shuttle", generations=3, population=4, backend_fixture=fixture)


def test_a_fixture_is_held_as_its_checked_landscapes_json():
    land = harness.json_plain(backends.make_shuttle_landscape(5))
    # integers, as a user may write them, and a numpy seed, as a library caller may pass it;
    # a coupling of 1/8 on the diagonal keeps the quadratic at most 1 around the corner 0
    coupling = (np.eye(8) / 8).tolist()
    written = {**land, "floor": 0, "optimum": [0] * 8, "coupling": coupling,
               "seed": np.int64(land["seed"])}
    cfg = RunConfig(task="shuttle", generations=3, population=4, backend_fixture=written)
    assert json.dumps(cfg.backend_fixture) == json.dumps({**land, "floor": 0.0,
                                                          "optimum": [0.0] * 8,
                                                          "coupling": coupling})


def test_a_shuttle_fixture_is_refused_where_its_quadratic_passes_1_on_the_cube():
    # p = floor + (SHUTTLE_P_WORST - floor) q stays within SHUTTLE_P_WORST only while q <= 1
    for seed in range(50):
        land = harness.json_plain(backends.make_shuttle_landscape(seed))
        cfg = RunConfig(task="shuttle", generations=1, population=2, backend_fixture=land)
        assert cfg.backend_fixture == land
    steep = {**land, "optimum": [0.5] * 8, "coupling": (100 * np.eye(8)).tolist()}
    with pytest.raises(ConfigError, match=r"quadratic reaches 200\.0 at a corner"):
        RunConfig(task="shuttle", generations=1, population=2, backend_fixture=steep)


def test_a_config_holds_a_copy_of_the_callers_fixture(tmp_path):
    land = harness.json_plain(backends.make_shuttle_landscape(2))
    caller = json.loads(json.dumps(land))
    cfg = RunConfig(task="shuttle", generations=3, population=4, seed=1, backend_fixture=caller)
    # trimmed after the check: the run would fail every candidate on this device
    caller["optimum"] = caller["optimum"][:7]
    caller["coupling"] = [row[:7] for row in caller["coupling"][:7]]
    assert cfg.backend_fixture == land
    harness.run(replace(cfg, output_dir=tmp_path / "trimmed"))
    harness.run(RunConfig(task="shuttle", generations=3, population=4, seed=1,
                          backend_fixture=land, output_dir=tmp_path / "kept"))
    record = (tmp_path / "trimmed" / harness.RECORD_NAME).read_bytes()
    assert record == (tmp_path / "kept" / harness.RECORD_NAME).read_bytes()


@pytest.mark.parametrize("fixture", [None, harness.json_plain(backends.make_shuttle_landscape(4))])
def test_a_config_builds_its_landscape_once(tmp_path, monkeypatch, fixture):
    # and its task's space: one build of each per config, however often the run reads them
    built, spaces = [], []
    real = backends.HiddenLandscape.__post_init__

    def counting(self):
        built.append(self.seed)
        real(self)

    def counting_space():
        spaces.append(backends.shuttle_space())
        return spaces[-1]

    monkeypatch.setattr(backends.HiddenLandscape, "__post_init__", counting)
    monkeypatch.setitem(harness._TASKS, "shuttle",
                        replace(harness._TASKS["shuttle"], space=counting_space))
    cfg = RunConfig(task="shuttle", generations=3, population=4, seed=1, backend_fixture=fixture,
                    output_dir=tmp_path)
    record = harness.run(cfg)
    assert record.stop is None and record.stop is None
    harness.evaluate_params(cfg, record.best_params)
    harness.evaluate_params(cfg, record.best_params)
    assert len(built) == len(spaces) == 1
    loaded = harness.load_record(tmp_path)  # a config of its own, read from the header
    assert loaded.stop is None and loaded.stop is None
    assert len(built) == len(spaces) == 2
    harness.run(cfg, resume=True)  # loads the record: one more config
    assert len(built) == len(spaces) == 3 and len(set(built)) == 1


@pytest.mark.parametrize("task", ["single_qubit", "benchmark"])
def test_a_task_without_a_landscape_refuses_a_fixture(tmp_path, task):
    land = harness.json_plain(backends.make_shuttle_landscape(0))
    (tmp_path / "device.json").write_text(json.dumps(land))
    for fixture in (land, tmp_path / "device.json", 7):
        with pytest.raises(ConfigError, match=f"the {task} task has no landscape"):
            RunConfig(task=task, generations=2, population=4, backend_fixture=fixture)


def test_load_record_requires_header_and_file(tmp_path):
    with pytest.raises(ConfigError):
        harness.load_record(tmp_path)
    headerless = tmp_path / harness.RECORD_NAME
    headerless.write_text('{"type":"note"}\n')
    with pytest.raises(ConfigError):
        harness.load_record(tmp_path)
