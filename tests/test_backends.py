import json
import re
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spintune import dqd
from spintune.backends import (
    SHUTTLE_DISTANCE_UM,
    SHUTTLE_P_WORST,
    SHUTTLE_SEGMENT_UM,
    HiddenLandscape,
    ParameterSpace,
    SpaceEntry,
    make_readout_landscape,
    make_shuttle_landscape,
    optimum_init_fidelity,
    readout_backend_evaluate,
    readout_space,
    rb_space,
    shuttle_backend_evaluate,
    shuttle_depolarization,
    shuttle_space,
    _seed_sequence_words,
    _shot_generators,
    true_readout_visibility,
)
from spintune.cmaes import DistributionState, StrategyParams, ask, tell
from spintune.harness import TASKS, RunConfig, json_object, json_plain, read_json
from spintune.rb import RbConfig, rb_backend_evaluate


def test_space_normalize_round_trip():
    space = readout_space()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, space.dimension)
        v = space.denormalize(x)
        np.testing.assert_allclose(space.normalize(v), x, atol=1e-12)


def test_space_validation():
    with pytest.raises(ValueError):
        ParameterSpace((SpaceEntry("a", 1.0, 1.0, "mV"),))
    with pytest.raises(ValueError):
        ParameterSpace((SpaceEntry("a", 0.0, 1.0, "mV"), SpaceEntry("a", 0.0, 2.0, "mV")))
    with pytest.raises(ValueError, match="must not be empty"):
        ParameterSpace(())
    with pytest.raises(KeyError, match="unknown parameter 'nope'"):
        readout_space().index("nope")


@settings(max_examples=50)
@given(data=st.data())
def test_space_maps_a_block_row_for_row_as_each_vector_alone(data):
    space = data.draw(st.sampled_from([readout_space(), shuttle_space(), rb_space()]))
    d = space.dimension
    n = data.draw(st.integers(1, 6))
    block = np.array(data.draw(st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d), min_size=n, max_size=n)))
    for f in (space.normalize, space.denormalize):
        mapped = f(block)
        assert mapped.shape == (n, d)
        for row, vector in zip(mapped, block):
            assert f(vector).shape == (d,)
            assert f(vector).tobytes() == row.tobytes()
        for shape in ((), (d + 1,), (n, d, 1)):
            with pytest.raises(ValueError, match=f"dimension {d}"):
                f(np.zeros(shape))


def test_task_spaces_have_expected_shapes():
    assert readout_space().dimension == 14
    assert shuttle_space().dimension == 8
    assert rb_space().dimension == 3
    assert [e.name for e in rb_space().entries] == ["t_d", "A", "f"]
    assert readout_space().entries[0].name == "ve12_read"


@pytest.mark.parametrize("n_shots", [1, 7, 1000])
def test_readout_cost_is_minus_the_count_difference_over_the_shots(n_shots):
    land = make_readout_landscape(4)
    x = np.random.default_rng(n_shots).uniform(0.0, 1.0, (40, 14))
    for ev in readout_backend_evaluate(land, readout_space(), x, n_shots, list(range(40))):
        shots = ev.metadata["shots"]
        assert set(shots) == {"n_shots", "odd_given_odd", "odd_given_even"}
        odd, even = shots["odd_given_odd"], shots["odd_given_even"]
        assert shots["n_shots"] == n_shots and 0 <= odd <= n_shots and 0 <= even <= n_shots
        # by repr, so a tie must cost -0.0
        assert repr(ev.cost) == repr(-((odd - even) / n_shots))


def test_readout_cost_at_optimum_matches_tuned_ceiling():
    land = replace(make_readout_landscape(3), floor=1.0 - 0.99, shot_noise=False)
    ev = readout_backend_evaluate(land, readout_space(), land.optimum, 1000, [0])[0]
    assert ev.cost == pytest.approx(-0.99, abs=1e-12)


def test_readout_shot_noise_within_three_sigma_at_optimum():
    land = replace(make_readout_landscape(3), floor=1.0 - 0.99)
    space = readout_space()
    sigma = 0.0044
    for shot_seed in range(5):
        ev = readout_backend_evaluate(land, space, land.optimum, 1000, [shot_seed])[0]
        assert abs(ev.cost - (-0.99)) < 3 * sigma


def test_minimum_ramp_time_is_penalized():
    land = replace(make_readout_landscape(5), shot_noise=False)
    space = readout_space()
    x = land.optimum.copy()
    x[space.index("t_read_init")] = 0.0
    worse = readout_backend_evaluate(land, space, x, 1000, [0])[0].cost
    best = readout_backend_evaluate(land, space, land.optimum, 1000, [0])[0].cost
    assert worse > best


def test_noiseless_cost_minimized_at_planted_optimum():
    land = replace(make_readout_landscape(11), shot_noise=False)
    space = readout_space()
    best = readout_backend_evaluate(land, space, land.optimum, 1000, [0])[0].cost
    for i in range(space.dimension):
        for delta in (-0.08, 0.08):
            x = land.optimum.copy()
            x[i] = np.clip(x[i] + delta, 0.0, 1.0)
            assert readout_backend_evaluate(land, space, x, 1000, [0])[0].cost >= best


def test_readout_dimension_mismatch():
    land = make_readout_landscape(0)
    with pytest.raises(ValueError):
        readout_backend_evaluate(land, readout_space(), np.full(8, 0.5), 1000, [0])


def test_readout_costs_finite_everywhere():
    land = make_readout_landscape(2)
    space = readout_space()
    rng = np.random.default_rng(1)
    for k in range(10):
        x = rng.uniform(0.0, 1.0, 14)
        ev = readout_backend_evaluate(land, space, x, 1000, [k])[0]
        assert np.isfinite(ev.cost)


def test_readout_evaluation_deterministic_given_seeds():
    land = make_readout_landscape(4)
    space = readout_space()
    x = np.full(14, 0.45)
    a = readout_backend_evaluate(land, space, x, 1000, [7])[0]
    b = readout_backend_evaluate(land, space, x, 1000, [7])[0]
    assert a.cost == b.cost


def _told_state():
    params = StrategyParams(dimension=4, population=6, seed=3)
    state = DistributionState.initial(np.full(4, 0.5), sigma=0.25)
    for _ in range(3):
        points, steps = ask(state, params)
        state = tell(state, params, steps, np.sum((points - 0.3) ** 2, axis=1))
    return state


# Every kind of object spintune stores, as a list of instances to send through a file.
STORED_OBJECTS = {
    "run config with an inline fixture": lambda: [RunConfig(
        "shuttle", 3, 4, seed=2, shots=50,
        backend_fixture=json_plain(replace(make_shuttle_landscape(2), shot_noise=True)))],
    "readout landscape": lambda: [make_readout_landscape(9)],
    "shuttle landscape": lambda: [make_shuttle_landscape(12)],
    **{f"{task} space entries": lambda task=task: list(RunConfig(task, 1, 2).space.entries)
       for task in TASKS},
    "distribution state after three tells": lambda: [_told_state()],
}


@pytest.mark.parametrize("kind", list(STORED_OBJECTS))
def test_every_stored_object_round_trips_through_a_json_file_bit_for_bit(tmp_path, kind):
    path = tmp_path / "object.json"
    for obj in STORED_OBJECTS[kind]():
        path.write_text(json.dumps(json_plain(obj)))
        again = json_object(type(obj), read_json(path), kind)
        for f in fields(obj):
            value, back = getattr(obj, f.name), getattr(again, f.name)
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(back, value, strict=True)
            else:
                assert type(back) is type(value) and back == value, f.name


def test_landscape_rejects_non_spd_coupling():
    with pytest.raises(ValueError):
        HiddenLandscape(np.full(2, 0.5), np.array([[1.0, 2.0], [2.0, 1.0]]),
                        0.01, False, 0)
    with pytest.raises(ValueError):
        HiddenLandscape(np.full(2, 0.5), np.array([[1.0, 0.5], [0.4, 1.0]]),
                        0.01, False, 0)


def test_landscape_refuses_a_mismatched_coupling_and_a_floor_outside_0_to_1():
    with pytest.raises(ValueError, match="coupling shape"):
        HiddenLandscape(np.full(2, 0.5), np.eye(3), 0.01, False, 0)
    for floor in (-0.1, 1.0):
        with pytest.raises(ValueError, match="floor"):
            HiddenLandscape(np.full(2, 0.5), np.eye(2), floor, False, 0)


def test_readout_refuses_no_shots_under_shot_noise_and_a_foreign_space():
    land, x = make_readout_landscape(0), np.full(14, 0.5)
    shuttle = replace(make_shuttle_landscape(0), shot_noise=True)
    for n_shots in (0, -1, 1.5, True, 2**63):
        refused = rf"n_shots must be .*, got {re.escape(repr(n_shots))}$"
        with pytest.raises(ValueError, match=refused):
            readout_backend_evaluate(land, readout_space(), x, n_shots, shot_seeds=[1])
        with pytest.raises(ValueError, match=refused):
            shuttle_backend_evaluate(shuttle, np.full(8, 0.5), n_shots=n_shots, shot_seeds=[1])
    with pytest.raises(ValueError, match="expects the 14-parameter space"):
        readout_backend_evaluate(land, shuttle_space(), x, 100, shot_seeds=[1])
    # without shot noise no shot is drawn, so their number is not looked at
    quiet = replace(land, shot_noise=False)
    assert readout_backend_evaluate(quiet, readout_space(), x, 0, shot_seeds=[1]) == \
        readout_backend_evaluate(quiet, readout_space(), x, 100, shot_seeds=[1])


def test_landscape_refuses_a_bool_among_floats_and_holds_read_only_arrays():
    # numpy reads [True, 0.5] as the floats [1.0, 0.5]; the entries are checked
    for optimum in ([True, 0.5], np.array([True, False]), ["0.5", 0.5]):
        with pytest.raises(ValueError, match="optimum"):
            HiddenLandscape(optimum, np.eye(2), 0.01, False, 0)
    with pytest.raises(ValueError, match="coupling"):
        HiddenLandscape([0.5, 0.5], [[1.0, False], [0.0, 1.0]], 0.01, False, 0)
    optimum, coupling = np.full(2, 0.5), np.eye(2)
    land = HiddenLandscape(optimum, coupling, 0.01, False, 0)
    for arr in (land.optimum, land.coupling):
        assert arr.dtype == float and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    optimum[0] = 0.1  # a copy: the caller's array stays its own
    assert land.optimum[0] == 0.5


def test_planted_crosstalk_signs_in_coupling():
    space = readout_space()
    land = make_readout_landscape(17)
    assert land.coupling[space.index("ve12_read"), space.index("B2_read")] < 0
    assert land.coupling[space.index("vmu12_read"), space.index("B1_read")] > 0


def test_shuttle_optimum_examples():
    land = make_shuttle_landscape(1)
    ev = shuttle_backend_evaluate(land, land.optimum, 1000, [0])[0]
    assert ev.metadata["p"] == pytest.approx(0.0192, abs=1e-12)
    assert 1 - ev.cost == pytest.approx((1.0 - 0.0192) ** (SHUTTLE_DISTANCE_UM / SHUTTLE_SEGMENT_UM),
                                        abs=1e-12)


def test_shuttle_worst_corner_depolarization():
    land = make_shuttle_landscape(1)
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * 8)).T.reshape(-1, 8)
    worst = max(shuttle_depolarization(land, c)[0] for c in corners)
    assert worst == pytest.approx(0.117, abs=1e-12)


def test_shuttle_dimension_mismatch():
    land = make_shuttle_landscape(0)
    with pytest.raises(ValueError):
        shuttle_backend_evaluate(land, np.full(14, 0.5), 1000, [0])


def test_true_visibility_caps_at_ceiling():
    land = replace(make_readout_landscape(8), shot_noise=False)
    space = readout_space()
    assert true_readout_visibility(land, space, land.optimum)[0] == pytest.approx(0.995, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(0.0, 1.0, 14)
        v = true_readout_visibility(land, space, x)[0]
        assert 0.0 < v <= 0.995


def test_readout_given_its_optimum_fidelity_gives_the_same_bits():
    land, space = make_readout_landscape(4), readout_space()
    X = np.random.default_rng(2).uniform(0.0, 1.0, (6, 14))
    f_opt = optimum_init_fidelity(land, space)
    assert repr(readout_backend_evaluate(land, space, X, 500, list(range(6)), f_opt=f_opt)) == (
        repr(readout_backend_evaluate(land, space, X, 500, list(range(6)))))


# ------------------------------------------------- a block equals its rows

def _block_and_rows(evaluate, X, seeds):
    """The reprs of one (n, d) call and of n one-row calls, or the error each raises."""
    def outcome(call):
        try:
            return repr(call())
        except ValueError as err:
            return f"ValueError: {err}"

    block = outcome(lambda: evaluate(X, seeds))
    rows = [outcome(lambda i=i: evaluate(X[i], [seeds[i]])[0]) for i in range(len(X))]
    return block, rows


def _unit_block(data, dim):
    n = data.draw(st.integers(1, 100), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    X = rng.uniform(0.0, 1.0, (n, dim))
    X[rng.random((n, dim)) < 0.05] = data.draw(st.sampled_from([0.0, 1.0, 1.0 + 1e-10]))
    seeds = rng.integers(0, 2**32, n).tolist()
    # keys as the harness makes them, seed << 64 | generation << 32 | row, span 1 to 4 words
    words = data.draw(st.sampled_from(["one", "harness", "mixed"]), label="shot seed words")
    base = (data.draw(st.integers(0, 2**64 - 1), label="run seed") << 64
            | data.draw(st.integers(0, 2**32 - 1), label="generation") << 32)
    if words != "one":
        keys = [base | i for i in range(n)]
        seeds = keys if words == "harness" else [
            (s, k)[j] for s, k, j in zip(seeds, keys, rng.integers(0, 2, n))]
    bad = data.draw(st.sampled_from([None, -0.01, 1.5, float("nan")]),
                     label="out-of-cube value")
    if bad is not None:
        X[data.draw(st.integers(0, n - 1), label="bad row"), rng.integers(dim)] = bad
    return X, seeds, bad


def _assert_block_equals_rows(evaluate, X, seeds, bad):
    block, rows = _block_and_rows(evaluate, X, seeds)
    if bad is None:
        assert block == f"[{', '.join(rows)}]"
    else:
        assert block == "ValueError: candidate outside the unit cube"
        assert block in rows


@settings(max_examples=25)
@given(data=st.data())
def test_readout_block_equals_its_rows_bit_for_bit(data):
    # up to 100 rows in ramp-kernel chunks of 1 to 100 trajectories, so
    # blocks cross chunk boundaries; a chunk of more than
    # dqd._SLAB_BYTES // (300 * 9 * 16) trajectories builds its 300 steps
    # in more than one slab, where a row alone builds them in one
    land = replace(make_readout_landscape(data.draw(st.integers(0, 50))),
                   shot_noise=data.draw(st.booleans()))
    space = readout_space()
    X, seeds, bad = _unit_block(data, 14)
    with mock.patch.object(dqd, "_CHUNK", data.draw(st.integers(1, 100), label="chunk")):
        _assert_block_equals_rows(
            lambda x, s: readout_backend_evaluate(land, space, x, 500, shot_seeds=s), X, seeds, bad)
        if bad is None:
            assert repr(true_readout_visibility(land, space, X)) == repr(
                [true_readout_visibility(land, space, x)[0] for x in X])


@settings(max_examples=50)
@given(data=st.data())
def test_shuttle_block_equals_its_rows_bit_for_bit(data):
    land = replace(make_shuttle_landscape(data.draw(st.integers(0, 50))),
                   shot_noise=data.draw(st.booleans()))
    X, seeds, bad = _unit_block(data, 8)
    _assert_block_equals_rows(
        lambda x, s: shuttle_backend_evaluate(land, x, n_shots=300, shot_seeds=s), X, seeds, bad)


_POINTS = {  # one candidate of each backend, as (evaluate(x, shot_seeds), x)
    "readout": (lambda x, s: readout_backend_evaluate(
        make_readout_landscape(0), readout_space(), x, 100, shot_seeds=s), np.full(14, 0.5)),
    "shuttle": (lambda x, s: shuttle_backend_evaluate(
        replace(make_shuttle_landscape(0), shot_noise=True), x, n_shots=100, shot_seeds=s),
        np.full(8, 0.5)),
    "single_qubit": (lambda x, s: rb_backend_evaluate(RbConfig(), x, shot_seeds=s),
                     np.array([12.0, 9.5, 1001.0])),
}


@pytest.mark.parametrize("task", list(_POINTS))
def test_block_shapes_and_seed_counts_are_checked(task):
    evaluate, x = _POINTS[task]
    with pytest.raises(ValueError, match=f"dimension {x.size}"):
        evaluate(np.tile(x, (3, 1))[..., None], [1, 2, 3])
    with pytest.raises(ValueError, match="3 shot seeds"):
        evaluate(np.tile(x, (3, 1)), [1, 2])
    one = evaluate(x, [4])
    assert isinstance(one, list) and one == evaluate(x[None], [4])
    shared = evaluate(np.tile(x, (2, 1)), [4, 4])
    assert shared[0] == shared[1] == one[0]
    # a None shot seed draws nothing: that row's cost is exact, beside a drawing row
    exact = evaluate(x, [None])[0]
    assert "shots" not in exact.metadata
    assert evaluate(np.tile(x, (2, 1)), [None, 4]) == [exact, one[0]]


# ------------------------------------------------ shot streams of a block

_KEYS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1]),
    st.integers(0, 2**128 - 1),
    st.builds(lambda s, g, i: s << 64 | g << 32 | i, st.integers(0, 2**64 - 1),
              st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**64 - 1), keys=st.lists(_KEYS, min_size=1, max_size=30),
       n=st.integers(0, 2**63 - 1), p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
# keys of 10 and 12 words, beside one-word keys: hash constants for any entropy length
@example(seed=2**64 - 1, keys=[2**300 + 5, 1, 2**383, 2**300 + 6], n=100, p=0.5)
def test_shot_generators_draw_as_default_rng_of_each_key(seed, keys, n, p):
    for key, rng in zip(keys, _shot_generators(seed, keys), strict=True):
        ref = np.random.default_rng((seed, key))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert [rng.binomial(n, p) for _ in range(3)] == [ref.binomial(n, p) for _ in range(3)]


@settings(max_examples=60)
@given(n_words=st.integers(1, 12), n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_seed_sequence_words_equal_numpy_seed_sequence_bit_for_bit(n_words, n, seed):
    rng = np.random.default_rng(seed)
    entropy = rng.integers(0, 2**32, (n, n_words), dtype=np.uint32)
    entropy[rng.random((n, n_words)) < 0.2] = 0
    entropy[:, -1] |= 1  # SeedSequence of an integer keeps no zero top word
    got = _seed_sequence_words(entropy)
    # PCG64 takes each row as its four state words, so the block must be C-ordered
    assert got.shape == (n, 4) and got.dtype == np.uint64 and got.flags.c_contiguous
    for row, words in zip(entropy, got):
        seq = np.random.SeedSequence(int.from_bytes(row.astype("<u4").tobytes(), "little"))
        assert words.tobytes() == seq.generate_state(4, np.uint64).tobytes()


@pytest.mark.parametrize("key", [-1, 1.5])
def test_shot_generators_refuse_a_key_as_default_rng_does(key):
    with pytest.raises((ValueError, TypeError)):
        np.random.default_rng((3, key))
    refused = re.escape(f"shot seed must be an integer >= 0, got {key!r}")
    with pytest.raises(ValueError, match=refused):
        _shot_generators(3, [5, key, 2**70])


def test_shot_generators_refuse_a_key_other_than_none_or_a_non_negative_integer():
    for key in (True, np.bool_(True), "2", [1, 2], np.float64(2.0)):
        refused = re.escape(f"shot seed must be an integer >= 0, got {key!r}")
        with pytest.raises(ValueError, match=refused):
            _shot_generators(3, [5, key, 2**70])
    # a None key draws nothing, and a numpy integer key draws as default_rng seeds it
    keys = [None, np.int64(7), np.uint64(2**64 - 1)]
    nothing, *rngs = _shot_generators(3, keys)
    assert nothing is None
    for key, rng in zip(keys[1:], rngs, strict=True):
        ref = np.random.default_rng((3, key))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.binomial(100, 0.5, 5).tolist() == ref.binomial(100, 0.5, 5).tolist()


# --------------------------------------------- the shuttle formula, per row

def test_quadratic_of_a_block_is_the_scalar_form_of_each_row():
    for land in (make_readout_landscape(4), make_shuttle_landscape(4)):
        X = np.random.default_rng(4).uniform(0.0, 1.0, (300, land.optimum.size))
        scalar = [float(d @ land.coupling @ d) for d in X - land.optimum]
        assert land.quadratic(X).tolist() == scalar
        assert [land.quadratic(x)[0] for x in X] == scalar


def reference_shuttle(landscape, x, n_shots, shot_seed):
    """One candidate by the scalar formula: d @ C @ d and Python's float **."""
    d = np.asarray(x, dtype=float) - landscape.optimum
    p = landscape.floor + (SHUTTLE_P_WORST - landscape.floor) * float(d @ landscape.coupling @ d)
    amplitude = (1.0 - p) ** (SHUTTLE_DISTANCE_UM / 10.0)
    meta = {"p": p}
    if landscape.shot_noise:
        rng = np.random.default_rng((landscape.seed, shot_seed))
        f_plus = rng.binomial(n_shots, 0.5 * (1.0 + amplitude)) / n_shots
        f_minus = rng.binomial(n_shots, 0.5 * (1.0 - amplitude)) / n_shots
        measured = f_plus - f_minus
        meta["shots"] = {"n_shots": n_shots, "f_plus": f_plus, "f_minus": f_minus}
    else:
        measured = amplitude
    return 1.0 - measured, meta


@pytest.mark.parametrize("shot_noise", [False, True])
def test_shuttle_block_matches_the_scalar_formula_byte_for_byte(shot_noise):
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * 8)).T.reshape(-1, 8)
    for seed in range(3):
        land = replace(make_shuttle_landscape(seed), shot_noise=shot_noise)
        X = np.vstack([corners, land.optimum, np.random.default_rng(seed).uniform(0, 1, (200, 8))])
        seeds = list(range(len(X)))
        block = shuttle_backend_evaluate(land, X, n_shots=500, shot_seeds=seeds)
        for x, s, ev in zip(X, seeds, block):
            cost, meta = reference_shuttle(land, x, 500, s)
            assert repr(ev.cost) == repr(cost)
            assert json.dumps(ev.metadata, sort_keys=True) == json.dumps(meta, sort_keys=True)
        assert block[len(corners)].metadata["p"] == land.floor
