import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintune.backends import (
    DEFAULT_SHUTTLE_DISTANCE_UM,
    SHUTTLE_P_WORST,
    HiddenLandscape,
    ParameterSpace,
    ReadoutShots,
    SpaceEntry,
    make_readout_landscape,
    make_shuttle_landscape,
    readout_backend_evaluate,
    readout_space,
    rb_space,
    shuttle_backend_evaluate,
    shuttle_depolarization,
    shuttle_space,
    true_readout_visibility,
    visibility,
    visibility_to_fidelity,
)


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


def test_task_spaces_have_expected_shapes():
    assert readout_space().dimension == 14
    assert shuttle_space().dimension == 8
    assert rb_space().dimension == 3
    assert [e.name for e in rb_space().entries] == ["t_d", "A", "f"]
    assert readout_space().entries[0].name == "ve12_read"


def test_visibility_examples():
    assert visibility(ReadoutShots(1000, 1000, 0)) == 1.0
    assert visibility(ReadoutShots(1000, 500, 500)) == 0.0
    assert visibility(ReadoutShots(1000, 993, 7)) == pytest.approx(0.986, abs=1e-12)


def test_visibility_input_validation():
    with pytest.raises(ValueError):
        ReadoutShots(0, 0, 0)
    with pytest.raises(ValueError):
        ReadoutShots(10, 11, 0)
    with pytest.raises(ValueError):
        ReadoutShots(10, 3, -1)


def test_visibility_to_fidelity_examples():
    assert visibility_to_fidelity(0.98) == pytest.approx(0.99, abs=1e-12)
    assert visibility_to_fidelity(0.85) == pytest.approx(0.925, abs=1e-12)
    assert visibility_to_fidelity(0.90) == pytest.approx(0.95, abs=1e-12)
    assert visibility_to_fidelity(1.0) == 1.0
    with pytest.raises(ValueError):
        visibility_to_fidelity(1.5)


def test_readout_cost_at_optimum_matches_tuned_ceiling():
    land = make_readout_landscape(3, ceiling=0.99, shot_noise=False)
    ev = readout_backend_evaluate(land, readout_space(), land.optimum, 1000)
    assert ev.cost == pytest.approx(-0.99, abs=1e-12)


def test_readout_shot_noise_within_three_sigma_at_optimum():
    land = make_readout_landscape(3, ceiling=0.99, shot_noise=True)
    space = readout_space()
    sigma = 0.0044
    for shot_seed in range(5):
        ev = readout_backend_evaluate(land, space, land.optimum, 1000, shot_seed=shot_seed)
        assert abs(ev.cost - (-0.99)) < 3 * sigma


def test_minimum_ramp_time_is_penalized():
    land = make_readout_landscape(5, shot_noise=False)
    space = readout_space()
    x = land.optimum.copy()
    x[space.index("t_read_init")] = 0.0
    worse = readout_backend_evaluate(land, space, x, 1000).cost
    best = readout_backend_evaluate(land, space, land.optimum, 1000).cost
    assert worse > best


def test_noiseless_cost_minimized_at_planted_optimum():
    land = make_readout_landscape(11, shot_noise=False)
    space = readout_space()
    best = readout_backend_evaluate(land, space, land.optimum, 1000).cost
    for i in range(space.dimension):
        for delta in (-0.08, 0.08):
            x = land.optimum.copy()
            x[i] = np.clip(x[i] + delta, 0.0, 1.0)
            assert readout_backend_evaluate(land, space, x, 1000).cost >= best


def test_readout_dimension_mismatch():
    land = make_readout_landscape(0)
    with pytest.raises(ValueError):
        readout_backend_evaluate(land, readout_space(), np.full(8, 0.5), 1000)


def test_readout_costs_finite_everywhere():
    land = make_readout_landscape(2)
    space = readout_space()
    rng = np.random.default_rng(1)
    for k in range(10):
        x = rng.uniform(0.0, 1.0, 14)
        ev = readout_backend_evaluate(land, space, x, 1000, shot_seed=k)
        assert np.isfinite(ev.cost)


def test_readout_evaluation_deterministic_given_seeds():
    land = make_readout_landscape(4)
    space = readout_space()
    x = np.full(14, 0.45)
    a = readout_backend_evaluate(land, space, x, 1000, shot_seed=7)
    b = readout_backend_evaluate(land, space, x, 1000, shot_seed=7)
    assert a.cost == b.cost


def test_landscape_serialization_round_trip(tmp_path):
    land = make_readout_landscape(9)
    path = tmp_path / "fixture.json"
    land.save(path)
    loaded = HiddenLandscape.load(path)
    np.testing.assert_array_equal(loaded.optimum, land.optimum)
    np.testing.assert_array_equal(loaded.coupling, land.coupling)
    assert loaded.floor == land.floor
    assert loaded.shot_noise == land.shot_noise
    assert loaded.seed == land.seed


def test_landscape_rejects_non_spd_coupling():
    with pytest.raises(ValueError):
        HiddenLandscape(np.full(2, 0.5), np.array([[1.0, 2.0], [2.0, 1.0]]),
                        0.01, False, 0)
    with pytest.raises(ValueError):
        HiddenLandscape(np.full(2, 0.5), np.array([[1.0, 0.5], [0.4, 1.0]]),
                        0.01, False, 0)


def test_planted_crosstalk_signs_in_coupling():
    space = readout_space()
    land = make_readout_landscape(17)
    assert land.coupling[space.index("ve12_read"), space.index("B2_read")] < 0
    assert land.coupling[space.index("vmu12_read"), space.index("B1_read")] > 0


def test_shuttle_optimum_examples():
    land = make_shuttle_landscape(1)
    ev = shuttle_backend_evaluate(land, shuttle_space(), land.optimum, distance=10.0)
    assert ev.metadata["p"] == pytest.approx(0.0192, abs=1e-12)
    assert ev.metadata["true_amplitude"] == pytest.approx(1.0 - 0.0192, abs=1e-12)


def test_shuttle_worst_corner_depolarization():
    land = make_shuttle_landscape(1)
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * 8)).T.reshape(-1, 8)
    worst = max(shuttle_depolarization(land, c) for c in corners)
    assert worst == pytest.approx(0.117, abs=1e-12)


def test_shuttle_zero_distance_has_unit_amplitude():
    land = make_shuttle_landscape(6)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, 8)
        ev = shuttle_backend_evaluate(land, shuttle_space(), x, distance=0.0)
        assert ev.metadata["true_amplitude"] == 1.0


def test_shuttle_amplitude_decreases_with_distance():
    land = make_shuttle_landscape(3)
    x = np.full(8, 0.3)
    amps = [shuttle_backend_evaluate(land, shuttle_space(), x, distance=d).metadata["true_amplitude"]
            for d in (0.0, 10.0, 100.0, 172.8)]
    assert all(a > b for a, b in zip(amps, amps[1:]))


def test_shuttle_dimension_mismatch():
    land = make_shuttle_landscape(0)
    with pytest.raises(ValueError):
        shuttle_backend_evaluate(land, shuttle_space(), np.full(14, 0.5))


def test_true_visibility_caps_at_ceiling():
    land = make_readout_landscape(8, ceiling=0.995, shot_noise=False)
    space = readout_space()
    assert true_readout_visibility(land, space, land.optimum) == pytest.approx(0.995, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(0.0, 1.0, 14)
        v = true_readout_visibility(land, space, x)
        assert 0.0 < v <= 0.995


def test_inline_fixture_dict_round_trip():
    land = make_shuttle_landscape(12)
    again = HiddenLandscape.from_dict(json.loads(json.dumps(land.to_dict())))
    np.testing.assert_array_equal(again.coupling, land.coupling)


# ------------------------------------------------- a block equals its rows

def _block_and_rows(evaluate, X, seeds):
    """The reprs of one (n, d) call and of n one-row calls, or the error each raises."""
    def outcome(call):
        try:
            return repr(call())
        except ValueError as err:
            return f"ValueError: {err}"

    block = outcome(lambda: evaluate(X, seeds))
    rows = [outcome(lambda i=i: evaluate(X[i], seeds[i])) for i in range(len(X))]
    return block, rows


def _unit_block(data, dim):
    n = data.draw(st.integers(1, 100), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    X = rng.uniform(0.0, 1.0, (n, dim))
    X[rng.random((n, dim)) < 0.05] = data.draw(st.sampled_from([0.0, 1.0, 1.0 + 1e-10]))
    seeds = rng.integers(0, 2**32, n).tolist()
    bad = data.draw(st.sampled_from([None, -0.01, 1.5]), label="out-of-cube value")
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
    # up to 100 rows: the ramp kernel integrates 48 trajectories per chunk
    # at 300 steps, so blocks cross chunk boundaries
    land = make_readout_landscape(data.draw(st.integers(0, 50)),
                                  shot_noise=data.draw(st.booleans()))
    space = readout_space()
    X, seeds, bad = _unit_block(data, 14)
    _assert_block_equals_rows(
        lambda x, s: readout_backend_evaluate(land, space, x, 500, shot_seed=s), X, seeds, bad)
    if bad is None:
        assert repr(true_readout_visibility(land, space, X)) == repr(
            [true_readout_visibility(land, space, x) for x in X])


@settings(max_examples=50)
@given(data=st.data())
def test_shuttle_block_equals_its_rows_bit_for_bit(data):
    land = make_shuttle_landscape(data.draw(st.integers(0, 50)),
                                  shot_noise=data.draw(st.booleans()))
    distance = data.draw(st.sampled_from([0.0, 10.0, DEFAULT_SHUTTLE_DISTANCE_UM]))
    X, seeds, bad = _unit_block(data, 8)
    _assert_block_equals_rows(
        lambda x, s: shuttle_backend_evaluate(land, shuttle_space(), x, distance=distance,
                                              n_shots=300, shot_seed=s), X, seeds, bad)


def test_block_shapes_and_seed_counts_are_checked():
    land = make_shuttle_landscape(0)
    space = shuttle_space()
    with pytest.raises(ValueError, match="dimension 8"):
        shuttle_backend_evaluate(land, space, np.full((3, 8, 1), 0.5))
    with pytest.raises(ValueError, match="3 shot seeds"):
        shuttle_backend_evaluate(land, space, np.full((3, 8), 0.5), shot_seed=[1, 2])
    shared = shuttle_backend_evaluate(make_shuttle_landscape(0, shot_noise=True), space,
                                      np.full((2, 8), 0.5), shot_seed=4)
    assert shared[0] == shared[1]


# --------------------------------------------- the shuttle formula, per row

def test_quadratic_of_a_block_is_the_scalar_form_of_each_row():
    for land in (make_readout_landscape(4), make_shuttle_landscape(4)):
        X = np.random.default_rng(4).uniform(0.0, 1.0, (300, land.optimum.size))
        scalar = [float(d @ land.coupling @ d) for d in X - land.optimum]
        assert land.quadratic(X).tolist() == scalar
        assert [land.quadratic(x) for x in X] == scalar


def reference_shuttle(landscape, x, distance, n_shots, shot_seed):
    """One candidate by the scalar formula: d @ C @ d and Python's float **."""
    d = np.asarray(x, dtype=float) - landscape.optimum
    p = landscape.floor + (SHUTTLE_P_WORST - landscape.floor) * float(d @ landscape.coupling @ d)
    amplitude = (1.0 - p) ** (distance / 10.0)
    meta = {"p": p, "true_amplitude": amplitude, "distance_um": distance}
    if landscape.shot_noise:
        rng = np.random.default_rng((landscape.seed, shot_seed))
        f_plus = rng.binomial(n_shots, 0.5 * (1.0 + amplitude)) / n_shots
        f_minus = rng.binomial(n_shots, 0.5 * (1.0 - amplitude)) / n_shots
        measured = f_plus - f_minus
        meta["shots"] = {"n_shots": n_shots, "f_plus": f_plus, "f_minus": f_minus}
    else:
        measured = amplitude
    meta["amplitude"] = measured
    return 1.0 - measured, meta


@pytest.mark.parametrize("shot_noise", [False, True])
@pytest.mark.parametrize("distance", [0.0, 10.0, DEFAULT_SHUTTLE_DISTANCE_UM])
def test_shuttle_block_matches_the_scalar_formula_byte_for_byte(shot_noise, distance):
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * 8)).T.reshape(-1, 8)
    for seed in range(3):
        land = make_shuttle_landscape(seed, shot_noise=shot_noise)
        X = np.vstack([corners, land.optimum, np.random.default_rng(seed).uniform(0, 1, (200, 8))])
        seeds = list(range(len(X)))
        block = shuttle_backend_evaluate(land, shuttle_space(), X, distance=distance,
                                         n_shots=500, shot_seed=seeds)
        for x, s, ev in zip(X, seeds, block):
            cost, meta = reference_shuttle(land, x, distance, 500, s)
            assert repr(ev.cost) == repr(cost)
            assert json.dumps(ev.metadata, sort_keys=True) == json.dumps(meta, sort_keys=True)
        assert block[len(corners)].metadata["p"] == land.floor
