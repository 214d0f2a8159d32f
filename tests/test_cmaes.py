import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintune.cmaes import (
    DistributionState,
    StrategyParams,
    ask,
    tell,
)


def run_minimizer(fn, n, population, seed, generations, sigma=1.0, mean=None):
    params = StrategyParams(n, population=population, seed=seed)
    if mean is None:
        mean = np.zeros(n)
    state = DistributionState.initial(mean, sigma=sigma)
    best = np.inf
    for _ in range(generations):
        points, steps = ask(state, params)
        costs = [fn(x) for x in points]
        best = min(best, min(costs))
        state = tell(state, params, steps, costs)
    return best, state


def sphere(x):
    return float(np.sum(x * x))


def test_initial_state_defaults():
    state = DistributionState.initial(np.zeros(4))
    assert state.sigma == 1.0
    assert np.array_equal(state.cov, np.eye(4))
    assert state.generation == 0
    assert np.all(state.p_sigma == 0.0)
    assert np.all(state.p_c == 0.0)


def test_default_parents_are_half_population():
    params = StrategyParams(6, population=14)
    assert params.population == 14
    assert params.parents == 7
    w = np.asarray(params.weights)
    assert np.all(w > 0)
    assert np.all(np.diff(w) <= 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_ask_returns_population_and_records_z_y_x():
    params = StrategyParams(3, population=8, seed=5)
    state = DistributionState.initial(np.full(3, 0.5), sigma=0.25)
    points, steps = ask(state, params)
    assert points.shape == steps.shape == (8, 3)
    np.testing.assert_allclose(points, state.mean + state.sigma * steps, atol=1e-14)
    # identity covariance: the steps are the normal draw z itself
    z = np.random.default_rng((5, 0)).standard_normal((8, 3))
    np.testing.assert_allclose(steps, z, atol=1e-14)


def test_ask_is_deterministic_in_seed_and_generation():
    params = StrategyParams(4, population=6, seed=9)
    state = DistributionState.initial(np.zeros(4))
    a_points, a_steps = ask(state, params)
    b_points, b_steps = ask(state, params)
    assert np.array_equal(a_steps, b_steps) and np.array_equal(a_points, b_points)
    # a different generation draws a different block
    bumped = tell(state, params, a_steps, [sphere(x) for x in a_points])
    _, c_steps = ask(bumped, params)
    assert not np.array_equal(a_steps[0], c_steps[0])


def test_tell_increments_generation_and_keeps_covariance_symmetric():
    params = StrategyParams(5, population=10, seed=1)
    state = DistributionState.initial(np.zeros(5))
    for _ in range(10):
        points, steps = ask(state, params)
        state = tell(state, params, steps, [sphere(x) for x in points])
    assert state.generation == 10
    np.testing.assert_allclose(state.cov, state.cov.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(state.cov) > 0)


def test_a_told_state_is_the_checked_state_of_its_values():
    params = StrategyParams(4, population=8, seed=3)
    state = DistributionState.initial(np.zeros(4))
    for _ in range(3):
        points, steps = ask(state, params)
        state = tell(state, params, steps, [sphere(x) for x in points])
    checked = DistributionState(**{f.name: getattr(state, f.name) for f in fields(state)})
    for f in fields(state):
        told, want = getattr(state, f.name), getattr(checked, f.name)
        assert type(told) is type(want) and np.array_equal(told, want), f.name
    assert not any(a.flags.writeable for a in (state.mean, state.cov, state.p_sigma, state.p_c))


def test_a_tell_that_overflows_raises():
    # steps of 3 once whitened, so sigma stays finite while the rank-mu term overflows
    params = StrategyParams(3, population=6, seed=0)
    state = DistributionState(mean=np.zeros(3), sigma=1.0, cov=1e308 * np.eye(3),
                              p_sigma=np.zeros(3), p_c=np.zeros(3))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        tell(state, params, np.full((6, 3), 3e154), np.arange(6.0))


def test_tell_requires_full_generation():
    params = StrategyParams(3, population=6, seed=2)
    state = DistributionState.initial(np.zeros(3))
    points, steps = ask(state, params)
    costs = [sphere(x) for x in points]
    with pytest.raises(ValueError):
        tell(state, params, steps[:1], costs[:1])
    with pytest.raises(ValueError):
        tell(state, params, steps[:, :2], costs)
    with pytest.raises(ValueError):
        tell(state, params, steps, costs[:-1])
    with pytest.raises(ValueError):
        tell(state, params, steps, [math.nan] * 3 + [math.inf] * 3)


def test_tell_ranks_by_cost_not_input_order():
    params = StrategyParams(3, population=6, seed=7)
    state = DistributionState.initial(np.zeros(3))
    points, steps = ask(state, params)
    costs = [sphere(x) for x in points]
    forward = tell(state, params, steps, costs)
    shuffled = tell(state, params, steps[::-1], costs[::-1])
    np.testing.assert_allclose(forward.mean, shuffled.mean, atol=0)
    np.testing.assert_allclose(forward.cov, shuffled.cov, atol=0)


_COST_POOL = (0.0, 0.0, 0.5, 1.0, 2.0, math.inf, -math.inf, math.nan)


@settings(max_examples=200, deadline=None)
@given(lam=st.integers(2, 12), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_tell_ranks_rows_by_cost_then_row_number(lam, n, seed, data):
    # non-finite costs rank worst, ties go to the earlier row: the update equals
    # the one for the rows sorted by (finite cost or inf, row) and costed 0..lam-1
    costs = data.draw(st.lists(st.sampled_from(_COST_POOL), min_size=lam, max_size=lam)
                      .filter(lambda cs: any(math.isfinite(c) for c in cs)))
    params = StrategyParams(n, lam, seed)
    state = DistributionState.initial(np.full(n, 0.5), sigma=0.3)
    _, steps = ask(state, params)
    order = sorted(range(lam), key=lambda i: (costs[i] if math.isfinite(costs[i]) else math.inf, i))
    got = tell(state, params, steps, costs)
    want = tell(state, params, steps[order], list(range(lam)))
    for name, value in vars(got).items():
        assert np.array_equal(value, vars(want)[name]), name


def test_mean_moves_toward_sphere_optimum():
    best, state = run_minimizer(sphere, 5, 10, 3, 40, mean=np.full(5, 2.0))
    assert np.linalg.norm(state.mean) < 2.0 * np.sqrt(5)
    assert best < sphere(np.full(5, 2.0))


def test_the_state_covariance_is_a_read_only_copy():
    # the state's own arrays are read-only copies, so its eigensystem cannot go stale
    cov = np.eye(2)
    state = replace(DistributionState.initial(np.zeros(2)), cov=cov)
    cov[1, 1] = 1e-20
    assert state.cov[1, 1] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        state.cov[1, 1] = 1e-20


def test_parameter_validation():
    with pytest.raises(ValueError):
        StrategyParams(0, population=4)
    with pytest.raises(ValueError):
        StrategyParams(3, population=1)
    with pytest.raises(ValueError, match="state dimension does not match"):
        ask(DistributionState.initial(np.zeros(2)), StrategyParams(3, population=4))
    for sigma in (-1.0, True):
        with pytest.raises(ValueError, match="sigma"):
            DistributionState.initial(np.zeros(3), sigma=sigma)
    assert type(DistributionState.initial(np.zeros(3), sigma=np.float64(0.5)).sigma) is float
    for name in ("mean", "p_sigma", "p_c"):
        # a bool among floats, which numpy alone reads as 1.0 or 0.0
        for bad in (math.nan, math.inf, [0.0, True, 0.0], [False, 0.5, 0.5]):
            fields = vars(DistributionState.initial(np.zeros(3))).copy()
            fields[name] = np.array([0.0, bad, 0.0]) if isinstance(bad, float) else bad
            with pytest.raises(ValueError, match=name):
                DistributionState(**fields)
    for name, bad in (("sigma", True), ("sigma", math.inf), ("generation", True),
                      ("generation", 1.0), ("generation", -1)):
        with pytest.raises(ValueError, match=name):
            replace(DistributionState.initial(np.zeros(3)), **{name: bad})


def test_derived_constants_are_not_arguments():
    with pytest.raises(TypeError):
        StrategyParams(3, 6, parents=2)
    with pytest.raises(ValueError):
        StrategyParams(3, 6, seed=-1)
    assert StrategyParams(3, 6) == StrategyParams(3, 6, 0)
    # a bool or a fraction is no integer: refused, never truncated
    for args in ((3, 4.5), (3.0, 6), (True, 6), (3, 6, True), (3, 6, 1.5), (3, "6")):
        with pytest.raises(ValueError, match="must be an integer"):
            StrategyParams(*args)
    assert StrategyParams(np.int64(3), np.int64(6)) == StrategyParams(3, 6)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 200), lam=st.integers(2, 5000))
def test_derived_constants_keep_the_strategy_invariants(n, lam):
    params = StrategyParams(n, lam)
    assert 1 <= params.parents <= lam
    w = params.weights
    assert w.shape == (params.parents,)
    assert np.all(w > 0) and np.all(np.diff(w) <= 0)
    assert abs(w.sum() - 1.0) <= 1e-12
    for rate in (params.c_sigma, params.c_c, params.c_1):
        assert 0.0 < rate <= 1.0
    # a single parent has no rank-mu update, so c_mu may be exactly 0
    assert 0.0 <= params.c_mu <= 1.0
    assert params.c_1 + params.c_mu <= 1.0 + 1e-12
    assert params.d_sigma >= 1.0


def test_ask_and_tell_decompose_a_distribution_once(monkeypatch):
    params = StrategyParams(8, population=50, seed=3)
    state = DistributionState.initial(np.zeros(8))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    for generation in range(3):
        points, steps = ask(state, params)
        state = tell(state, params, steps, [sphere(x - 1.0) for x in points])
        assert len(calls) == generation + 1


def test_a_covariance_repair_warns_once_per_generation():
    # ask and tell share one repaired eigensystem; only the sampler warns
    params = StrategyParams(3, population=6, seed=1)
    state = replace(DistributionState.initial(np.zeros(3)), cov=np.diag([1.0, 1.0, 1e-20]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points, steps = ask(state, params)
        tell(state, params, steps, np.arange(6.0))
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "below floor" in str(caught[0].message)


def test_degenerate_direction_is_repaired_not_fatal():
    # a cost flat in one coordinate drives that eigenvalue toward zero;
    # the sampler must floor it and keep going
    params = StrategyParams(3, population=12, seed=4)
    state = DistributionState.initial(np.zeros(3), sigma=0.5)

    def flat_axis(x):
        return float(x[0] ** 2 + x[1] ** 2)

    for _ in range(60):
        points, steps = ask(state, params)
        state = tell(state, params, steps, [flat_axis(x) for x in points])
    assert np.all(np.isfinite(state.cov))
    assert np.all(np.linalg.eigvalsh(state.cov) > 0)
