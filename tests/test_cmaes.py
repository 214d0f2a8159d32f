import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintune.cmaes import (
    Candidate,
    DistributionState,
    StrategyParams,
    ask,
    covariance_snapshot,
    tell,
)


def run_minimizer(fn, n, population, seed, generations, sigma=1.0, mean=None):
    params = StrategyParams.defaults(n, population=population, seed=seed)
    if mean is None:
        mean = np.zeros(n)
    state = DistributionState.initial(mean, sigma=sigma)
    best = np.inf
    for _ in range(generations):
        cands = ask(state, params)
        evaluated = [(c, fn(c.x_raw)) for c in cands]
        best = min(best, min(cost for _, cost in evaluated))
        state = tell(state, params, evaluated)
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
    params = StrategyParams.defaults(6, population=14)
    assert params.population == 14
    assert params.parents == 7
    w = np.asarray(params.weights)
    assert np.all(w > 0)
    assert np.all(np.diff(w) <= 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_ask_returns_population_and_records_z_y_x():
    params = StrategyParams.defaults(3, population=8, seed=5)
    state = DistributionState.initial(np.full(3, 0.5), sigma=0.25)
    cands = ask(state, params)
    assert len(cands) == 8
    for c in cands:
        assert isinstance(c, Candidate)
        np.testing.assert_allclose(c.x_raw, state.mean + state.sigma * c.y, atol=1e-14)
        np.testing.assert_allclose(c.x, np.clip(c.x_raw, 0.0, 1.0), atol=0)
    # identity covariance: y equals z exactly
    for c in cands:
        np.testing.assert_allclose(c.y, c.z, atol=1e-14)


def test_ask_is_deterministic_in_seed_and_generation():
    params = StrategyParams.defaults(4, population=6, seed=9)
    state = DistributionState.initial(np.zeros(4))
    a = ask(state, params)
    b = ask(state, params)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.z, cb.z)
    # a different generation draws a different block
    bumped = tell(state, params, [(c, sphere(c.x_raw)) for c in a])
    c2 = ask(bumped, params)
    assert not np.array_equal(a[0].z, c2[0].z)


def test_tell_increments_generation_and_keeps_covariance_symmetric():
    params = StrategyParams.defaults(5, population=10, seed=1)
    state = DistributionState.initial(np.zeros(5))
    for _ in range(10):
        cands = ask(state, params)
        state = tell(state, params, [(c, sphere(c.x_raw)) for c in cands])
    assert state.generation == 10
    np.testing.assert_allclose(state.cov, state.cov.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(state.cov) > 0)


def test_tell_requires_full_generation():
    params = StrategyParams.defaults(3, population=6, seed=2)
    state = DistributionState.initial(np.zeros(3))
    cands = ask(state, params)
    with pytest.raises(ValueError):
        tell(state, params, [(cands[0], 1.0)])


def test_tell_ranks_by_cost_not_input_order():
    params = StrategyParams.defaults(3, population=6, seed=7)
    state = DistributionState.initial(np.zeros(3))
    cands = ask(state, params)
    evaluated = [(c, sphere(c.x_raw)) for c in cands]
    forward = tell(state, params, evaluated)
    shuffled = tell(state, params, list(reversed(evaluated)))
    np.testing.assert_allclose(forward.mean, shuffled.mean, atol=0)
    np.testing.assert_allclose(forward.cov, shuffled.cov, atol=0)


def test_mean_moves_toward_sphere_optimum():
    best, state = run_minimizer(sphere, 5, 10, 3, 40, mean=np.full(5, 2.0))
    assert np.linalg.norm(state.mean) < 2.0 * np.sqrt(5)
    assert best < sphere(np.full(5, 2.0))


def test_covariance_snapshot_is_a_tagged_copy():
    params = StrategyParams.defaults(2, population=6, seed=0)
    state = DistributionState.initial(np.zeros(2))
    snap = covariance_snapshot(state)
    assert snap.shape == (2, 2)
    snap[0, 0] = 99.0
    assert state.cov[0, 0] == 1.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        StrategyParams.defaults(0, population=4)
    with pytest.raises(ValueError):
        StrategyParams.defaults(3, population=1)
    with pytest.raises(ValueError):
        DistributionState.initial(np.zeros(3), sigma=-1.0)


def test_derived_constants_are_not_arguments():
    with pytest.raises(TypeError):
        StrategyParams(3, 6, parents=2)
    with pytest.raises(ValueError):
        StrategyParams(3, 6, seed=-1)
    assert StrategyParams.defaults(3, 6) == StrategyParams(3, 6, 0)


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


def test_degenerate_direction_is_repaired_not_fatal():
    # a cost flat in one coordinate drives that eigenvalue toward zero;
    # the sampler must floor it and keep going
    params = StrategyParams.defaults(3, population=12, seed=4)
    state = DistributionState.initial(np.zeros(3), sigma=0.5)

    def flat_axis(x):
        return float(x[0] ** 2 + x[1] ** 2)

    for _ in range(60):
        cands = ask(state, params)
        state = tell(state, params, [(c, flat_axis(c.x_raw)) for c in cands])
    assert np.all(np.isfinite(state.cov))
    assert np.all(np.linalg.eigvalsh(state.cov) > 0)
