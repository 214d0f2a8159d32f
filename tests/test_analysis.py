import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintune import harness
from spintune.analysis import (
    CovarianceSeries,
    covariance_average,
    covariance_trajectory,
    fit_decay,
    fit_rabi,
    hdmr_first_order,
    shuttle_fidelity,
)
from spintune.rb import per_gate_fidelity


# ---------------------------------------------------------------- decay fits

def decay_data(a, p, c, n_points=20):
    xs = np.unique(np.linspace(1, 300, n_points).astype(int)).astype(float)
    return xs, a * p**xs + c


def test_fit_decay_recovers_planted_parameters():
    xs, ys = decay_data(0.5, 0.9925, 0.5)
    fit = fit_decay(xs, ys)
    assert fit.converged
    assert fit.params["p"] == pytest.approx(0.9925, abs=1e-6)
    assert fit.params["A"] == pytest.approx(0.5, abs=1e-5)
    assert fit.params["C"] == pytest.approx(0.5, abs=1e-5)
    assert fit.residual_norm < 1e-9


def test_fit_decay_supports_gate_fidelity_readout():
    xs, ys = decay_data(0.5, 0.992, 0.5)
    fit = fit_decay(xs, ys)
    assert fit.converged
    gate_fidelity = per_gate_fidelity(fit.params["p"])
    assert gate_fidelity == pytest.approx(1.0 - 0.008 / 3.75, abs=1e-6)
    assert round(gate_fidelity, 3) == 0.998


def test_fit_decay_flat_data_degenerates_to_offset():
    xs = np.linspace(1, 100, 25)
    fit = fit_decay(xs, np.full_like(xs, 0.7))
    assert fit.converged
    assert abs(fit.params["A"]) < 1e-3
    assert fit.params["C"] == pytest.approx(0.7, abs=1e-4)
    assert fit.residual_norm < 1e-6


def test_fit_decay_input_validation():
    with pytest.raises(ValueError):
        fit_decay(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.9, 0.8]))
    with pytest.raises(ValueError):
        fit_decay(np.array([-1.0, 2.0, 3.0, 4.0]), np.zeros(4))


def test_fit_decay_scale_consistency():
    xs, ys = decay_data(0.4, 0.97, 0.3, n_points=30)
    base = fit_decay(xs, ys)
    scaled = fit_decay(xs, 1.7 * ys)
    assert scaled.params["p"] == pytest.approx(base.params["p"], abs=1e-9)
    assert scaled.params["A"] == pytest.approx(1.7 * base.params["A"], rel=1e-7)
    assert scaled.params["C"] == pytest.approx(1.7 * base.params["C"], rel=1e-7)


def test_fit_decay_reports_nonnegative_std_errors():
    xs, ys = decay_data(0.5, 0.99, 0.5)
    fit = fit_decay(xs, ys)
    assert all(v >= 0 for v in fit.std_errors.values())
    assert set(fit.std_errors) == {"A", "p", "C"}


def profile_oracle(xs, ys, n_grid=20001):
    """Lowest residual norm of y = A * p**x + C over a dense q = 1 - p grid.

    At each q the bounded linear problem in (A, C), with A in
    [1e-12, max(2, 2 * span)] and C in [-1, 1], is solved by active sets:
    the free optimum, each bound held with the other variable free, and
    the four corners; a candidate counts only if it is feasible.
    """
    lo, hi = 1e-12, max(2.0, 2.0 * float(np.ptp(ys)))
    q = np.concatenate([[0.0], np.logspace(-14.0, np.log10(1.0 - 1e-9), n_grid)])
    b = (1.0 - q)[:, None] ** xs
    n, sb, bb = xs.size, b.sum(axis=1), (b * b).sum(axis=1)
    sy, by = ys.sum(), b @ ys
    det = n * bb - sb * sb
    with np.errstate(divide="ignore", invalid="ignore"):
        candidates = [((n * by - sb * sy) / det, (bb * sy - sb * by) / det)]
        candidates += [(np.full_like(q, a), (sy - a * sb) / n) for a in (lo, hi)]
        candidates += [((by - c * sb) / bb, np.full_like(q, c)) for c in (-1.0, 1.0)]
    candidates += [(np.full_like(q, a), np.full_like(q, c)) for a in (lo, hi) for c in (-1.0, 1.0)]
    best = np.inf
    for a, c in candidates:
        feasible = (a >= lo) & (a <= hi) & (np.abs(c) <= 1.0)
        norms = np.linalg.norm(a[feasible, None] * b[feasible] + c[feasible, None] - ys, axis=1)
        best = min(best, float(np.min(norms, initial=np.inf)))
    return best


@settings(max_examples=60)
@given(
    a=st.floats(1e-3, 1.0),
    log_q=st.floats(-9.0, 0.0),
    c=st.floats(-0.5, 0.5),
    lengths=st.lists(st.integers(0, 400), min_size=4, max_size=30, unique=True),
    noise=st.floats(0.0, 0.05),
    noise_seed=st.integers(0, 2**32 - 1),
)
def test_fit_decay_is_no_worse_than_the_dense_profile_grid(a, log_q, c, lengths, noise,
                                                           noise_seed):
    xs = np.sort(np.array(lengths, dtype=float))
    rng = np.random.default_rng(noise_seed)
    ys = a * (1.0 - 10.0**log_q) ** xs + c + rng.uniform(-noise, noise, xs.size)
    fit = fit_decay(xs, ys)
    assert fit.converged
    assert fit.residual_norm <= profile_oracle(xs, ys) * (1 + 1e-9) + 1e-15


# A high-p curve (p = 1 - 2.26e-5, 1e-4 uniform noise, rounded to 1e-7) on
# which eight finite-difference starts stopped short: residual 1.7280e-4,
# not converged.
HIGH_P_XS = np.array([1, 3, 6, 10, 16, 24, 40, 60, 90, 140, 200, 300], dtype=float)
HIGH_P_YS = np.array([0.9999178, 0.9999046, 1.0000177, 0.9998974, 0.9997551, 0.9998054,
                      0.999576, 0.9993357, 0.9989582, 0.998401, 0.9976905, 0.9965254])


def test_fit_decay_reaches_the_profile_optimum_on_a_high_p_curve():
    fit = fit_decay(HIGH_P_XS, HIGH_P_YS)
    oracle = profile_oracle(HIGH_P_XS, HIGH_P_YS)
    assert oracle < 1.72e-4
    assert fit.converged
    assert fit.residual_norm <= oracle * (1 + 1e-9) + 1e-15


def test_fit_decay_at_the_fastest_decay_bound():
    # the best p is the bound 1e-9, which 1 - q reaches only up to rounding
    xs = np.array([0, 1, 2, 3, 5, 8], dtype=float)
    ys = np.array([1.0, 0.5, 0.5, 0.5, 0.5, 0.5])
    fit = fit_decay(xs, ys)
    assert fit.converged
    assert fit.params["p"] == pytest.approx(1e-9, rel=1e-6)
    assert fit.residual_norm <= profile_oracle(xs, ys) * (1 + 1e-9) + 1e-15


def test_fit_decay_rising_curve_falls_back_to_the_amplitude_floor():
    xs = HIGH_P_XS
    ys = 0.6 - 0.3 * 0.98**xs
    fit = fit_decay(xs, ys)
    assert fit.params["A"] == 1e-12
    assert fit.residual_norm == pytest.approx(np.linalg.norm(ys - ys.mean()), rel=1e-12)


# ----------------------------------------------------------------- Rabi fits

RABI_TRUE = {"V_R": 0.993, "omega": 2 * np.pi * 5.0, "phi": 0.0, "tau": 10.0}


def rabi_signal(ts):
    return (RABI_TRUE["V_R"] * np.cos(RABI_TRUE["omega"] * ts + RABI_TRUE["phi"])
            * np.exp(-ts / RABI_TRUE["tau"]))


def test_fit_rabi_recovers_planted_parameters():
    ts = np.linspace(0.0, 10.0, 200)
    fit = fit_rabi(ts, rabi_signal(ts))
    assert fit.converged
    for name in ("V_R", "omega", "tau"):
        assert fit.params[name] == pytest.approx(RABI_TRUE[name], rel=1e-6)
    assert abs(fit.params["phi"] - RABI_TRUE["phi"]) < 1e-6


def test_fit_rabi_flat_signal_does_not_converge():
    ts = np.linspace(0.0, 10.0, 200)
    fit = fit_rabi(ts, np.zeros_like(ts))
    assert not fit.converged


def test_fit_rabi_scale_consistency():
    ts = np.linspace(0.0, 10.0, 200)
    ys = rabi_signal(ts)
    base = fit_rabi(ts, ys)
    scaled = fit_rabi(ts, 0.31 * ys)
    assert scaled.params["V_R"] == pytest.approx(0.31 * base.params["V_R"], rel=1e-7)
    assert scaled.params["omega"] == pytest.approx(base.params["omega"], abs=1e-9 * base.params["omega"])
    assert scaled.params["tau"] == pytest.approx(base.params["tau"], rel=1e-7)


def test_fit_rabi_visibility_error_bars_have_coverage():
    ts = np.linspace(0.0, 10.0, 200)
    clean = rabi_signal(ts)
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        fit = fit_rabi(ts, clean + rng.normal(0.0, 0.02, ts.size))
        if not fit.converged:
            continue
        if abs(fit.params["V_R"] - RABI_TRUE["V_R"]) <= 3 * fit.std_errors["V_R"]:
            hits += 1
    assert hits >= 95


def test_fit_rabi_needs_enough_points():
    ts = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        fit_rabi(ts, np.cos(ts))


# --------------------------------------------------------- fidelity formula

def test_shuttle_fidelity_reference_points():
    assert shuttle_fidelity(0.117) == pytest.approx(0.961, abs=5e-4)
    assert shuttle_fidelity(0.0192) == pytest.approx(0.9936, abs=5e-5)
    assert shuttle_fidelity(0.0) == 1.0


def test_shuttle_fidelity_rejects_out_of_range():
    with pytest.raises(ValueError):
        shuttle_fidelity(-0.1)
    with pytest.raises(ValueError):
        shuttle_fidelity(1.2)


# ------------------------------------------------------- sensitivity indices

def ishigami_sample(n=10_000, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, 3))
    z = np.pi * (2.0 * x - 1.0)
    g = np.sin(z[:, 0]) + 7.0 * np.sin(z[:, 1]) ** 2 + 0.1 * z[:, 2] ** 4 * np.sin(z[:, 0])
    return x, g


def test_hdmr_matches_analytic_ishigami_indices():
    x, g = ishigami_sample()
    report = hdmr_first_order(x, g, names=["z1", "z2", "z3"])
    assert report.first_order["z1"] == pytest.approx(0.3139, abs=0.03)
    assert report.first_order["z2"] == pytest.approx(0.4424, abs=0.03)
    assert report.first_order["z3"] == pytest.approx(0.0, abs=0.03)


def test_hdmr_additive_quadratic_recovers_weight_ratios():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, (4000, 3))
    weights = np.array([1.0, 2.0, 4.0])
    costs = ((x - 0.5) ** 2 @ weights)
    report = hdmr_first_order(x, costs)
    expected = weights**2 / np.sum(weights**2)
    got = np.array([report.first_order[f"x{i}"] for i in range(3)])
    np.testing.assert_allclose(got, expected, atol=0.02)
    assert report.residual < 0.02
    total = sum(report.first_order.values()) + report.residual
    assert 0.9 < total < 1.1


def test_hdmr_constant_costs_give_zero_indices():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, (200, 2))
    report = hdmr_first_order(x, np.full(200, 3.25))
    assert all(v == 0.0 for v in report.first_order.values())
    assert report.residual == 0.0
    assert all(v == 0.0 for v in report.normalized_contributions().values())


def test_hdmr_constant_parameter_column_warns_and_scores_zero():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, (300, 3))
    x[:, 2] = 0.5
    costs = np.sin(2 * np.pi * x[:, 0]) + x[:, 1] ** 2
    with pytest.warns(RuntimeWarning):
        report = hdmr_first_order(x, costs)
    assert report.first_order["x2"] == pytest.approx(0.0, abs=1e-9)


def test_hdmr_affine_cost_invariance():
    x, g = ishigami_sample(n=2000, seed=5)
    base = hdmr_first_order(x, g)
    shifted = hdmr_first_order(x, -2.5 * g + 7.0)
    for name, value in base.first_order.items():
        assert shifted.first_order[name] == pytest.approx(value, abs=1e-9)
    assert shifted.residual == pytest.approx(base.residual, abs=1e-9)


def test_hdmr_row_permutation_invariance():
    x, g = ishigami_sample(n=1500, seed=6)
    perm = np.random.default_rng(7).permutation(len(g))
    base = hdmr_first_order(x, g)
    shuffled = hdmr_first_order(x[perm], g[perm])
    for name, value in base.first_order.items():
        assert shuffled.first_order[name] == pytest.approx(value, abs=1e-9)


def test_hdmr_normalized_contributions_sum_to_one():
    x, g = ishigami_sample(n=1000, seed=8)
    shares = hdmr_first_order(x, g).normalized_contributions()
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)


def test_hdmr_input_validation():
    rng = np.random.default_rng(0)
    small = rng.uniform(0.0, 1.0, (20, 3))
    with pytest.raises(ValueError):
        hdmr_first_order(small, np.zeros(20))
    x = rng.uniform(0.0, 1.0, (60, 3))
    with pytest.raises(ValueError):
        hdmr_first_order(x, np.zeros(59))
    with pytest.raises(ValueError):
        hdmr_first_order(x + 5.0, np.zeros(60))
    with pytest.raises(ValueError):
        hdmr_first_order(x, np.zeros(60), names=["a", "b"])
    with pytest.raises(ValueError):
        hdmr_first_order(np.zeros(60), np.zeros(60))


# -------------------------------------------------------- covariance algebra

def series_with(matrix, generations=(0, 1)):
    n = matrix.shape[0]
    mats = np.stack([np.eye(n)] + [matrix] * (len(generations) - 1))
    return CovarianceSeries(generations=generations, matrices=mats)


def test_covariance_series_validates_shapes():
    with pytest.raises(ValueError):
        CovarianceSeries(generations=(0,), matrices=np.eye(2))
    with pytest.raises(ValueError):
        CovarianceSeries(generations=(0, 1), matrices=np.ones((1, 2, 2)))
    with pytest.raises(ValueError):
        CovarianceSeries(generations=(0,), matrices=np.ones((1, 2, 3)))
    lopsided = np.array([[[1.0, 0.5], [0.1, 1.0]]])
    with pytest.raises(ValueError):
        CovarianceSeries(generations=(0,), matrices=lopsided)


def test_covariance_series_lookup_by_generation():
    m = np.array([[2.0, 0.3], [0.3, 1.0]])
    series = series_with(m)
    np.testing.assert_array_equal(series.matrix_at(1), m)
    with pytest.raises(KeyError):
        series.matrix_at(5)


def test_covariance_average_single_run_is_identity_operation():
    m = np.array([[1.5, -0.2], [-0.2, 0.7]])
    series = series_with(m)
    np.testing.assert_allclose(covariance_average([series], 1), m)


def test_covariance_average_cancels_opposite_runs():
    m = np.array([[0.0, 0.8], [0.8, 0.0]])
    avg = covariance_average([series_with(m), series_with(-m)], 1)
    np.testing.assert_allclose(avg, np.zeros((2, 2)), atol=1e-15)


def test_covariance_average_is_linear_under_duplication():
    m = np.array([[1.1, 0.4], [0.4, 0.9]])
    series = series_with(m)
    single = covariance_average([series], 1)
    doubled = covariance_average([series, series], 1)
    np.testing.assert_allclose(doubled, single)


def test_covariance_average_requires_shared_generation_and_shape():
    a = series_with(np.array([[1.0, 0.0], [0.0, 1.0]]), generations=(0, 1))
    b = series_with(np.eye(3), generations=(0, 1))
    with pytest.raises(KeyError):
        covariance_average([a], 3)
    with pytest.raises(ValueError):
        covariance_average([a, b], 1)
    with pytest.raises(ValueError):
        covariance_average([], 0)


def test_covariance_trajectory_orders_generations():
    m = np.array([[0.5, 0.1], [0.1, 0.5]])
    series = series_with(m, generations=(0, 1, 2))
    traj = covariance_trajectory(series, (0, 1))
    assert [g for g, _ in traj] == [0, 1, 2]
    assert traj[0][1] == 0.0
    assert traj[-1][1] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        covariance_trajectory(series, (0, 5))


# ------------------------------------------- behavior on real optimizer runs

@pytest.fixture(scope="module")
def readout_run_series():
    out = []
    for seed in range(10):
        config = harness.RunConfig(task="readout", generations=30,
                                   population=30, seed=seed, shots=1000)
        out.append(harness.covariance_series(harness.run(config)))
    return out


def test_trajectories_start_from_identity(readout_run_series):
    for series in readout_run_series:
        np.testing.assert_array_equal(series.matrix_at(0), np.eye(14))


def test_planted_crosstalk_pairs_set_final_covariance_signs(readout_run_series):
    names = harness.space_for_task("readout").names
    i_pos, j_pos = names.index("ve12_read"), names.index("B2_read")
    i_neg, j_neg = names.index("vmu12_read"), names.index("B1_read")
    positive = sum(covariance_trajectory(s, (i_pos, j_pos))[-1][1] > 0
                   for s in readout_run_series)
    negative = sum(covariance_trajectory(s, (i_neg, j_neg))[-1][1] < 0
                   for s in readout_run_series)
    assert positive >= 8
    assert negative >= 8


def test_converging_run_shrinks_diagonal_variance(readout_run_series):
    shrunk = sum(covariance_trajectory(s, (0, 0))[-1][1]
                 < covariance_trajectory(s, (0, 0))[0][1]
                 for s in readout_run_series)
    assert shrunk >= 8


def test_averaged_gate_covariance_couples_duration_and_amplitude():
    config = harness.RunConfig(task="single_qubit", generations=10,
                               population=10, seed=11, shots=100)
    result = harness.batch(config, repeats=44)
    series = [harness.covariance_series(r) for r in result.records]
    averaged = covariance_average(series, 10)
    names = harness.space_for_task("single_qubit").names
    i, j = names.index("t_d"), names.index("A")
    assert averaged[i, j] < 0
    np.testing.assert_allclose(averaged, averaged.T, atol=1e-12)
