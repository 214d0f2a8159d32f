import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spintune import analysis, backends, harness
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
    # a non-finite value is no error: the fit is empty and unconverged
    fit = fit_decay(np.arange(4.0), np.array([1.0, np.inf, 0.8, 0.7]))
    assert fit.params == fit.std_errors == {}
    assert fit.residual_norm == np.inf and not fit.converged


def test_fit_decay_refuses_mismatched_or_non_finite_positions():
    xs, ys = decay_data(0.5, 0.99, 0.5)
    with pytest.raises(ValueError, match="one length"):
        fit_decay(xs, ys[:-1])
    with pytest.raises(ValueError, match="one length"):
        fit_decay(xs[None], ys[None])
    xs[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fit_decay(xs, ys)


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


# Each is a curve whose best point on the bracketing grid is one of the grid's
# kinds: q = 0, the first log point 1e-12, the last (p = 1e-9), and the interior.
FAR_XS = np.linspace(0.0, 1e9, 12)
SEARCH_EDGES = {
    "q = 0": (HIGH_P_XS, 0.6 - 0.3 * 0.98**HIGH_P_XS, 0),
    "q = 1e-12": (FAR_XS, 0.5 * (1 - 1e-12) ** FAR_XS + 0.4, 1),
    "p = 1e-9": (np.array([0, 1, 2, 3, 5, 8], dtype=float),
                 np.array([1.0, 0.5, 0.5, 0.5, 0.5, 0.5]), analysis._Q_GRID.size - 1),
    "interior": (HIGH_P_XS, 0.5 * 0.99**HIGH_P_XS + 0.45, None),
}


@pytest.mark.parametrize("edge", SEARCH_EDGES)
def test_fit_decay_search_ends_at_each_edge_of_its_grid(edge, monkeypatch):
    xs, ys, k_expected = SEARCH_EDGES[edge]
    a_max = max(2.0, 2.0 * float(np.ptp(ys)))
    grid_norms = analysis._decay_profile(analysis._Q_GRID, xs, ys, a_max)[2]
    k = int(np.argmin(grid_norms))
    if k_expected is None:
        assert 1 < k < analysis._Q_GRID.size - 1
    else:
        assert k == k_expected
    calls = []
    profile = analysis._decay_profile
    monkeypatch.setattr(analysis, "_decay_profile", lambda *args: calls.append(1) or profile(*args))
    fit = fit_decay(xs, ys)
    assert fit.converged
    assert 1e-9 <= fit.params["p"] <= 1.0
    assert fit.residual_norm <= grid_norms[k]
    # the grid, then one zoom per 32-fold narrowing of a bracket at most 1 wide, then (A, C)
    assert len(calls) <= 2 + int(np.ceil(np.log(1.0 / analysis._Q_XATOL) / np.log(32.0)))


# ----------------------------------------------------------------- Rabi fits

RABI_TRUE = {"V_R": 0.993, "omega": 2 * np.pi * 5.0, "phi": 0.0, "tau": 10.0}


def rabi_signal(ts):
    return (RABI_TRUE["V_R"] * np.cos(RABI_TRUE["omega"] * ts + RABI_TRUE["phi"])
            * np.exp(-ts / RABI_TRUE["tau"]))


def test_fit_rabi_recovers_planted_parameters():
    # time is counted from the first sample, wherever the window starts
    for t0 in (0.0, 30.0, 1000.0):
        ts = t0 + np.linspace(0.0, 10.0, 200)
        fit = fit_rabi(ts, rabi_signal(ts - t0))
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


def test_fit_rabi_gives_one_answer_in_any_units():
    # the fit runs on unit-peak data, so neither the polish tolerances nor the range of
    # floats depend on the units the probabilities are written in
    ts = np.linspace(0.0, 10.0, 200)
    ps = np.cos(2 * np.pi * 5 * ts) * np.exp(-ts / 10)
    base = fit_rabi(ts, ps)
    assert base.converged and base.params["tau"] == pytest.approx(10.0, rel=1e-9)
    for s in (1e-6, 1e-3, 1.0, 1e3, 1e30, 1e300):
        fit = fit_rabi(ts, s * ps)
        assert fit.converged, s
        got = {**fit.params, "V_R": fit.params["V_R"] / s}
        np.testing.assert_allclose([got[k] for k in base.params], list(base.params.values()),
                                   rtol=1e-9, atol=1e-12, err_msg=f"scale {s}")
        assert fit.residual_norm / s == pytest.approx(base.residual_norm, rel=1e-3, abs=1e-12)


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


def rabi_profile_oracle(ts, ps, n_omega=600, n_tau=200):
    """Lowest residual norm of P = exp(-t / tau) (a cos wt + b sin wt) over a dense grid.

    w spans the fit's bounds [0.3, 3] w0 around the spectral peak w0, tau is
    log-spaced over 1e-2 to 1e2 times the span, and at each grid point (a, b)
    solves the 2 x 2 normal equations exactly. Points where one column nearly
    vanishes are skipped (at multiples of pi / dt sin(w t) is rounding noise on
    the samples), so every value is the residual of a well-determined (a, b).
    """
    k_peak = int(np.argmax(np.abs(np.fft.rfft(ps - ps.mean()))[1:])) + 1
    w0 = 2.0 * np.pi * np.fft.rfftfreq(ts.size, ts[1] - ts[0])[k_peak]
    omegas = np.linspace(0.3, 3.0, n_omega) * w0
    trig = np.stack([np.cos(np.outer(omegas, ts)), np.sin(np.outer(omegas, ts))])
    best = np.inf
    for tau in (ts[-1] - ts[0]) * np.logspace(-2.0, 2.0, n_tau):
        c, s = trig * np.exp(-ts / tau)
        cc, cs, ss, cy, sy = (c * c).sum(1), (c * s).sum(1), (s * s).sum(1), c @ ps, s @ ps
        det = cc * ss - cs**2
        ok = det > 1e-10 * (cc + ss) ** 2
        a, b = (ss * cy - cs * sy)[ok] / det[ok], (cc * sy - cs * cy)[ok] / det[ok]
        norms = np.linalg.norm(a[:, None] * c[ok] + b[:, None] * s[ok] - ps, axis=1)
        best = min(best, float(np.min(norms, initial=np.inf)))
    return best


# Frequencies run from 0.6 periods in the window (log_bins = 0) to the Nyquist
# frequency (log_bins = 1). The examples hold phi within 1e-7 of +pi and -pi,
# 0.6 and 1.1 periods with the spectral peak at the first FFT bin (the second
# with tau a fifteenth of a period), and Nyquist for even and odd n, which
# peaks at the last bin. The last two end above the grid if the polish's damping
# has no floor (near Nyquist the sin column almost vanishes) or if it stops after 200 steps.
@settings(max_examples=40)
@given(
    n=st.integers(16, 100),
    log_bins=st.floats(0.0, 1.0),
    log_tau=st.floats(-1.5, 1.5),
    phi=st.floats(-np.pi, np.pi),
    v=st.floats(0.05, 1.0),
    noise=st.floats(0.0, 0.1),
    noise_seed=st.integers(0, 2**32 - 1),
)
@example(n=64, log_bins=0.3, log_tau=0.5, phi=np.pi - 1e-7, v=0.8, noise=0.02, noise_seed=1)
@example(n=64, log_bins=0.3, log_tau=0.5, phi=-np.pi + 1e-7, v=0.8, noise=0.02, noise_seed=2)
@example(n=40, log_bins=0.0, log_tau=1.0, phi=0.3, v=0.5, noise=0.05, noise_seed=3)
@example(n=80, log_bins=0.15, log_tau=-1.2, phi=-1.0, v=0.9, noise=0.03, noise_seed=4)
@example(n=100, log_bins=1.0, log_tau=0.0, phi=0.7, v=0.6, noise=0.05, noise_seed=5)
@example(n=33, log_bins=1.0, log_tau=-0.5, phi=2.0, v=0.4, noise=0.08, noise_seed=6)
@example(n=30, log_bins=0.983, log_tau=-1.11, phi=-2.87, v=0.28, noise=0.076, noise_seed=600)
@example(n=18, log_bins=0.998, log_tau=0.43, phi=0.39, v=0.88, noise=0.02, noise_seed=472)
def test_fit_rabi_is_no_worse_than_the_dense_profile_grid(n, log_bins, log_tau, phi, v, noise,
                                                          noise_seed):
    ts = np.linspace(0.0, 1.0, n)
    periods = 0.6 * (n / 2.0 / 0.6) ** log_bins * (n - 1) / n
    omega, tau = 2.0 * np.pi * periods, 10.0**log_tau
    rng = np.random.default_rng(noise_seed)
    ps = v * np.cos(omega * ts + phi) * np.exp(-ts / tau) + rng.normal(0.0, noise, n)
    fit = fit_rabi(ts, ps)
    if fit.params:
        assert -np.pi < fit.params["phi"] <= np.pi
        assert fit.residual_norm <= rabi_profile_oracle(ts, ps) * (1 + 1e-9) + 1e-15


def test_fit_rabi_needs_enough_points():
    ts = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        fit_rabi(ts, np.cos(ts))


def test_fit_rabi_refuses_mismatched_non_finite_or_uneven_times():
    ts = np.linspace(0.0, 10.0, 200)
    ps = rabi_signal(ts)
    with pytest.raises(ValueError, match="one length"):
        fit_rabi(ts, ps[:-1])
    bad = ts.copy()
    bad[5] = np.inf
    with pytest.raises(ValueError, match="finite"):
        fit_rabi(bad, ps)
    # a dense grid on [0, 1] and a sparse one after it: the spectral start needs even spacing
    two_density = np.concatenate([np.linspace(0.0, 1.0, 100), np.linspace(1.1, 10.0, 100)])
    with pytest.raises(ValueError, match="evenly spaced"):
        fit_rabi(two_density, rabi_signal(two_density))
    with pytest.raises(ValueError, match="evenly spaced"):
        fit_rabi(ts[::-1], ps)


def test_fit_rabi_non_finite_data_gives_an_empty_unconverged_result():
    ts = np.linspace(0.0, 10.0, 200)
    ps = rabi_signal(ts)
    ps[7] = np.nan
    fit = fit_rabi(ts, ps)
    assert fit.params == fit.std_errors == {}
    assert fit.residual_norm == np.inf and not fit.converged


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


def test_spline_basis_equals_scipys_bit_for_bit():
    from scipy.interpolate import BSpline

    knots = np.concatenate([np.zeros(3), np.linspace(0.0, 1.0, 9), np.ones(3)])
    x = np.concatenate([
        np.random.default_rng(0).uniform(0.0, 1.0, 100_000),
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        [0.0, 1.0, 1.0 - 1e-12, -1e-9, -0.5, 1.0 + 1e-9, 1.5],
    ])
    scipy_design = BSpline.design_matrix(np.clip(x, 0.0, 1.0 - 1e-12), knots, 3).toarray()
    assert np.array_equal(analysis._spline_design(x), scipy_design)


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
    nan_cost = np.zeros(60)
    nan_cost[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        hdmr_first_order(x, nan_cost)
    nan_sample = x.copy()
    nan_sample[3, 1] = np.nan
    with pytest.raises(ValueError, match="unit cube"):
        hdmr_first_order(nan_sample, np.zeros(60))
    with pytest.raises(ValueError, match="distinct"):
        hdmr_first_order(x, np.zeros(60), names=["a", "a", "b"])


# -------------------------------------------------------- covariance algebra

def series_with(matrix, length=2):
    """Generations 0..length-1: the identity, then matrix at every later one."""
    return CovarianceSeries(np.stack([np.eye(matrix.shape[0])] + [matrix] * (length - 1)))


def test_covariance_series_validates_shapes():
    with pytest.raises(ValueError):
        CovarianceSeries(np.eye(2))
    with pytest.raises(ValueError):
        CovarianceSeries(np.ones((1, 2, 3)))
    lopsided = np.array([[[1.0, 0.5], [0.1, 1.0]]])
    with pytest.raises(ValueError):
        CovarianceSeries(lopsided)


def test_covariance_series_lookup_by_generation():
    m = np.array([[2.0, 0.3], [0.3, 1.0]])
    series = series_with(m)
    np.testing.assert_array_equal(series.matrix_at(1), m)
    with pytest.raises(KeyError):
        series.matrix_at(5)
    with pytest.raises(KeyError):  # not the last row, as numpy's wrapping would give
        series.matrix_at(-1)
    np.testing.assert_array_equal(series.matrix_at(np.int64(1)), m)
    for generation in (1.5, 1.0, True, "1"):  # not generation 1, as int() would give
        with pytest.raises(KeyError):
            series.matrix_at(generation)
        with pytest.raises(KeyError):
            covariance_average([series], generation)


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
    a = series_with(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = series_with(np.eye(3))
    with pytest.raises(KeyError):
        covariance_average([a], 3)
    with pytest.raises(ValueError):
        covariance_average([a, b], 1)
    with pytest.raises(ValueError):
        covariance_average([], 0)


def test_covariance_trajectory_orders_generations():
    m = np.array([[0.5, 0.1], [0.1, 0.5]])
    series = series_with(m, length=3)
    traj = covariance_trajectory(series, (0, 1))
    assert [g for g, _ in traj] == [0, 1, 2]
    assert traj[0][1] == 0.0
    assert traj[-1][1] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        covariance_trajectory(series, (0, 5))
    for entry in ((0.9, True), (0, 1.0), ("0", 1), (-1, 0)):  # not entry (0, 1)
        with pytest.raises(ValueError, match="integer pair"):
            covariance_trajectory(series, entry)


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
    names = backends.readout_space().names
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
    names = result.records[0].space.names
    i, j = names.index("t_d"), names.index("A")
    assert averaged[i, j] < 0
    np.testing.assert_allclose(averaged, averaged.T, atol=1e-12)
