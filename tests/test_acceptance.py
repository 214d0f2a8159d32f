"""End-to-end acceptance checks for the whole package.

Each test pins one headline capability: optimizer correctness on the
standard benchmarks, the two-level sweep oracle, the ramp-fidelity grid,
the three closed calibration loops, sensitivity analysis, curve fits,
and reproducibility of persisted runs. Runtime budgets are asserted
where a capability is only useful if it is fast enough to rerun freely.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from spintune import analysis, cmaes, dqd, harness, rb
from spintune.harness import RunConfig


def minimize(fn, dimension, population, seed, mean0, sigma0, budget, target):
    params = cmaes.StrategyParams(dimension=dimension, population=population, seed=seed)
    state = cmaes.DistributionState.initial(mean0, sigma=sigma0)
    best = np.inf
    for _ in range(budget):
        points, steps = cmaes.ask(state, params)
        costs = [float(fn(x)) for x in points]
        state = cmaes.tell(state, params, steps, costs)
        best = min(best, min(costs))
        if best < target:
            break
    return best, state


def test_optimizer_solves_standard_benchmarks_quickly():
    started = time.monotonic()

    sphere = lambda x: float(np.sum(x * x))
    sphere_wins = 0
    for seed in range(10):
        best, _ = minimize(sphere, 10, 20, seed, np.full(10, 2.0), 1.0, 300, 1e-10)
        sphere_wins += best < 1e-10
    assert sphere_wins == 10

    def rosenbrock(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                            + (1.0 - x[:-1]) ** 2))

    rosen_wins = 0
    for seed in range(10):
        best, _ = minimize(rosenbrock, 5, 20, seed, np.zeros(5), 0.3, 3000, 1e-8)
        rosen_wins += best < 1e-8
    assert rosen_wins >= 9

    weights = 10.0 ** (6.0 * np.arange(5) / 4.0)
    ellipsoid = lambda x: float(np.sum(weights * x * x))
    best, state = minimize(ellipsoid, 5, 20, 0, np.full(5, 1.0), 0.5, 800, 1e-12)
    assert best < 1e-10
    assert np.linalg.cond(state.cov) > 1e3

    assert time.monotonic() - started < 30.0


def test_sweep_transfer_probability_matches_analytic_exponential():
    started = time.monotonic()
    t_c = 0.5
    span = 100.0
    checked = 0
    for t_f in np.geomspace(0.55, 30.0, 10):
        velocity = span / t_f
        expected = math.exp(-((2 * math.pi) ** 2) * t_c * t_c / velocity)
        assert 0.05 - 0.01 < expected < 0.95 + 0.01
        cfg = dqd.DqdConfig(tunnel_coupling=t_c, zeeman_diff=0.0,
                            eps_initial=-50.0, eps_final=50.0, ramp_time=float(t_f))
        vals, vecs = np.linalg.eigh(dqd.hamiltonian(cfg, cfg.eps_initial))
        psi0 = dqd.StateVector(vecs[:, 0].astype(complex))
        psi = dqd.evolve(cfg, psi0, dt=cfg.ramp_time / 4000)
        _, vecs_f = np.linalg.eigh(dqd.hamiltonian(cfg, cfg.eps_final))
        stayed_diabatic = (abs(np.vdot(vecs_f[:, 1], psi.amplitudes)) ** 2
                           + abs(np.vdot(vecs_f[:, 2], psi.amplitudes)) ** 2)
        assert abs(stayed_diabatic - expected) < 1e-3
        checked += 1
    assert checked == 10
    assert time.monotonic() - started < 10.0


def count_interior_extrema(row, prominence=1e-5):
    found = 0
    for k in range(1, len(row) - 1):
        peak = row[k] - row[k - 1] > prominence and row[k] - row[k + 1] > prominence
        dip = row[k - 1] - row[k] > prominence and row[k + 1] - row[k] > prominence
        found += peak or dip
    return found


def test_strong_coupling_grid_has_adiabatic_plateau_fringes_and_noise_penalty():
    started = time.monotonic()
    base = dqd.DqdConfig(eps_initial=-30.0, tunnel_coupling=10.0, zeeman_diff=0.3)
    ramps = np.geomspace(0.04, 4.0, 40)
    finals = np.linspace(2.0, 40.0, 40)
    grid = dqd.sweep_fidelity_grid(base, ("ramp_time", ramps),
                                   ("eps_final", finals), n_steps=300)
    assert grid.shape == (40, 40)
    assert grid[-1, -1] > 0.99  # slowest ramp, deep final detuning

    fringe_rows = sum(count_interior_extrema(grid[i]) >= 1 for i in range(40))
    assert fringe_rows >= 5

    small_ramps = np.geomspace(0.04, 4.0, 8)
    small_finals = np.linspace(2.0, 40.0, 8)
    clean = dqd.sweep_fidelity_grid(base, ("ramp_time", small_ramps),
                                    ("eps_final", small_finals), n_steps=300)
    noisy = dqd.sweep_fidelity_grid(base, ("ramp_time", small_ramps),
                                    ("eps_final", small_finals),
                                    noise=dqd.NoiseModel(1.0, 1000, 7), n_steps=300)
    assert noisy.mean() < clean.mean()
    assert time.monotonic() - started < 300.0


def test_closed_loop_readout_reaches_planted_visibility_ceiling():
    started = time.monotonic()
    reached = 0
    for seed in range(10):
        config = RunConfig(task="readout", generations=100, population=50,
                           seed=seed, shots=1000)
        record = harness.run(config)
        check = harness.evaluate_params(config, record.best_params, shot_seed=0)
        true_visibility = check.metadata["true_visibility"]
        fidelity = (1.0 + true_visibility) / 2.0
        if true_visibility >= 0.98 and fidelity >= 0.99:
            reached += 1
    assert reached >= 9
    assert time.monotonic() - started < 600.0


def test_closed_loop_shuttle_recovers_planted_depolarization():
    config = RunConfig(task="shuttle", generations=60, population=16, seed=0)
    record = harness.run(config)
    check = harness.evaluate_params(config, record.best_params)
    p_found = check.metadata["p"]
    assert abs(p_found - 0.0192) / 0.0192 <= 0.10

    before = analysis.shuttle_fidelity(0.117)
    after = analysis.shuttle_fidelity(0.0192)
    assert round(before, 4) == round(1.0 - 0.117 / 3.0, 4)
    assert round(after, 4) == round(1.0 - 0.0192 / 3.0, 4)
    assert abs(before - 0.9609) <= 0.0005
    assert abs(after - 0.99359) <= 0.00008


def test_closed_loop_gate_tuning_reaches_benchmark_fidelity():
    started = time.monotonic()
    lengths = np.array([1, 3, 6, 10, 16, 24, 40, 60, 90, 140, 200, 300], dtype=float)
    fitted = []
    final_entries = []
    all_series = []
    names = harness.space_for_task("single_qubit").names
    i, j = names.index("t_d"), names.index("A")
    for seed in range(10):
        config = RunConfig(task="single_qubit", generations=40, population=14,
                           seed=seed, shots=100)
        record = harness.run(config)
        rb_config = rb.RbConfig(shots_per_sequence=100, seed=seed)
        curve = rb.rb_decay_curve(rb_config, np.array(record.best_params), lengths)
        fit = analysis.fit_decay(lengths, curve)
        assert fit.converged
        fitted.append(fit.params["p"])
        series = harness.covariance_series(record)
        all_series.append(series)
        final_entries.append(series.matrix_at(config.generations)[i, j])

    assert all(p >= 0.992 for p in fitted)
    assert all(rb.per_gate_fidelity(p) >= 0.998 for p in fitted)
    assert sum(entry < 0 for entry in final_entries) >= 8
    assert analysis.covariance_average(all_series, 40)[i, j] < 0
    assert time.monotonic() - started < 300.0


def test_sensitivity_indices_match_ishigami_and_are_affine_invariant():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (10_000, 3))
    z = np.pi * (2.0 * x - 1.0)
    g = (np.sin(z[:, 0]) + 7.0 * np.sin(z[:, 1]) ** 2
         + 0.1 * z[:, 2] ** 4 * np.sin(z[:, 0]))
    report = analysis.hdmr_first_order(x, g)
    assert report.first_order["x0"] == pytest.approx(0.3139, abs=0.03)
    assert report.first_order["x1"] == pytest.approx(0.4424, abs=0.03)
    assert report.first_order["x2"] == pytest.approx(0.0, abs=0.03)

    again = analysis.hdmr_first_order(x, 3.0 * g - 11.0)
    for name, value in report.first_order.items():
        assert again.first_order[name] == pytest.approx(value, abs=1e-9)


def test_curve_fits_recover_planted_parameters_and_cover_noise():
    xs = np.unique(np.linspace(1, 300, 20).astype(int)).astype(float)
    decay = analysis.fit_decay(xs, 0.5 * 0.9925**xs + 0.5)
    assert decay.converged
    assert decay.params["p"] == pytest.approx(0.9925, abs=1e-6)

    ts = np.linspace(0.0, 10.0, 200)
    clean = 0.993 * np.cos(2 * np.pi * 5.0 * ts) * np.exp(-ts / 10.0)
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        fit = analysis.fit_rabi(ts, clean + rng.normal(0.0, 0.02, ts.size))
        if fit.converged and abs(fit.params["V_R"] - 0.993) <= 3 * fit.std_errors["V_R"]:
            hits += 1
    assert hits >= 95


def test_identical_seeds_reproduce_records_and_exports_round_trip(tmp_path):
    config = RunConfig(task="readout", generations=10, population=8,
                       seed=21, shots=200)
    harness.run(replace(config, output_dir=tmp_path / "a"))
    harness.run(replace(config, output_dir=tmp_path / "b"))
    a = (tmp_path / "a" / harness.RECORD_NAME).read_bytes()
    b = (tmp_path / "b" / harness.RECORD_NAME).read_bytes()
    assert a == b

    best_config = RunConfig(task="readout", generations=30, population=20,
                            seed=3, shots=1000)
    record = harness.run(best_config)
    path = harness.export(record, "best_params", tmp_path / "best.json")
    payload = json.loads(path.read_text())
    check = harness.evaluate_params(best_config, payload["values"], shot_seed=0)
    visibility = -payload["cost"]
    sigma = math.sqrt(max(1e-12, 1.0 - visibility**2) / best_config.shots)
    assert abs(check.cost - payload["cost"]) <= 6 * sigma
