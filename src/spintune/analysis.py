"""Post-hoc analysis of tuning runs.

Curve fits for decay and Rabi data, fidelity conversions, first-order
HDMR sensitivity indices, and covariance-matrix aggregation across runs.
The decay fit profiles out its linear amplitude and offset and searches
the decay rate alone over a fixed grid and bracket; the Rabi fit runs
damped least squares from a fixed set of starts. Neither draws random
numbers, so results are reproducible bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline
from scipy.optimize import least_squares, minimize_scalar

__all__ = [
    "FitResult",
    "SensitivityReport",
    "CovarianceSeries",
    "fit_decay",
    "fit_rabi",
    "shuttle_fidelity",
    "hdmr_first_order",
    "covariance_average",
    "covariance_trajectory",
]

# Decay-fit bounds on A and p, and the profile search over q = 1 - p: the
# log grid that brackets it (q = 0 is p = 1) and the scalar search's tolerance.
_A_MIN = 1e-12
_P_MIN = 1e-9
_Q_GRID = np.concatenate([[0.0], np.logspace(-12.0, np.log10(1.0 - _P_MIN), 256)])
_Q_XATOL = 1e-15
_RIDGE = 1e-8
_SPLINE_DEGREE = 3
_SPLINE_INTERVALS = 8


@dataclass(frozen=True)
class FitResult:
    """Named parameter estimates with standard errors."""

    params: dict
    std_errors: dict
    residual_norm: float
    converged: bool


@dataclass(frozen=True)
class SensitivityReport:
    """First-order variance contributions per parameter."""

    first_order: dict
    residual: float

    def normalized_contributions(self) -> dict:
        """Indices rescaled to sum to one, for pie-chart output."""
        total = sum(self.first_order.values())
        if total <= 0:
            return {k: 0.0 for k in self.first_order}
        return {k: v / total for k, v in self.first_order.items()}


@dataclass(frozen=True)
class CovarianceSeries:
    """Per-generation covariance matrices of one optimization run."""

    generations: tuple
    matrices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "generations", tuple(int(g) for g in self.generations))
        object.__setattr__(self, "matrices", np.asarray(self.matrices, dtype=float))
        if self.matrices.ndim != 3 or self.matrices.shape[0] != len(self.generations):
            raise ValueError("matrices must be (G, n, n) matching generations")
        if self.matrices.shape[1] != self.matrices.shape[2]:
            raise ValueError("covariance matrices must be square")
        if not np.allclose(self.matrices, np.swapaxes(self.matrices, 1, 2), atol=1e-9):
            raise ValueError("covariance matrices must be symmetric")

    def matrix_at(self, generation: int) -> np.ndarray:
        try:
            idx = self.generations.index(int(generation))
        except ValueError:
            raise KeyError(f"generation {generation} not in series") from None
        return self.matrices[idx]


def _std_errors_from_jacobian(jac: np.ndarray, residuals: np.ndarray,
                              n_params: int) -> np.ndarray:
    dof = max(residuals.size - n_params, 1)
    s2 = float(residuals @ residuals) / dof
    cov = np.linalg.pinv(jac.T @ jac) * s2
    return np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))


def _multistart_least_squares(residual_fn, starts, lower, upper):
    best = None
    for x0 in starts:
        x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
        try:
            res = least_squares(residual_fn, x0, bounds=(lower, upper), method="trf")
        except (ValueError, np.linalg.LinAlgError):
            continue
        if best is None or res.cost < best.cost:
            best = res
    return best


def _decay_profile(q: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                   a_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best bounded (A, C) of y = A * p**x + C at each p = 1 - q, and its residual norm.

    For fixed p the model is linear in (A, C). The bounded optimum is the
    unconstrained one when that lies in the box, and otherwise lies on one
    of the box's four edges, each a clipped one-variable fit. At p = 1 the
    basis is constant and only the edges, which then hold the flat model's
    optimum, are candidates.
    """
    b = (1.0 - q)[:, None] ** xs
    b_mean = b.mean(axis=1)
    y_mean = ys.mean()
    db = b - b_mean[:, None]
    sbb = np.einsum("gi,gi->g", db, db)
    bb = np.einsum("gi,gi->g", b, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_free = (db @ (ys - y_mean)) / sbb
        a_edge = [np.where(bb > 0, (b @ (ys - c)) / bb, _A_MIN) for c in (-1.0, 1.0)]
        c_free = y_mean - a_free * b_mean
    free_ok = (sbb > 0) & (a_free >= _A_MIN) & (a_free <= a_max) & (np.abs(c_free) <= 1.0)
    a = np.stack([np.where(free_ok, a_free, _A_MIN), np.full_like(q, _A_MIN),
                  np.full_like(q, a_max), *(np.clip(v, _A_MIN, a_max) for v in a_edge)])
    c = np.stack([np.where(free_ok, c_free, 1.0),
                  np.clip(y_mean - _A_MIN * b_mean, -1.0, 1.0),
                  np.clip(y_mean - a_max * b_mean, -1.0, 1.0),
                  np.full_like(q, -1.0), np.full_like(q, 1.0)])
    norms = np.linalg.norm(a[..., None] * b + c[..., None] - ys, axis=-1)
    norms[0, ~free_ok] = np.inf
    best = np.argmin(norms, axis=0)
    cols = np.arange(q.size)
    return a[best, cols], c[best, cols], norms[best, cols]


def fit_decay(xs: np.ndarray, ys: np.ndarray) -> FitResult:
    """Fit y = A * p**x + C with p in (0, 1].

    The fit profiles out (A, C), which enter linearly: a log grid over
    q = 1 - p, vectorized, brackets the best profile residual, a bounded
    scalar search refines q inside that bracket, and one least-squares
    polish with the analytic Jacobian finishes all three parameters.
    Flat data is a documented degenerate case: the amplitude collapses
    to ~0 with near-zero residual and the fit reports converged.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 4:
        raise ValueError("need at least 4 points")
    if np.any(xs < 0):
        raise ValueError("xs must be non-negative")
    if not np.all(np.isfinite(ys)):
        return FitResult({}, {}, np.inf, False)

    def residual(theta):
        a, p, c = theta
        return a * p**xs + c - ys

    def jacobian(theta):
        a, p, _ = theta
        return np.column_stack([p**xs, a * xs * p**(xs - 1.0), np.ones_like(xs)])

    a_max = max(2.0, 2.0 * float(np.max(ys) - np.min(ys)))
    _, _, grid_norms = _decay_profile(_Q_GRID, xs, ys, a_max)
    k = int(np.argmin(grid_norms))
    bracket = (_Q_GRID[max(k - 1, 0)], _Q_GRID[min(k + 1, _Q_GRID.size - 1)])
    search = minimize_scalar(
        lambda q: _decay_profile(np.array([q]), xs, ys, a_max)[2][0],
        bounds=bracket, method="bounded", options={"xatol": _Q_XATOL})
    q = search.x if search.fun < grid_norms[k] else _Q_GRID[k]
    a, c, _ = _decay_profile(np.array([q]), xs, ys, a_max)
    lower = np.array([_A_MIN, _P_MIN, -1.0])
    upper = np.array([a_max, 1.0, 1.0])
    # at the grid's far end 1 - q rounds just below the bound on p
    start = np.clip([a[0], 1.0 - q, c[0]], lower, upper)
    res = least_squares(residual, start, jac=jacobian, bounds=(lower, upper), method="trf")
    # TRF first nudges a start off its active bounds, so keep the polish
    # only where it ends below the profile optimum it started from
    theta = res.x if res.cost < 0.5 * np.sum(residual(start) ** 2) else start
    fun = residual(theta)
    errs = _std_errors_from_jacobian(jacobian(theta), fun, 3)
    names = ("A", "p", "C")
    return FitResult(
        params=dict(zip(names, (float(v) for v in theta))),
        std_errors=dict(zip(names, (float(e) for e in errs))),
        residual_norm=float(np.linalg.norm(fun)),
        converged=bool(res.success),
    )


def fit_rabi(ts: np.ndarray, ps: np.ndarray) -> FitResult:
    """Fit P = V_R * cos(w t + phi) * exp(-t / tau).

    The frequency start comes from the discrete spectrum of the
    mean-removed data; without a clear spectral peak the fit reports
    converged=False rather than guessing.
    """
    ts = np.asarray(ts, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if ts.size < 8:
        raise ValueError("need at least 8 points")

    n = ts.size
    dt = (ts[-1] - ts[0]) / (n - 1)
    if dt <= 0:
        raise ValueError("ts must be increasing")
    spectrum = np.abs(np.fft.rfft(ps - np.mean(ps)))
    if spectrum.size < 2:
        return FitResult({}, {}, np.inf, False)
    mags = spectrum[1:]
    k_peak = int(np.argmax(mags)) + 1
    floor = float(np.median(mags))
    if mags[k_peak - 1] <= max(3.0 * floor, 1e-9 * n):
        return FitResult({}, {}, np.inf, False)
    w0 = 2.0 * np.pi * np.fft.rfftfreq(n, dt)[k_peak]

    def residual(theta):
        v, w, phi, tau = theta
        return v * np.cos(w * ts + phi) * np.exp(-ts / tau) - ps

    span = ts[-1] - ts[0]
    v0 = 0.5 * float(np.max(ps) - np.min(ps))
    starts = [(v0, w0, phi0, tau0)
              for phi0 in (0.0, 0.5 * np.pi, np.pi, -0.5 * np.pi)
              for tau0 in (span, 0.25 * span)]
    lower = np.array([1e-12, 0.3 * w0, -np.pi, 1e-9])
    upper = np.array([np.inf, 3.0 * w0, np.pi, np.inf])
    res = _multistart_least_squares(residual, starts, lower, upper)
    if res is None:
        return FitResult({}, {}, np.inf, False)
    errs = _std_errors_from_jacobian(res.jac, res.fun, 4)
    names = ("V_R", "omega", "phi", "tau")
    return FitResult(
        params=dict(zip(names, (float(v) for v in res.x))),
        std_errors=dict(zip(names, (float(e) for e in errs))),
        residual_norm=float(np.linalg.norm(res.fun)),
        converged=bool(res.success),
    )


def shuttle_fidelity(p: float) -> float:
    """Per-segment shuttling fidelity 1 - p/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p {p} outside [0, 1]")
    return 1.0 - p / 3.0


def _spline_design(x: np.ndarray) -> np.ndarray:
    knots = np.concatenate([
        np.zeros(_SPLINE_DEGREE),
        np.linspace(0.0, 1.0, _SPLINE_INTERVALS + 1),
        np.ones(_SPLINE_DEGREE),
    ])
    x = np.clip(x, 0.0, 1.0 - 1e-12)
    return BSpline.design_matrix(x, knots, _SPLINE_DEGREE).toarray()


def hdmr_first_order(samples: np.ndarray, costs: np.ndarray,
                     names: list | None = None) -> SensitivityReport:
    """First-order variance decomposition of costs over unit-cube samples.

    Each parameter gets a cubic-spline component function; all
    components are fitted jointly by ridge-regularized least squares,
    and the index of a parameter is the variance of its component over
    the sample divided by the total cost variance. Interactions land in
    the residual fraction.
    """
    samples = np.asarray(samples, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be a 2-D matrix")
    n_samples, n_params = samples.shape
    if n_samples < 50:
        raise ValueError("need at least 50 samples")
    if costs.shape != (n_samples,):
        raise ValueError("costs length must match samples")
    if np.any(samples < -1e-9) or np.any(samples > 1 + 1e-9):
        raise ValueError("samples must lie in the unit cube")
    if names is None:
        names = [f"x{i}" for i in range(n_params)]
    if len(names) != n_params:
        raise ValueError("names length must match parameter count")

    blocks = []
    for i in range(n_params):
        col = samples[:, i]
        if np.var(col) < 1e-14:
            warnings.warn(f"parameter {names[i]!r} is constant in the sample; "
                          "its sensitivity index is 0", RuntimeWarning)
        design = _spline_design(col)
        centered = design - design.mean(axis=0)
        # splines sum to one pointwise, so one centered column per block
        # is redundant and gets dropped
        blocks.append(centered[:, :-1])

    x_mat = np.concatenate([np.ones((n_samples, 1))] + blocks, axis=1)
    penalty = np.full(x_mat.shape[1], _RIDGE)
    penalty[0] = 0.0
    beta = np.linalg.solve(x_mat.T @ x_mat + np.diag(penalty), x_mat.T @ costs)

    total_var = float(np.var(costs))
    width = blocks[0].shape[1]
    indices = {}
    for i in range(n_params):
        coef = beta[1 + i * width:1 + (i + 1) * width]
        component = blocks[i] @ coef
        indices[names[i]] = (min(1.0, float(np.var(component)) / total_var)
                             if total_var > 0 else 0.0)
    if total_var > 0:
        fitted = x_mat @ beta
        residual = min(1.0, float(np.var(costs - fitted)) / total_var)
    else:
        residual = 0.0
    return SensitivityReport(first_order=indices, residual=residual)


def covariance_average(runs: list, generation: int) -> np.ndarray:
    """Element-wise mean covariance at one generation across runs."""
    if not runs:
        raise ValueError("need at least one run")
    mats = [run.matrix_at(generation) for run in runs]
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise ValueError("runs have mismatched dimensions")
    return np.mean(mats, axis=0)


def covariance_trajectory(series: CovarianceSeries, entry: tuple) -> list:
    """Per-generation values of one covariance entry, in order."""
    i, j = (int(v) for v in entry)
    n = series.matrices.shape[1]
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"entry ({i}, {j}) outside a {n}x{n} matrix")
    return [(g, float(m[i, j])) for g, m in zip(series.generations, series.matrices)]
