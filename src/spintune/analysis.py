"""Post-hoc analysis of tuning runs.

Curve fits for decay and Rabi data, fidelity conversions, first-order
HDMR sensitivity indices, and covariance-matrix aggregation across runs.
Both curve fits profile out the parameters that enter linearly. The decay
fit then zooms in on q; the Rabi fit polishes once with a bounded
Levenberg-Marquardt. Everything runs in numpy. No step draws random
numbers, so results are reproducible bit for bit.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

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
# log grid that brackets it (q = 0 is p = 1), the zoom's points per bracket and its tolerance.
_A_MIN = 1e-12
_P_MIN = 1e-9
_Q_GRID = np.concatenate([[0.0], np.logspace(-12.0, np.log10(1.0 - _P_MIN), 256)])
_Q_ZOOM = 65
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
    """Per-generation covariance matrices of one optimization run; row g is generation g."""

    matrices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrices", np.asarray(self.matrices, dtype=float))
        if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
            raise ValueError(f"matrices must be (G, n, n), got shape {self.matrices.shape}")
        if not np.allclose(self.matrices, np.swapaxes(self.matrices, 1, 2), atol=1e-9):
            raise ValueError("covariance matrices must be symmetric")

    def matrix_at(self, generation: int) -> np.ndarray:
        # numpy would wrap a negative index and truncate 1.5 or True to 1
        if not (_is_index(generation) and 0 <= generation < len(self.matrices)):
            raise KeyError(f"generation {generation!r} not in series")
        return self.matrices[generation]


def _is_index(value) -> bool:  # the integer rule of dqd._require_int: Integral, not bool
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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


def _checked(xs, ys, min_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Both curve arrays as floats: 1-D, one length, enough points, finite positions."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"need two 1-D arrays of one length, got {xs.shape} and {ys.shape}")
    if xs.size < min_points:
        raise ValueError(f"need at least {min_points} points")
    if not np.all(np.isfinite(xs)):
        raise ValueError("sample positions must be finite")
    return xs, ys


def _fit_at(names, theta, fun, jac, converged: bool) -> FitResult:
    """A fit at theta, with standard errors from the Jacobian and the residual variance."""
    cov = np.linalg.pinv(jac.T @ jac) * (float(fun @ fun) / max(fun.size - len(names), 1))
    errs = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))
    return FitResult(dict(zip(names, map(float, theta))), dict(zip(names, map(float, errs))),
                     float(np.linalg.norm(fun)), converged)


def _least_squares(residual, jacobian, theta, lower, upper) -> tuple[np.ndarray, bool]:
    """Bounded Levenberg-Marquardt (Moré, Lecture Notes in Math. 630, 1978): (theta, converged).

    A variable on a bound whose gradient points out of the box is held for the
    step. The damping, scaled by diag(J^T J) floored at 1e-12 of its largest
    entry, grows 4x on a rejected step and shrinks 3x on an accepted one. It
    converges once a step gains under 1e-15 of the cost or none lowers it, and
    gives up after 10 000 steps.
    """
    theta = np.clip(theta, lower, upper)
    fun = residual(theta)
    cost, lam, jac = fun @ fun, 1e-3, None
    for _ in range(10_000):
        if jac is None:
            jac = jacobian(theta)
            grad = jac.T @ fun
            free = ~(((theta <= lower) & (grad > 0)) | ((theta >= upper) & (grad < 0)))
            jtj = jac[:, free].T @ jac[:, free]
            scale = np.maximum(np.diag(jtj), 1e-12 * np.max(np.diag(jtj), initial=0.0))
        trial = theta.copy()
        trial[free] -= np.linalg.solve(jtj + lam * np.diag(scale), grad[free])
        trial = np.clip(trial, lower, upper)
        if np.array_equal(trial, theta):  # the step has shrunk below rounding
            return theta, True
        f_trial = residual(trial)
        gain = cost - f_trial @ f_trial
        if not gain > 0:  # a trial with a non-finite residual is rejected too
            lam *= 4.0
        elif gain < 1e-15 * cost:
            return trial, True
        else:
            theta, fun, cost, lam, jac = trial, f_trial, f_trial @ f_trial, lam / 3.0, None
    return theta, False


def fit_decay(xs: np.ndarray, ys: np.ndarray) -> FitResult:
    """Fit y = A * p**x + C with p in (0, 1].

    (A, C) enter linearly and are profiled out exactly at each q = 1 - p. A
    log grid over q brackets the best profile residual; each zoom lays 65
    points across the bracket, keeps the best seen and narrows to the
    neighbours of the best new one, until the bracket is under 1e-15 wide.
    With (A, C) exact at each q the profile optimum is the joint optimum, so
    nothing is polished and finite data always reports converged. Standard
    errors come from the analytic Jacobian there. Flat data is a documented
    degenerate case: the amplitude collapses to ~0 with near-zero residual.
    """
    xs, ys = _checked(xs, ys, 4)
    if np.any(xs < 0):
        raise ValueError("xs must be non-negative")
    if not np.all(np.isfinite(ys)):
        return FitResult({}, {}, np.inf, False)

    a_max = max(2.0, 2.0 * float(np.max(ys) - np.min(ys)))
    _, _, grid_norms = _decay_profile(_Q_GRID, xs, ys, a_max)
    k = int(np.argmin(grid_norms))
    q, best = _Q_GRID[k], grid_norms[k]
    bracket = (_Q_GRID[max(k - 1, 0)], _Q_GRID[min(k + 1, _Q_GRID.size - 1)])
    while bracket[1] - bracket[0] > _Q_XATOL:
        qs = np.linspace(*bracket, _Q_ZOOM)
        norms = _decay_profile(qs, xs, ys, a_max)[2]
        j = int(np.argmin(norms))
        if norms[j] < best:
            q, best = qs[j], norms[j]
        narrowed = (qs[max(j - 1, 0)], qs[min(j + 1, _Q_ZOOM - 1)])
        if narrowed == bracket:  # floats no longer split the bracket
            break
        bracket = narrowed
    a, c, _ = _decay_profile(np.array([q]), xs, ys, a_max)
    # at the grid's far end 1 - q rounds just below the bound on p, so theta is clipped
    theta = np.clip([a[0], 1.0 - q, c[0]], [_A_MIN, _P_MIN, -1.0], [a_max, 1.0, 1.0])
    a, p, c = theta
    jac = np.column_stack([p**xs, a * xs * p**(xs - 1.0), np.ones_like(xs)])
    return _fit_at(("A", "p", "C"), theta, a * p**xs + c - ys, jac, True)


def fit_rabi(ts: np.ndarray, ps: np.ndarray) -> FitResult:
    """Fit P = V_R * cos(w t + phi) * exp(-t / tau) to evenly spaced ts, t counted from ts[0].

    V_R and phi therefore refer to the first sample, wherever the window starts.

    Zero-padded FFTs profile out (a, b) of exp(-t / tau) (a cos(w t) + b sin(w t))
    on eighth-bin steps of w in [0.3, 3] w0, w0 the spectral peak of the data,
    and log steps of tau. The best point is polished once, in (a, b, w, tau).
    Without a clear peak it reports converged=False.
    It fits the data scaled to unit peak, so data in any units gives one fit.
    """
    ts, ps = _checked(ts, ps, 8)
    n, dt = ts.size, (ts[-1] - ts[0]) / (ts.size - 1)
    if not (dt > 0 and np.abs(ts - np.linspace(ts[0], ts[-1], n)).max() <= 1e-3 * dt):
        raise ValueError("ts must be increasing and evenly spaced")
    if not np.all(np.isfinite(ps)):
        return FitResult({}, {}, np.inf, False)
    scale = float(np.abs(ps).max()) or 1.0  # all-zero data has no peak, and stays unconverged
    ts, ps = ts - ts[0], ps / scale
    mags = np.abs(np.fft.rfft(ps - np.mean(ps)))[1:]
    k_peak = int(np.argmax(mags)) + 1
    if mags[k_peak - 1] <= max(3.0 * float(np.median(mags)), 1e-9 * n):
        return FitResult({}, {}, np.inf, False)
    w_min, w_max = np.array([0.6, 6.0]) * np.pi * np.fft.rfftfreq(n, dt)[k_peak]

    def residual(theta):
        a, b, w, tau = theta
        return np.exp(-ts / tau) * (a * np.cos(w * ts) + b * np.sin(w * ts)) - ps

    def jacobian(theta):
        a, b, w, tau = theta
        cos, sin = np.exp(-ts / tau) * np.array([np.cos(w * ts), np.sin(w * ts)])
        return np.column_stack([cos, sin, ts * (b * cos - a * sin),
                                ts * (a * cos + b * sin) / tau**2])

    def linear(theta):  # (V_R, w, phi, tau) as (a, b, w, tau), and its derivative
        v, w, phi, tau = theta
        a, b = v * np.cos(phi), -v * np.sin(phi)
        return [a, b, w, tau], np.array([[a / v, 0, b, 0], [b / v, 0, -a, 0], [0, 1, 0, 0],
                                         [0, 0, 0, 1]])

    # with t counted from 0, the sums over samples at w = w_min + m * step are FFT bins
    pad, k, step = 8 * n, np.arange(n), np.pi / (4 * n * dt)
    m, best = np.arange(int((w_max - w_min) / step) + 1), -np.inf
    for tau_j in (n - 1) * dt * np.logspace(-2.0, 1.5, 49):
        env = np.exp(-k * dt / tau_j - 1j * w_min * k * dt)
        z = np.fft.fft(env * ps, pad)[m % pad]  # sums of y exp(-t / tau - i w t)
        g = np.fft.fft(env**2, pad)[2 * m % pad]
        e2 = np.sum(np.exp(-2.0 * k * dt / tau_j))
        cc, ss, cs = (e2 + g.real) / 2, (e2 - g.real) / 2, -g.imag / 2
        det = cc * ss - cs**2
        # explained sum of squares, skipping w where sin(w t) vanishes (a saddle in w, phi)
        gain = np.divide(ss * z.real**2 + 2 * cs * z.real * z.imag + cc * z.imag**2, det,
                         out=np.full_like(det, -np.inf), where=det > 1e-9 * e2**2)
        if gain.max() > best:
            best, w, tau = gain.max(), w_min + m[np.argmax(gain)] * step, tau_j
    start = np.linalg.lstsq(jacobian([0.0, 0.0, w, tau])[:, :2], ps)[0]
    (a, b, w, tau), converged = _least_squares(
        residual, jacobian, [*start, w, tau], [-np.inf, -np.inf, w_min, 1e-9],
        [np.inf, np.inf, w_max, 1e10 * (n - 1) * dt])  # a finite cap keeps tau**2 finite
    params = [np.hypot(a, b), w, np.arctan2(-b, a), tau]
    ab, d_ab = linear(params)  # the errors of the reported parameters by the chain rule
    fit = _fit_at(("V_R", "omega", "phi", "tau"), params, residual(ab), jacobian(ab) @ d_ab,
                  converged)
    # the model has period 2 pi in phi, so wrapping moves neither residual nor Jacobian
    fit.params["phi"] = float(np.pi - (np.pi - fit.params["phi"]) % (2.0 * np.pi))
    fit.params["V_R"] *= scale
    fit.std_errors["V_R"] *= scale
    return replace(fit, residual_norm=fit.residual_norm * scale)


def shuttle_fidelity(p: float) -> float:
    """Per-segment shuttling fidelity 1 - p/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p {p} outside [0, 1]")
    return 1.0 - p / 3.0


def _spline_design(x: np.ndarray) -> np.ndarray:
    """Clamped cubic B-spline basis at x, one row per sample.

    Cox-de Boor (de Boor, J. Approx. Theory 6, 50-62, 1972) in the operation order
    of scipy's ``BSpline.design_matrix``, whose matrix it equals bit for bit.
    """
    knots = np.concatenate([
        np.zeros(_SPLINE_DEGREE),
        np.linspace(0.0, 1.0, _SPLINE_INTERVALS + 1),
        np.ones(_SPLINE_DEGREE),
    ])
    x = np.clip(x, 0.0, 1.0 - 1e-12)
    n_basis = knots.size - _SPLINE_DEGREE - 1
    ell = np.clip(np.searchsorted(knots, x, "right") - 1, _SPLINE_DEGREE, n_basis - 1)
    h = np.zeros((x.size, _SPLINE_DEGREE + 1))
    h[:, 0] = 1.0
    for j in range(1, _SPLINE_DEGREE + 1):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for n in range(1, j + 1):
            xb, xa = knots[ell + n], knots[ell + n - j]
            w = hh[:, n - 1] / (xb - xa)
            h[:, n - 1] += w * (xb - x)
            h[:, n] = w * (x - xa)
    design = np.zeros((x.size, n_basis))
    np.put_along_axis(design, ell[:, None] + np.arange(-_SPLINE_DEGREE, 1), h, axis=1)
    return design


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
    if costs.shape != (n_samples,) or not np.all(np.isfinite(costs)):
        raise ValueError("costs must be finite, one per sample")
    if not np.all((samples >= -1e-9) & (samples <= 1 + 1e-9)):  # NaN fails too
        raise ValueError("samples must lie in the unit cube")
    if names is None:
        names = [f"x{i}" for i in range(n_params)]
    if len(names) != n_params or len(set(names)) != n_params:
        raise ValueError("names must be one distinct name per parameter")

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
    i, j = entry
    n = series.matrices.shape[1]
    if not all(_is_index(v) and 0 <= v < n for v in entry):
        raise ValueError(f"entry ({i!r}, {j!r}) is not an integer pair inside a {n}x{n} matrix")
    return [(g, float(m[i, j])) for g, m in enumerate(series.matrices)]
