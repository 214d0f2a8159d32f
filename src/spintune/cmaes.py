"""Rank-based evolution strategy with covariance matrix adaptation.

A pure ask/tell pair on one generation as a block, the lambda x n sample
matrix of Hansen's tutorial (arXiv:1604.00772). ``ask`` returns the points
and their steps, ``points = mean + sigma * steps``; ``tell`` takes the steps
and one cost per row and returns the updated distribution. Only the row
ranking enters the update (non-finite costs last, ties to the earlier row),
so the strategy is invariant under monotone transformations of the cost.
No strategy constant is an option: ``StrategyParams`` derives each one from
the dimension and the population size, which like the seed must be integers.

Each distribution's covariance C is decomposed once, on first use, into the
eigensystem that ``ask`` samples with (C^1/2) and ``tell`` whitens with
(C^-1/2), as in the tutorial's B and D. A numerically non-positive C is
repaired by an eigenvalue floor, and each repair warns once, from ``ask``.

Sampling is counter-based: the normal draws for a generation are fully
determined by (seed, generation), so asking the same state twice returns
byte-identical points and an interrupted run can be resumed exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dqd import _require_int, _require_real, _require_reals

__all__ = ["StrategyParams", "DistributionState", "ask", "tell"]

# Relative eigenvalue floor used when repairing a numerically non-positive
# covariance matrix.
EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class StrategyParams:
    """Strategy constants, all derived from (dimension, population).

    Only ``dimension``, ``population`` and ``seed`` are set; ``parents``,
    ``weights``, ``mu_eff``, ``c_sigma``, ``d_sigma``, ``c_c``, ``c_1``,
    ``c_mu`` and ``chi_n`` follow Hansen's default formulas.
    """

    dimension: int
    population: int
    seed: int = 0

    def __post_init__(self) -> None:
        for name, minimum in (("dimension", 1), ("population", 2), ("seed", 0)):
            _require_int(name, getattr(self, name), minimum)
        n, lam = self.dimension, self.population
        mu = max(1, lam // 2)
        raw = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
        weights = raw / raw.sum()
        mu_eff = 1.0 / float(np.sum(weights**2))
        c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
        c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
        # frozen: the derived constants are written past __setattr__
        vars(self).update(
            parents=mu, weights=weights, mu_eff=mu_eff, c_sigma=c_sigma, c_1=c_1,
            d_sigma=1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma,
            c_c=(4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n),
            c_mu=min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff)),
            chi_n=math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2)),
        )


@dataclass(frozen=True)
class DistributionState:
    """Search distribution N(mean, sigma^2 C) plus the two evolution paths.

    ``cov`` is the unscaled covariance shape matrix C (step size kept
    separate), which is what the post-hoc correlation analysis consumes.
    ``mean``, ``cov``, ``p_sigma`` and ``p_c`` are held as read-only float
    copies, so the state can be built from the lists a record stores.
    """

    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    p_sigma: np.ndarray
    p_c: np.ndarray
    generation: int = 0

    def __post_init__(self) -> None:
        for name in ("mean", "cov", "p_sigma", "p_c"):
            # read-only copies, so the cached eigensystem stays the one of cov
            object.__setattr__(self, name, _require_reals(name, getattr(self, name)))
        n = self.mean.shape[0]
        for name, shape in (("cov", (n, n)), ("p_sigma", (n,)), ("p_c", (n,))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape {getattr(self, name).shape} does not match {n}")
        scale = max(np.abs(self.cov).max(), 1.0)
        if not np.abs(self.cov - self.cov.T).max() <= 1e-12 * scale:
            raise ValueError("covariance must be symmetric")
        _require_real("sigma", self.sigma)
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma))
        _require_int("generation", self.generation, 0)

    @classmethod
    def initial(cls, mean: Sequence[float], sigma: float = 1.0) -> "DistributionState":
        n = len(mean)
        return cls(
            mean=mean,
            sigma=sigma,
            cov=np.eye(n),
            p_sigma=np.zeros(n),
            p_c=np.zeros(n),
            generation=0,
        )

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(vals, vecs, least): C = vecs diag(vals) vecs^T once repaired, and C's least eigenvalue.

        Computed once per state, on first use; it is not a field, so neither
        equality nor the record sees it. A numerically non-positive C is
        repaired by raising its eigenvalues to EIGENVALUE_FLOOR times the
        largest, so a repair was made exactly when ``least < vals[0]``. A C
        with no positive eigenvalue cannot be repaired: ValueError.
        """
        vals, vecs = np.linalg.eigh(self.cov)
        top = vals[-1]
        if not np.isfinite(top) or top <= 0.0:
            raise ValueError("covariance has no positive eigenvalue; cannot repair")
        return np.maximum(vals, EIGENVALUE_FLOOR * top), vecs, float(vals[0])


def ask(state: DistributionState, params: StrategyParams) -> tuple[np.ndarray, np.ndarray]:
    """Sample one generation: (points, steps), two (population, dimension) arrays.

    ``points = mean + sigma * steps``. The draw is keyed by (params.seed,
    state.generation): asking the same state twice returns identical arrays.
    """
    n = params.dimension
    if state.mean.shape[0] != n:
        raise ValueError("state dimension does not match strategy dimension")
    rng = np.random.default_rng((params.seed, state.generation))
    vals, vecs, least = state.eigensystem
    if least < vals[0]:
        warnings.warn(f"covariance eigenvalue {least:.3e} below floor {vals[0]:.3e}; repairing",
                      RuntimeWarning)
    steps = rng.standard_normal((params.population, n)) @ ((vecs * np.sqrt(vals)) @ vecs.T).T
    return state.mean + state.sigma * steps, steps


def tell(state: DistributionState, params: StrategyParams, steps: np.ndarray,
         costs: Sequence[float]) -> DistributionState:
    """Update the distribution from one generation's steps and their costs, row for row.

    Rows are ranked by cost; non-finite costs rank worst and ties go to the
    earlier row.
    """
    n, lam = params.dimension, params.population
    if np.shape(steps) != (lam, n):
        raise ValueError(f"expected steps of shape {(lam, n)}, got {np.shape(steps)}")
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (lam,):
        raise ValueError(f"expected {lam} costs, got shape {costs.shape}")
    finite = np.isfinite(costs)
    if not finite.any():
        raise ValueError("all candidate costs are non-finite")

    order = np.argsort(np.where(finite, costs, np.inf), kind="stable")
    y_sel = np.asarray(steps)[order[: params.parents]]
    y_w = params.weights @ y_sel

    mean = state.mean + state.sigma * y_w

    g_next = state.generation + 1
    c_s, d_s = params.c_sigma, params.d_sigma
    vals, vecs, _ = state.eigensystem
    inv_sqrt_c = (vecs / np.sqrt(vals)) @ vecs.T
    p_sigma = (1.0 - c_s) * state.p_sigma + math.sqrt(
        c_s * (2.0 - c_s) * params.mu_eff
    ) * (inv_sqrt_c @ y_w)
    sigma = state.sigma * math.exp((c_s / d_s) * (np.linalg.norm(p_sigma) / params.chi_n - 1.0))

    norm_ratio = np.linalg.norm(p_sigma) / math.sqrt(1.0 - (1.0 - c_s) ** (2 * g_next))
    h_sig = 1.0 if norm_ratio < (1.4 + 2.0 / (n + 1.0)) * params.chi_n else 0.0
    c_c = params.c_c
    p_c = (1.0 - c_c) * state.p_c + h_sig * math.sqrt(c_c * (2.0 - c_c) * params.mu_eff) * y_w

    delta_h = (1.0 - h_sig) * c_c * (2.0 - c_c)
    rank_mu = np.einsum("k,ki,kj->ij", params.weights, y_sel, y_sel)
    cov = (
        (1.0 + params.c_1 * delta_h - params.c_1 - params.c_mu) * state.cov
        + params.c_1 * np.outer(p_c, p_c)
        + params.c_mu * rank_mu
    )
    cov = 0.5 * (cov + cov.T)

    # shaped, and cov symmetric, by construction: of a stored state's checks only finiteness is kept
    fresh = {"mean": mean, "cov": cov, "p_sigma": p_sigma, "p_c": p_c}
    if not (0.0 < sigma < math.inf and all(np.isfinite(a).all() for a in fresh.values())):
        raise ValueError("the updated distribution overflowed: it is not finite")
    for arr in fresh.values():
        arr.flags.writeable = False
    new = object.__new__(DistributionState)
    vars(new).update(fresh, sigma=sigma, generation=g_next)
    return new
