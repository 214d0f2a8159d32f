"""Three-level double-quantum-dot charge/spin transfer model.

Basis ordering: (singlet (2,0), singlet (1,1), triplet-zero (1,1)). The
Hamiltonian couples the two singlets by the tunnel coupling and the (1,1)
singlet to the triplet by the Zeeman difference between the dots:

    H(eps) = [[-eps, t_c,  0   ],
              [t_c,  0,    dE_z],
              [0,    dE_z, 0   ]]

Units: energies in GHz, times in ns, hbar = 1, so a constant level E
accumulates phase 2*pi*E*t. Detuning follows a linear ramp from eps_initial
to eps_final over ramp_time.

Time evolution is piecewise-constant: each step applies the exact matrix
exponential of the Hamiltonian at its midpoint. One kernel, ``_ramp_states``,
integrates every ramp (``evolve``, ``initialization_fidelity`` and each cell
and noise sample of ``sweep_fidelity_grid``) and builds each step unitary as
U = sum_k exp(-2*pi*i*lam_k*dt) v_k v_k^T / |v_k|^2 in closed form. The outer
eigenvalues solve the characteristic cubic trigonometrically; the middle one
is lam_mid = eps*dE_z^2 / (lam_low*lam_top) from det H = eps*dE_z^2, which
keeps its relative precision near 0 where -eps - lam_low - lam_top does not.
Each eigenvector is v ~ (t_c*lam, lam*(eps+lam), dE_z*(eps+lam)) or the equal
(lam^2 - dE_z^2, t_c*lam, t_c*dE_z), whichever has the larger norm. A step
falls back to eigh where its spectrum is nearly degenerate, where the two
forms of lam_mid disagree, or where both eigenvectors vanish (dE_z = 0 or a
level crossing). Arrays are component-major with trajectories on the last
axis: C trajectories hold their step unitaries as (n_steps, 3, 3, C) and fold
them pairwise in time order with einsum, C being set by one byte budget
that keeps the step unitaries in cache. Trajectories are ordered by path,
the exact bits of (eps0, eps1, t_c, dE_z), which the ramp time does not
enter, and a chunk diagonalizes the Hamiltonians of each distinct path once.
The kernel runs with floating-point warnings off; a ramp whose phase
overflows ends in a non-finite fidelity, which is refused.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

__all__ = ["DqdConfig", "StateVector", "NoiseModel", "hamiltonian", "evolve",
           "initialization_fidelity", "sweep_fidelity_grid", "grid_to_csv",
           "DEFAULT_STEPS", "GRID_STEPS"]

# Default number of integration steps per ramp (dt = ramp_time / 8000).
# The midpoint rule is second order, so this budget keeps the halved-step
# fidelity residue below 1e-8 even for the slowest ramps of interest;
# survey grids pass a coarser explicit n_steps instead.
DEFAULT_STEPS = 8000

# Step count for landscape-style grid surveys where sub-1e-6 accuracy
# would be wasted; fringe structure is converged well above this.
GRID_STEPS = 2000


def _require_real(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless value is a finite real number."""
    try:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _require_int(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless value is an integer >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class DqdConfig:
    """Ramp and coupling parameters. Energies in GHz, times in ns."""

    eps_initial: float = 0.0
    eps_final: float = 50.0
    ramp_time: float = 4.0
    tunnel_coupling: float = 10.0
    zeeman_diff: float = 0.3

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_real(f.name, getattr(self, f.name))
        if self.ramp_time <= 0.0:
            raise ValueError(f"ramp_time must be positive, got {self.ramp_time}")
        for name in ("tunnel_coupling", "zeeman_diff"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass(frozen=True)
class StateVector:
    """Three complex amplitudes over (S(2,0), S(1,1), T0(1,1))."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (3,):
            raise ValueError(f"expected 3 amplitudes, got shape {amp.shape}")
        if not abs(np.linalg.norm(amp) - 1.0) <= 1e-6:  # NaN fails it too
            raise ValueError("state vector must be normalized")
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class NoiseModel:
    """Quasistatic Gaussian detuning noise: one draw per trajectory."""

    sigma_eps: float = 1.0
    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        _require_real("sigma_eps", self.sigma_eps)
        if self.sigma_eps < 0.0:
            raise ValueError("sigma_eps must be non-negative")
        _require_int("n_samples", self.n_samples, 1)
        _require_int("seed", self.seed, 0)

    def draws(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.normal(0.0, self.sigma_eps, self.n_samples)


def hamiltonian(cfg: DqdConfig, eps: float) -> np.ndarray:
    """The 3x3 Hamiltonian at a given detuning, in GHz."""
    return _h_batch(eps, cfg.tunnel_coupling, cfg.zeeman_diff)


# ----------------------------------------------------------------------
# ramp kernel
# ----------------------------------------------------------------------

# Relative spectral gap below which step unitaries fall back to eigh.
_GAP_TOL = 1e-5

# Largest disagreement between the two formulas for the middle eigenvalue,
# relative to the smallest spectral gap, before step unitaries fall back to
# eigh. The disagreement tracks the rounding error of the trigonometric
# eigenvalues, and its ratio to the gap the error of the eigenvectors.
_MID_TOL = 1e-12

# Bytes of step unitaries held at once. Trajectories are integrated in
# chunks of this size so that a chunk's working set stays in cache.
_CHUNK_BYTES = 1 << 21

# Phase offsets of the trigonometric eigenvalue formula: lowest, highest.
_BRANCHES = np.array([2.0, 0.0])[:, None, None] * (np.pi / 3.0)


def _h_batch(eps: np.ndarray, t_c: np.ndarray, de_z: np.ndarray) -> np.ndarray:
    """Stack of Hamiltonians, shape broadcast(eps, t_c, de_z) + (3, 3)."""
    eps, t_c, de_z = np.broadcast_arrays(eps, t_c, de_z)
    h = np.zeros(eps.shape + (3, 3))
    h[..., 0, 0] = -eps
    h[..., 0, 1] = h[..., 1, 0] = t_c
    h[..., 1, 2] = h[..., 2, 1] = de_z
    return h


def _eigensystem(
    eps: np.ndarray, t_c: np.ndarray, de_z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form eigen-decomposition of H at detunings (N, C), couplings (C,).

    Returns the ascending eigenvalues ``lam`` (3, N, C), unnormalized
    eigenvectors ``v`` (3, 3, N, C) with ``v[k]`` belonging to ``lam[k]``,
    their squared norms (3, N, C) and a mask (N, C) of the points where the
    closed form is accurate; elsewhere callers use eigh.
    """
    t2, d2 = t_c * t_c, de_z * de_z
    q = eps / -3.0
    p = np.sqrt(q * q + (t2 + d2) / 3.0)
    det_b = eps * ((2.0 * d2 - t2) / 3.0 - (2.0 / 27.0) * eps * eps)
    lam = np.empty((3,) + eps.shape)
    v, v_alt = np.empty((3, 3) + eps.shape), np.empty((3, 3) + eps.shape)
    low, top = lam[::2]
    phi = np.arccos(np.clip(det_b / (2.0 * p**3), -1.0, 1.0)) / 3.0
    np.add(q, 2.0 * p * np.cos(phi + _BRANCHES), out=lam[::2])
    # det H = eps dE_z^2 gives mid to full relative precision near 0,
    # where the trace form loses digits; the two are compared below
    trace_mid = -eps - low - top
    np.divide(eps * d2, low * top, out=lam[1])
    # Two closed forms, the cross products of rows (0, 2) and (1, 2) of
    # H - lam: each loses digits where the other does not, so take the
    # one with the larger norm.
    shifted = eps + lam
    np.multiply(t_c, lam, out=v[:, 0])
    np.multiply(lam, shifted, out=v[:, 1])
    np.multiply(de_z, shifted, out=v[:, 2])
    np.subtract(lam * lam, d2, out=v_alt[:, 0])
    v_alt[:, 1], v_alt[:, 2] = v[:, 0], t_c * de_z
    # summed in component order, as einsum sums except over a single point
    norm2, norm2_alt = (w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1] + w[:, 2] * w[:, 2]
                        for w in (v, v_alt))
    use_alt = norm2_alt > norm2
    np.copyto(v, v_alt, where=use_alt[:, None])
    np.copyto(norm2, norm2_alt, where=use_alt)
    scale = np.maximum(-low, top)
    gap = np.minimum(trace_mid - low, top - trace_mid)
    ok = ((gap >= _GAP_TOL * scale) & (np.abs(lam[1] - trace_mid) <= _MID_TOL * gap)
          & np.all(norm2 > np.finfo(float).tiny, axis=0))
    return lam, v, norm2, ok


@np.errstate(all="ignore")  # a non-finite step is left to the caller's check
def _ramp_states(
    eps0: np.ndarray,
    eps1: np.ndarray,
    t_f: np.ndarray,
    t_c: np.ndarray,
    de_z: np.ndarray,
    psi0: np.ndarray,
    n_steps: int,
) -> np.ndarray:
    """Final states of linear ramps, one per trajectory.

    The ramp parameters are flat float arrays of one length T and psi0 has
    shape (T, 3); returns the (T, 3) amplitudes after n_steps midpoint steps.
    """
    frac = ((np.arange(n_steps) + 0.5) / n_steps)[:, None]
    chunk = max(1, _CHUNK_BYTES // (n_steps * 9 * 16))
    key = np.stack([eps0, eps1, t_c, de_z]).view(np.uint64)
    order = np.lexsort(key)
    out = np.empty((len(eps0), 3), dtype=complex)
    for lo in range(0, len(order), chunk):
        s = order[lo:lo + chunk]
        # component-major: steps first, trajectories last, (N, C) and (N, 3, 3, C);
        # one eigensystem per path, at the first of its run of columns
        first = np.r_[0, 1 + np.flatnonzero(np.diff(key[:, s]).any(axis=0))]
        p = s[first]
        eps = eps0[p] + (eps1[p] - eps0[p]) * frac
        lam, v, norm2, ok = _eigensystem(eps, t_c[p], de_z[p])
        if len(p) < len(s):
            runs = np.diff(first, append=len(s))
            eps, lam, v, norm2, ok = (np.repeat(a, runs, axis=-1) for a in (eps, lam, v, norm2, ok))
        dt = t_f[s] / n_steps
        # U = sum_k exp(-2i pi lam_k dt) v_k v_k^T / |v_k|^2, in real arithmetic
        theta = (-2.0 * np.pi * dt) * lam
        u = np.empty((n_steps, 3, 3, eps.shape[1]), dtype=complex)
        u.real = np.einsum("knc,kinc,kjnc->nijc", np.cos(theta) / norm2, v, v)
        u.imag = np.einsum("knc,kinc,kjnc->nijc", np.sin(theta) / norm2, v, v)
        if not ok.all():
            bad = ~ok & np.isfinite(eps)  # eigh refuses NaN; such a step stays NaN
            cols = np.nonzero(bad)[1]
            vals, vecs = np.linalg.eigh(_h_batch(eps[bad], t_c[s][cols], de_z[s][cols]))
            ph = np.exp(-2j * np.pi * vals * dt[cols, None])
            np.moveaxis(u, 3, 1)[bad] = (vecs * ph[:, None, :]) @ np.swapaxes(vecs, -1, -2)
        # pairwise time-ordered fold: U[N-1] @ ... @ U[0]
        while len(u) > 1:
            m = len(u) // 2 * 2
            paired = np.einsum("nijc,njkc->nikc", u[1:m:2], u[0:m:2])
            u = np.concatenate([paired, u[m:]]) if m < len(u) else paired
        out[s] = np.einsum("ijc,cj->ci", u[0], psi0[s])
    return out


def _ground_states(eps: np.ndarray, t_c: np.ndarray, de_z: np.ndarray) -> np.ndarray:
    """Ground eigenvector of H for a batch of detunings, shape (..., 3)."""
    _, v = np.linalg.eigh(_h_batch(eps, t_c, de_z))
    return v[..., :, 0]


def _adiabatic_targets(
    psi0: np.ndarray, eps1: np.ndarray, t_c: np.ndarray, de_z: np.ndarray
) -> np.ndarray:
    """Eigenstates at eps1 adiabatically connected to the start states psi0.

    Takes flat per-cell arrays. With t_c > 0 the lowest level never meets
    another one: for dE_z > 0 H is tridiagonal with non-zero off-diagonals,
    so its spectrum is simple, and for dE_z = 0 the lower singlet lies
    strictly below the triplet at 0. The target is then the ground state at
    eps1. With t_c = 0 the eigenvectors do not depend on eps, so the target
    is the start state itself.
    """
    return np.where((t_c == 0.0)[:, None], psi0, _ground_states(eps1, t_c, de_z))


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

# Sweepable DqdConfig fields: all of them, in the argument order of _cell_fidelities.
_AXIS_FIELDS = tuple(f.name for f in fields(DqdConfig))


def evolve(
    cfg: DqdConfig,
    psi0: StateVector,
    dt: float | None = None,
) -> StateVector:
    """Integrate the ramp from t=0 to ramp_time under H(eps(t))."""
    if dt is None:
        n_steps = DEFAULT_STEPS
    else:
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        if dt > cfg.ramp_time:
            raise ValueError(f"dt={dt} exceeds ramp_time={cfg.ramp_time}")
        n_steps = max(1, int(round(cfg.ramp_time / dt)))
    ramp = np.array([[getattr(cfg, name)] for name in _AXIS_FIELDS], dtype=float)
    return StateVector(_ramp_states(*ramp, psi0.amplitudes[None], n_steps)[0])


def initialization_fidelity(
    cfg: DqdConfig,
    noise: NoiseModel | None = None,
    n_steps: int = DEFAULT_STEPS,
) -> float:
    """Transfer fidelity of the ramp into the adiabatically connected state.

    The system starts in the ground eigenstate at eps_initial; the target is
    the eigenstate at eps_final connected to it by eigenvector continuity.
    With a noise model, each Monte-Carlo sample shifts the whole detuning
    path by one quasistatic draw and the reported fidelity is the mean
    squared overlap against the nominal target.
    """
    cell = np.array([[getattr(cfg, name)] for name in _AXIS_FIELDS], dtype=float)
    return float(_cell_fidelities(*cell, noise, n_steps)[0])


@np.errstate(all="ignore")  # an overflow leaves a non-finite fidelity, refused below
def _cell_fidelities(
    eps0: np.ndarray,
    eps1: np.ndarray,
    t_f: np.ndarray,
    t_c: np.ndarray,
    de_z: np.ndarray,
    noise: NoiseModel | None,
    n_steps: int,
) -> np.ndarray:
    """Mean transfer fidelity of each cell, given flat per-cell parameters."""
    _require_int("n_steps", n_steps, 1)
    psi0 = _ground_states(eps0, t_c, de_z)
    target = _adiabatic_targets(psi0, eps1, t_c, de_z)
    shifts = noise.draws() if noise is not None else np.zeros(1)

    def per_sample(a: np.ndarray) -> np.ndarray:
        return np.repeat(a, len(shifts), axis=0)

    # one trajectory per (cell, noise sample), cells major
    psi = _ramp_states(
        *((e[:, None] + shifts).ravel() for e in (eps0, eps1)),
        per_sample(t_f),
        per_sample(t_c),
        per_sample(de_z),
        per_sample(psi0),
        n_steps,
    )
    amp = np.sum(per_sample(target).conj() * psi, axis=-1).reshape(-1, len(shifts))
    fid = np.mean(np.abs(amp) ** 2, axis=-1)
    if not np.isfinite(fid).all():
        raise ValueError("a ramp overflows its phase rate 2*pi*eps (its detuning plus noise "
                         "shift) or its phase 2*pi*E*t_f")
    return fid


def sweep_fidelity_grid(
    cfg: DqdConfig,
    axis1: tuple[str, Sequence[float]],
    axis2: tuple[str, Sequence[float]],
    noise: NoiseModel | None = None,
    n_steps: int = GRID_STEPS,
) -> np.ndarray:
    """Initialization fidelity on a 2-D parameter grid.

    Each axis is (field_name, values) with field_name a DqdConfig field and
    non-empty flat values that each pass DqdConfig's rule for that field; the
    result has shape (len(axis1 values), len(axis2 values)), axis1 along rows.
    """
    name1, vals1 = axis1
    name2, vals2 = axis2
    for name in (name1, name2):
        if name not in _AXIS_FIELDS:
            raise ValueError(f"unknown sweep axis {name!r}; choose from {_AXIS_FIELDS}")
    if name1 == name2:
        raise ValueError("sweep axes must differ")
    vals1 = np.asarray(vals1, dtype=float)
    vals2 = np.asarray(vals2, dtype=float)
    for name, vals in ((name1, vals1), (name2, vals2)):
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError(f"{name} values must be a non-empty 1-D list, got shape {vals.shape}")
        for value in vals.tolist():
            replace(cfg, **{name: value})  # raises unless DqdConfig accepts the value

    shape = (len(vals1), len(vals2))
    cells = {name: np.full(shape, getattr(cfg, name), dtype=float) for name in _AXIS_FIELDS}
    cells[name1], cells[name2] = np.meshgrid(vals1, vals2, indexing="ij")

    fid = _cell_fidelities(*(cells[name].ravel() for name in _AXIS_FIELDS), noise, n_steps)
    return fid.reshape(shape)


def grid_to_csv(
    path: str,
    axis1: tuple[str, Sequence[float]],
    axis2: tuple[str, Sequence[float]],
    grid: np.ndarray,
) -> None:
    """Write a sweep grid as CSV: header row = axis2 values, first column = axis1."""
    name1, vals1 = axis1
    name2, vals2 = axis2
    grid = np.asarray(grid)
    if grid.shape != (len(vals1), len(vals2)):
        raise ValueError(f"grid shape {grid.shape} does not match axes")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{name1}\\{name2}"] + [repr(float(v)) for v in vals2])
        for value, row in zip(vals1, grid):
            writer.writerow([repr(float(value))] + [repr(float(x)) for x in row])
