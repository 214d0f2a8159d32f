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
integrates every ramp (``initialization_fidelity`` and each cell and noise
sample of ``sweep_fidelity_grid``) through the eigenbases of its steps.
With W_n the unit eigenvectors of step n and D_n its phases
exp(-2*pi*i*lam_k*dt), a ramp is W_{N-1} D_{N-1} (W_{N-1}^T W_{N-2}) ...
D_1 (W_1^T W_0) D_0 W_0^T. The outer eigenvalues solve the characteristic
cubic trigonometrically; the middle one is lam_mid = eps*dE_z^2 /
(lam_low*lam_top) from det H, which keeps its relative precision near 0.
Each eigenvector is the longer of two cross products of rows of H - lam. A
step falls back to eigh where its spectrum is nearly degenerate, where the
two forms of lam_mid disagree, or where both eigenvectors vanish (dE_z = 0 or
a level crossing). Trajectories are ordered by path, the exact bits of (eps0,
eps1, t_c, dE_z), which the ramp time does not enter, and cut into chunks.
A chunk builds the real basis changes W_n^T W_{n-1} once per path and scales
their rows by each trajectory's phases, cos and sin from one tan of the half
angle, to apply one step matrix a step. A ramp whose phase rate 2*pi*eps or
phase 2*pi*E*t_f overflows (E <= |eps| + t_c + dE_z) ends in NaN, refused.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

__all__ = ["DqdConfig", "NoiseModel", "initialization_fidelity", "sweep_fidelity_grid",
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


# The largest unsigned 64-bit integer, the largest a record line can hold.
_MAX_UINT64 = 2**64 - 1


def _require_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Raise ValueError naming ``name`` unless value is an integer >= minimum (and <= maximum)."""
    # a plain int, as every shot seed is, skips the slower Integral check
    integral = type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value!r}")


def _require_reals(name: str, value) -> np.ndarray:
    """A read-only float copy of ``value``; ValueError naming ``name`` unless all are finite reals.

    numpy reads the list [True, 0.5] as [1.0, 0.5], so the entries of a list
    are looked at one by one, and a bool among them is refused.
    """
    arr = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
    kinds = set(map(type, arr.flat)) if arr.dtype == object else {arr.dtype.type}
    reals = None
    if all(issubclass(kind, numbers.Real) and kind is not bool for kind in kinds):
        with contextlib.suppress(OverflowError):  # an int too large for a float
            reals = arr.astype(float)
    if reals is None or not np.isfinite(reals).all():
        raise ValueError(f"{name} must hold only finite real numbers")
    reals.setflags(write=False)
    return reals


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

# Trajectories integrated together, and bytes of step unitaries built at once:
# a chunk pays one numpy call a step for all its states, so it holds many, and
# builds its steps in slabs of this size, which stay in cache until applied.
_CHUNK, _SLAB_BYTES = 1024, 1 << 20

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


def _eigensystem(eps: np.ndarray, t_c: np.ndarray,
                 de_z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form eigen-decomposition of H at detunings (N, C), couplings (C,).

    Returns the ascending eigenvalues ``lam`` (3, N, C), unit eigenvectors
    ``w`` (3, 3, N, C) with ``w[k]`` belonging to ``lam[k]``, and a mask (N, C)
    of the points where the closed form is accurate; elsewhere callers use eigh.
    """
    t2, d2, q = t_c * t_c, de_z * de_z, eps / -3.0
    p = np.sqrt(q * q + (t2 + d2) / 3.0)
    det_b = eps * ((2.0 * d2 - t2) / 3.0 - (2.0 / 27.0) * eps * eps)
    lam = np.empty((3,) + eps.shape)
    low, top = lam[::2]
    phi = np.arccos(np.clip(det_b / (2.0 * (p * p * p)), -1.0, 1.0)) / 3.0
    # cos x = (1 - h^2) / (1 + h^2) with h = tan(x / 2), as for the step phases
    h2 = np.tan(phi / 2.0 + _BRANCHES / 2.0) ** 2
    np.add(q, 2.0 * p * ((1.0 - h2) / (1.0 + h2)), out=lam[::2])
    # det H = eps dE_z^2 gives mid to full relative precision near 0,
    # where the trace form loses digits; the two are compared below
    trace_mid = -eps - low - top
    np.divide(eps * d2, low * top, out=lam[1])
    # Two closed forms, the cross products (t_c lam, lam s, dE_z s), s = eps + lam, and
    # (lam^2 - dE_z^2, t_c lam, t_c dE_z) of rows (0, 2) and (1, 2) of H - lam: each
    # loses digits where the other does not, so take the one with the larger norm.
    w = np.empty((3, 3) + eps.shape)
    np.multiply(t_c, lam, out=w[:, 0])
    np.multiply(lam, np.add(eps, lam, out=w[:, 2]), out=w[:, 1])
    w[:, 2] *= de_z
    alt, a2 = (lam * lam - d2, t_c * de_z), w[:, 0] * w[:, 0]
    norm2 = a2 + w[:, 1] * w[:, 1] + w[:, 2] * w[:, 2]
    norm2_alt = alt[0] * alt[0] + a2 + alt[1] * alt[1]
    use_alt = norm2_alt > norm2
    norm2 = np.maximum(norm2, norm2_alt)
    for i, x in ((2, alt[1]), (1, w[:, 0]), (0, alt[0])):
        np.copyto(w[:, i], x, where=use_alt)
    w /= np.sqrt(norm2)[:, None]
    scale = np.maximum(-low, top)
    gap = np.minimum(trace_mid - low, top - trace_mid)
    ok = ((gap >= _GAP_TOL * scale) & (np.abs(lam[1] - trace_mid) <= _MID_TOL * gap)
          & (norm2.min(axis=0) > np.finfo(float).tiny) & (norm2.max(axis=0) < np.inf))
    return lam, w, ok


@np.errstate(all="ignore")  # a non-finite step is left to the caller's check
def _ramp_states(eps0: np.ndarray, eps1: np.ndarray, t_f: np.ndarray, t_c: np.ndarray,
                 de_z: np.ndarray, psi0: np.ndarray, n_steps: int) -> np.ndarray:
    """Final states of linear ramps, one per trajectory.

    The ramp parameters are flat float arrays of one length T and psi0 has
    shape (T, 3); returns the (T, 3) amplitudes after n_steps midpoint steps,
    NaN where the phase rate or the phase overflows.
    """
    frac = ((np.arange(n_steps) + 0.5) / n_steps)[:, None]
    key = np.stack([eps0, eps1, t_c, de_z]).view(np.uint64)
    order = np.lexsort(key)
    out = np.empty((len(eps0), 3), dtype=complex)
    for lo in range(0, len(order), _CHUNK):
        s = order[lo:lo + _CHUNK]
        # component-major: steps first, trajectories last, (n, C) and (n, 3, 3, C);
        # one eigensystem per path, at the first of its run of columns
        first = np.r_[0, 1 + np.flatnonzero(np.diff(key[:, s]).any(axis=0))]
        runs = np.diff(first, append=len(s))
        p = s[first]
        per_column = (lambda a: a) if len(p) == len(s) else (lambda a: np.repeat(a, runs, -1))
        half = (-np.pi / n_steps) * t_f[s]  # half the phase of a unit level over a step
        psi = psi0[s].T  # amplitudes in the last step's eigenbasis, at first the standard one
        w_last = np.broadcast_to(np.eye(3)[:, :, None, None], (3, 3, 1, len(p)))
        # Slabs of steps whose step matrices fit the budget; an eigensystem, about twice
        # their bytes a point, covers whole slabs at up to a quarter of their points.
        slab = max(1, min(n_steps, _SLAB_BYTES // (len(s) * 9 * 16)))
        u, path_slab = np.empty((slab, 3, 3, len(s)), complex), slab * max(1, len(s) // (4 * len(p)))
        for m in range(0, n_steps, path_slab):
            eps = eps0[p] + (eps1[p] - eps0[p]) * frac[m:m + path_slab]
            lam, w, ok = _eigensystem(eps, t_c[p], de_z[p])
            if not ok.all():
                bad = ~ok & np.isfinite(eps)  # eigh refuses NaN; such a step stays NaN
                cols = np.nonzero(bad)[1]
                vals, vecs = np.linalg.eigh(_h_batch(eps[bad], t_c[p][cols], de_z[p][cols]))
                lam[:, bad], w[:, :, bad] = vals.T, vecs.transpose(2, 1, 0)
            # basis changes b[n, k, j] = w_n[k] . w_{n-1}[j], summed in component order by
            # ufuncs, so that the first step of a path slab rounds as the others do
            w_prev, w_last = np.concatenate([w_last, w[:, :, :-1]], axis=2), w[:, :, -1:].copy()
            b = w[:, None, 0] * w_prev[None, :, 0]
            for c in (1, 2):
                b += w[:, None, c] * w_prev[None, :, c]
            del w, w_prev  # before the slabs below make their arrays
            b, lam = b.transpose(2, 0, 1, 3), lam.transpose(1, 0, 2)[:, :, None]
            for n in range(0, len(eps), slab):
                # row k of a basis change times exp(-2i pi lam_k dt): with h = tan(-pi lam_k dt),
                # cos = (1 - h^2) / (1 + h^2) and sin = 2h / (1 + h^2), made in place
                h = np.tan(per_column(lam[n:n + slab]) * half)
                h2 = h * h
                un, den = u[:len(h)], 1.0 + h2
                bn = per_column(b[n:n + slab])
                np.multiply(np.divide(np.add(h, h, out=h), den, out=h), bn, out=un.imag)
                np.multiply(np.divide(np.subtract(1.0, h2, out=h2), den, out=h2), bn, out=un.real)
                del h, h2, den, bn  # before the next slab makes its own
                for step in un:  # in time order
                    psi = np.einsum("ijc,jc->ic", step, psi)
        w_last = per_column(w_last[:, :, 0])
        out[s] = (w_last[0] * psi[0] + w_last[1] * psi[1] + w_last[2] * psi[2]).T
    e = np.maximum(np.abs(eps0), np.abs(eps1))
    out[~np.isfinite(2.0 * np.pi * e) | ~np.isfinite(2.0 * np.pi * (e + t_c + de_z) * t_f)] = np.nan
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


def _axis_values(name, values) -> np.ndarray:
    """A sweep axis's values as read-only floats; ValueError unless ``name`` is a DqdConfig
    field and ``values`` a non-empty flat list of reals that the field accepts."""
    if name not in _AXIS_FIELDS:
        raise ValueError(f"unknown sweep axis {name!r}; choose from {_AXIS_FIELDS}")
    vals = _require_reals("values", values)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError(f"{name} values must be a non-empty 1-D list, got shape {vals.shape}")
    for value in vals.tolist():
        DqdConfig(**{name: value})  # raises unless DqdConfig accepts the value
    return vals


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
def _cell_fidelities(eps0: np.ndarray, eps1: np.ndarray, t_f: np.ndarray, t_c: np.ndarray,
                     de_z: np.ndarray, noise: NoiseModel | None, n_steps: int) -> np.ndarray:
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

    Each axis is (field_name, values): a DqdConfig field and a non-empty flat
    list of reals (not bools) that each pass DqdConfig's rule for that field; the
    result has shape (len(axis1 values), len(axis2 values)), axis1 along rows.
    """
    (name1, _), (name2, _) = axis1, axis2
    vals1, vals2 = _axis_values(*axis1), _axis_values(*axis2)
    if name1 == name2:
        raise ValueError("sweep axes must differ")

    shape = (len(vals1), len(vals2))
    cells = {name: np.full(shape, getattr(cfg, name), dtype=float) for name in _AXIS_FIELDS}
    cells[name1], cells[name2] = np.meshgrid(vals1, vals2, indexing="ij")

    fid = _cell_fidelities(*(cells[name].ravel() for name in _AXIS_FIELDS), noise, n_steps)
    return fid.reshape(shape)

