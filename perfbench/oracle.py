"""Independent reference for ramp-grid cells.

Integrates the three-level double-dot ramp with a dense
``scipy.linalg.expm`` of every midpoint Hamiltonian and reads the final
overlap with the adiabatically connected eigenstate. It shares no code
with ``spintune.dqd`` (which assembles each step from the analytic
eigenvalues), so a grid cell that agrees with it to ``TOLERANCE`` is
right for any seed, and a kernel change at floating-point level still
passes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Absolute tolerance on a fidelity in [0, 1]. Both sides use the same
# 300-step midpoint discretization, so they differ only by roundoff.
TOLERANCE = 1e-8


def _hamiltonians(eps: np.ndarray, t_c: float, de_z: float) -> np.ndarray:
    h = np.zeros(eps.shape + (3, 3))
    h[..., 0, 0] = -eps
    h[..., 0, 1] = h[..., 1, 0] = t_c
    h[..., 1, 2] = h[..., 2, 1] = de_z
    return h


def _ground(eps: float, t_c: float, de_z: float) -> np.ndarray:
    _, vecs = np.linalg.eigh(_hamiltonians(np.array(eps), t_c, de_z))
    return vecs[:, 0].astype(complex)


def cell_fidelity(base: dict, cell: dict, shifts: np.ndarray, n_steps: int) -> float:
    """Mean transfer fidelity of one grid cell over quasistatic detuning shifts.

    ``cell`` overrides fields of ``base`` (a ramp config as in a sweep
    file). The start state and target come from the unshifted ramp; each
    shift moves the whole detuning path, as a quasistatic draw does.
    Needs non-zero tunnel coupling and Zeeman difference, where the
    connected state is the ground state at the final detuning.
    """
    p = {**base, **cell}
    t_c, de_z = float(p["tunnel_coupling"]), float(p["zeeman_diff"])
    eps0, eps1, t_f = float(p["eps_initial"]), float(p["eps_final"]), float(p["ramp_time"])
    if t_c == 0.0 or de_z == 0.0:
        raise ValueError("oracle needs non-zero couplings")
    psi0 = _ground(eps0, t_c, de_z)
    target = _ground(eps1, t_c, de_z)
    frac = (np.arange(n_steps) + 0.5) / n_steps
    dt = t_f / n_steps
    fids = []
    for shift in np.atleast_1d(shifts):
        eps = eps0 + shift + (eps1 - eps0) * frac
        steps = scipy.linalg.expm(-2j * np.pi * dt * _hamiltonians(eps, t_c, de_z))
        psi = psi0
        for u in steps:
            psi = u @ psi
        fids.append(abs(np.vdot(target, psi)) ** 2)
    return float(np.mean(fids))
