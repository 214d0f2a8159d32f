"""Single-qubit randomized benchmarking on a simulated drive line.

The qubit is driven by rectangular resonant pulses whose rotation angle
is set by the product of drive amplitude and duration, with detuning
tilting the rotation axis. Randomized Clifford sequences plus a recovery
gate give a return probability. Errors are purely coherent
(miscalibrated angle or axis), so exact calibration returns every
sequence to the initial state and the cost floor is exactly zero.

Cliffords are compiled into the primitive set {I, X(+-90), X180,
Y(+-90), Y180}, 45 primitives over the 24 group elements, 1.875 on
average.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .backends import CostEvaluation, _rows, _shot_seeds

__all__ = [
    "RbConfig",
    "PRIMITIVE_NAMES",
    "CLIFFORD_DECOMPOSITIONS",
    "GATES_PER_CLIFFORD",
    "RESONANCE_MHZ",
    "DRIVE_RATE_RAD_PER_MV_NS",
    "clifford_table",
    "primitive_unitary",
    "rb_sequences",
    "rb_backend_evaluate",
    "rb_decay_curve",
    "per_gate_fidelity",
]

RESONANCE_MHZ = 1000.0

# Rotation rate per mV of drive amplitude, chosen so a 10 mV pulse of
# 12.5 ns performs a quarter turn.
DRIVE_RATE_RAD_PER_MV_NS = np.pi / 250.0

GATES_PER_CLIFFORD = 1.875

PRIMITIVE_NAMES = ("I", "X90", "Xm90", "X180", "Y90", "Ym90", "Y180")

# Time-ordered primitive lists for each of the 24 Cliffords: Paulis,
# the eight 2pi/3 axis rotations, the six quarter turns, and the six
# half turns about diagonal axes. 45 primitives in total.
CLIFFORD_DECOMPOSITIONS = (
    ("I",),
    ("X180",),
    ("Y180",),
    ("Y180", "X180"),
    ("X90", "Y90"),
    ("X90", "Ym90"),
    ("Xm90", "Y90"),
    ("Xm90", "Ym90"),
    ("Y90", "X90"),
    ("Y90", "Xm90"),
    ("Ym90", "X90"),
    ("Ym90", "Xm90"),
    ("X90",),
    ("Xm90",),
    ("Y90",),
    ("Ym90",),
    ("Xm90", "Y90", "X90"),
    ("Xm90", "Ym90", "X90"),
    ("X180", "Y90"),
    ("X180", "Ym90"),
    ("Y180", "X90"),
    ("Y180", "Xm90"),
    ("X90", "Y90", "X90"),
    ("Xm90", "Y90", "Xm90"),
)


@dataclass(frozen=True)
class RbConfig:
    """Shape of one randomized-benchmarking estimate."""

    sequence_length: int = 30
    n_randomizations: int = 15
    shots_per_sequence: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sequence_length <= 0:
            raise ValueError("sequence_length must be positive")
        if self.n_randomizations <= 0:
            raise ValueError("n_randomizations must be positive")
        if self.shots_per_sequence <= 0:
            raise ValueError("shots_per_sequence must be positive")


def _axis_rotation(theta: float, phi: float) -> np.ndarray:
    """Rotation by theta about the equatorial axis at azimuth phi."""
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    nx, ny = np.cos(phi), np.sin(phi)
    return np.array([[c, -1j * s * (nx - 1j * ny)],
                     [-1j * s * (nx + 1j * ny), c]])


_IDEAL_ANGLES = {
    "I": None,
    "X90": (0.5 * np.pi, 0.0),
    "Xm90": (0.5 * np.pi, np.pi),
    "X180": (np.pi, 0.0),
    "Y90": (0.5 * np.pi, 0.5 * np.pi),
    "Ym90": (0.5 * np.pi, 1.5 * np.pi),
    "Y180": (np.pi, 0.5 * np.pi),
}


def _ideal_primitive(name: str) -> np.ndarray:
    if _IDEAL_ANGLES[name] is None:
        return np.eye(2, dtype=complex)
    theta, phi = _IDEAL_ANGLES[name]
    return _axis_rotation(theta, phi)


def _compose(names: tuple[str, ...], table: dict[str, np.ndarray]) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for name in names:
        u = table[name] @ u
    return u


def clifford_table() -> tuple[tuple[np.ndarray, ...], tuple[tuple[str, ...], ...]]:
    """All 24 Clifford unitaries with their primitive decompositions."""
    ideal = {name: _ideal_primitive(name) for name in PRIMITIVE_NAMES}
    unitaries = tuple(_compose(seq, ideal) for seq in CLIFFORD_DECOMPOSITIONS)
    return unitaries, CLIFFORD_DECOMPOSITIONS


def _phase_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return abs(abs(np.trace(a.conj().T @ b)) - 2.0) < 1e-9


_GROUP_CACHE: dict[str, np.ndarray] = {}


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Multiplication and inverse index tables of the Clifford group."""
    if not _GROUP_CACHE:
        unitaries, _ = clifford_table()
        n = len(unitaries)
        mult = np.empty((n, n), dtype=np.int64)
        inverse = np.empty(n, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                prod = unitaries[i] @ unitaries[j]
                for k in range(n):
                    if _phase_equal(prod, unitaries[k]):
                        mult[i, j] = k
                        break
                else:
                    raise RuntimeError("Clifford table is not closed")
            for k in range(n):
                if _phase_equal(unitaries[i].conj().T, unitaries[k]):
                    inverse[i] = k
                    break
            else:
                raise RuntimeError("Clifford table is missing an inverse")
        _GROUP_CACHE["mult"] = mult
        _GROUP_CACHE["inverse"] = inverse
    return _GROUP_CACHE["mult"], _GROUP_CACHE["inverse"]


def primitive_unitary(name: str, t_d: float, amplitude: float,
                      frequency_mhz: float) -> np.ndarray:
    """Unitary of one drive primitive at the given pulse parameters.

    Quarter-turn pulses and the idle last t_d; half-turn pulses last
    2 t_d. The drive Rabi rate is linear in amplitude and the detuning
    from the resonance frequency tilts the rotation axis.
    """
    if name not in _IDEAL_ANGLES:
        raise KeyError(f"unknown primitive {name!r}")
    delta = 2.0 * np.pi * (frequency_mhz - RESONANCE_MHZ) * 1e-3
    if name == "I":
        half = 0.5 * delta * t_d
        return np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]])
    theta_target, phi = _IDEAL_ANGLES[name]
    tau = t_d if theta_target < 0.75 * np.pi else 2.0 * t_d
    omega = DRIVE_RATE_RAD_PER_MV_NS * amplitude
    eff = np.sqrt(omega**2 + delta**2)
    half = 0.5 * eff * tau
    c, s = np.cos(half), np.sin(half)
    nx = omega * np.cos(phi) / eff
    ny = omega * np.sin(phi) / eff
    nz = delta / eff
    return np.array([[c - 1j * s * nz, -1j * s * (nx - 1j * ny)],
                     [-1j * s * (nx + 1j * ny), c + 1j * s * nz]])


def rb_sequences(cfg: RbConfig) -> list[tuple[np.ndarray, int]]:
    """Clifford index sequences and their recovery gates for one config.

    Randomization r draws from a generator seeded by (cfg.seed, r), so
    sequences are stable across processes and across sequence lengths
    that share a seed.
    """
    mult, inverse = _group_tables()
    out = []
    for r in range(cfg.n_randomizations):
        rng = np.random.default_rng((cfg.seed, r))
        seq = rng.integers(0, 24, size=cfg.sequence_length)
        net = 0
        for c in seq:
            net = mult[c, net]
        out.append((seq, int(inverse[net])))
    return out


def _primitive_indices(sequences: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Primitives of each sequence and its recovery gate, in application order.

    Returns (R, L) indices into PRIMITIVE_NAMES, one row per sequence,
    padded at the end with the identity's index, len(PRIMITIVE_NAMES).
    """
    index = {name: k for k, name in enumerate(PRIMITIVE_NAMES)}
    rows = [[index[name] for c in (*seq, rec) for name in CLIFFORD_DECOMPOSITIONS[c]]
            for seq, rec in sequences]
    out = np.full((len(rows), max(map(len, rows))), len(PRIMITIVE_NAMES))
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out


def rb_backend_evaluate(cfg: RbConfig, x: np.ndarray,
                        shot_seed=None) -> CostEvaluation | list[CostEvaluation]:
    """Cost 1 - mean return probability at pulse parameters (t_d, A, f).

    With ``shot_seed`` set, each sequence's return probability is
    estimated from cfg.shots_per_sequence binomial shots; with None the
    exact probabilities are averaged. ``x`` is one parameter vector (3,),
    giving one evaluation, or a block (n, 3) with a scalar or n shot
    seeds, giving a list; every sequence of every row is composed in one
    stacked product.
    """
    block, single = _rows(x, 3)
    if np.any(block[:, 0] <= 0):
        raise ValueError("t_d must be positive")
    if np.any(block[:, 1] <= 0):
        raise ValueError("amplitude must be positive")
    seeds = _shot_seeds(shot_seed, len(block))
    # (n, 8, 2, 2): each row's primitives, then the identity used as padding
    primitives = np.array([
        [primitive_unitary(name, *(float(v) for v in row)) for name in PRIMITIVE_NAMES]
        + [np.eye(2, dtype=complex)] for row in block])
    index = _primitive_indices(rb_sequences(cfg))
    u = np.broadcast_to(np.eye(2, dtype=complex), (len(block), len(index), 2, 2))
    for step in index.T:
        u = primitives[:, step] @ u
    out = []
    for amplitudes, seed in zip(u[..., 0, 0], seeds):
        # scalar abs and **, as for a single sequence: np.abs and array **
        # round differently in the last bit
        probs = [abs(a) ** 2 for a in amplitudes]
        if seed is not None:
            rng = np.random.default_rng((cfg.seed, seed))
            n = cfg.shots_per_sequence
            probs = [rng.binomial(n, p) / n for p in probs]
        mean = float(np.mean(probs))
        out.append(CostEvaluation(cost=1.0 - mean, metadata={"return_probability": mean}))
    return out[0] if single else out


def rb_decay_curve(cfg: RbConfig, x: np.ndarray, lengths: list[int],
                   shot_seed: int | None = None) -> np.ndarray:
    """Mean return probability versus sequence length at fixed pulses."""
    out = []
    for i, m in enumerate(lengths):
        cfg_m = replace(cfg, sequence_length=int(m))
        seed = None if shot_seed is None else int(shot_seed) + i
        out.append(1.0 - rb_backend_evaluate(cfg_m, x, shot_seed=seed).cost)
    return np.array(out)


def per_gate_fidelity(p: float) -> float:
    """Average per-primitive fidelity from the Clifford decay constant."""
    return 1.0 - (1.0 - p) / (2.0 * GATES_PER_CLIFFORD)
