"""Single-qubit randomized benchmarking on a simulated drive line.

The qubit is driven by rectangular resonant pulses whose rotation angle
is set by the product of drive amplitude and duration, with detuning
tilting the rotation axis. Randomized Clifford sequences plus a recovery
gate give a return probability. Errors are purely coherent
(miscalibrated angle or axis), so exact calibration returns every
sequence to the initial state and the cost floor is exactly zero.

Cliffords are compiled into the primitive set {I, X(+-90), X180,
Y(+-90), Y180}, 45 primitives over the 24 group elements, 1.875 on
average. One array function states the pulse physics: it gives every
primitive at each row of a block of pulse parameters, and one more
composes the 24 Cliffords from them. The driven sequences are products
of a row's Cliffords at the candidates; the ideal Clifford table, with
its multiplication and inverse tables, is the same composition at the
calibrated pulse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from .backends import CostEvaluation, _seeded_rows
from .dqd import _require_int

__all__ = [
    "RbConfig",
    "PRIMITIVE_NAMES",
    "CLIFFORD_DECOMPOSITIONS",
    "GATES_PER_CLIFFORD",
    "RESONANCE_MHZ",
    "DRIVE_RATE_RAD_PER_MV_NS",
    "clifford_table",
    "rb_sequences",
    "rb_backend_evaluate",
    "rb_decay_curve",
    "per_gate_fidelity",
]

RESONANCE_MHZ = 1000.0

# Rotation rate per mV of drive amplitude, chosen so a 10 mV pulse of
# 12.5 ns performs a quarter turn.
DRIVE_RATE_RAD_PER_MV_NS = np.pi / 250.0

PRIMITIVE_NAMES = ("I", "X90", "Xm90", "X180", "Y90", "Ym90", "Y180")

# Time-ordered primitive lists for each of the 24 Cliffords, by class:
# Paulis, the eight 2pi/3 axis rotations, the six quarter turns, and the
# six half turns about diagonal axes. 45 primitives in total.
CLIFFORD_DECOMPOSITIONS = (
    ("I",), ("X180",), ("Y180",), ("Y180", "X180"),
    ("X90", "Y90"), ("X90", "Ym90"), ("Xm90", "Y90"), ("Xm90", "Ym90"),
    ("Y90", "X90"), ("Y90", "Xm90"), ("Ym90", "X90"), ("Ym90", "Xm90"),
    ("X90",), ("Xm90",), ("Y90",), ("Ym90",),
    ("Xm90", "Y90", "X90"), ("Xm90", "Ym90", "X90"),
    ("X180", "Y90"), ("X180", "Ym90"), ("Y180", "X90"), ("Y180", "Xm90"),
    ("X90", "Y90", "X90"), ("Xm90", "Y90", "Xm90"),
)

# Mean primitives per Clifford: 45 / 24 = 1.875.
GATES_PER_CLIFFORD = sum(map(len, CLIFFORD_DECOMPOSITIONS)) / len(CLIFFORD_DECOMPOSITIONS)


@dataclass(frozen=True)
class RbConfig:
    """Shape of one randomized-benchmarking estimate."""

    sequence_length: int = 30
    n_randomizations: int = 15
    shots_per_sequence: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_int(f.name, getattr(self, f.name), 0 if f.name == "seed" else 1)


# Axis azimuth of each driven primitive, PRIMITIVE_NAMES[1:], and its
# length in units of t_d: quarter turns last t_d, half turns 2 t_d.
_DRIVE_PHASES = np.array([0.0, np.pi, 0.0, 0.5 * np.pi, 1.5 * np.pi, 0.5 * np.pi])
_DRIVE_DURATIONS = np.array([1.0, 1.0, 2.0, 1.0, 1.0, 2.0])


def _primitives(block: np.ndarray) -> np.ndarray:
    """Unitaries of every primitive at each row (t_d, A, f) of an (n, 3) block.

    Returns (n, 7, 2, 2), PRIMITIVE_NAMES in order. The drive Rabi rate is
    linear in amplitude and the detuning from the resonance frequency tilts
    the rotation axis.
    """
    t_d, amplitude, frequency_mhz = (block[:, k, None] for k in range(3))
    delta = 2.0 * np.pi * (frequency_mhz - RESONANCE_MHZ) * 1e-3
    omega = DRIVE_RATE_RAD_PER_MV_NS * amplitude
    # float_power is libm pow, as Python's ** on floats; x**2 on an array is
    # x * x, which differs in the last bit for about one value in 1000
    eff = np.sqrt(np.float_power(omega, 2.0) + np.float_power(delta, 2.0))
    half = 0.5 * eff * (_DRIVE_DURATIONS * t_d)
    c, s = np.cos(half), np.sin(half)
    nx = omega * np.cos(_DRIVE_PHASES) / eff
    ny = omega * np.sin(_DRIVE_PHASES) / eff
    nz = delta / eff
    out = np.zeros((len(block), len(PRIMITIVE_NAMES), 2, 2), dtype=complex)
    # the idle I lasts t_d and only precesses: the driven form's axis is 0/0
    # at resonance without drive
    out[:, 0, [0, 1], [0, 1]] = np.exp(np.array([-1j, 1j]) * (0.5 * delta * t_d))
    out[:, 1:, 0, 0] = c - 1j * s * nz
    out[:, 1:, 0, 1] = -1j * s * (nx - 1j * ny)
    out[:, 1:, 1, 0] = -1j * s * (nx + 1j * ny)
    out[:, 1:, 1, 1] = c + 1j * s * nz
    return out


def _cliffords(block: np.ndarray) -> np.ndarray:
    """The 24 Clifford unitaries at each row of an (n, 3) block, (n, 24, 2, 2).

    Each is the product of its CLIFFORD_DECOMPOSITIONS primitives in
    application order, the first primitive rightmost.
    """
    named = dict(zip(PRIMITIVE_NAMES, _primitives(block).swapaxes(0, 1)))
    return np.stack([functools.reduce(lambda u, name: named[name] @ u, seq[1:], named[seq[0]])
                     for seq in CLIFFORD_DECOMPOSITIONS], axis=1)


def clifford_table() -> np.ndarray:
    """All 24 Clifford unitaries, (24, 2, 2), in CLIFFORD_DECOMPOSITIONS order.

    They are composed from the primitives at the calibrated pulse (12.5 ns,
    10 mV, on resonance), where each is ideal up to rounding.
    """
    return _cliffords(np.array([[12.5, 10.0, RESONANCE_MHZ]]))[0]


@functools.cache
def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Multiplication and inverse index tables of the Clifford group.

    Every product T_i T_j and every adjoint T_i^H is matched to the entry
    T_k with |tr(T_k^H U)| = 2, which holds when U equals T_k up to phase.
    """
    table = clifford_table()
    n = len(table)
    targets = np.concatenate([(table[:, None] @ table[None]).reshape(n * n, 2, 2),
                              table.conj().swapaxes(1, 2)])
    hits = np.abs(np.abs(np.einsum("kab,uab->uk", table.conj(), targets)) - 2.0) < 1e-9
    if np.any(hits.sum(axis=1) != 1):
        raise RuntimeError("Clifford table is not closed under products and inverses")
    index = hits.argmax(axis=1)
    index.flags.writeable = False  # every caller shares the cached tables
    return index[:n * n].reshape(n, n), index[n * n:]


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


def rb_backend_evaluate(cfg: RbConfig, x: np.ndarray, shot_seeds) -> list[CostEvaluation]:
    """Cost 1 - mean return probability at each row (t_d, A, f) of x, (n, 3).

    Where ``shot_seeds[i]`` is set, row i estimates each sequence's return
    probability from cfg.shots_per_sequence binomial shots; where it is
    None the exact probabilities are averaged. Each row's 24 Cliffords are
    composed once, then every sequence of every row from them in one stacked
    product of sequence_length + 1 Clifford steps; returns one evaluation
    per row.
    """
    block = _seeded_rows(x, 3, shot_seeds)
    if not np.all(np.isfinite(block)):
        raise ValueError("pulse parameters must be finite")
    if np.any(block[:, 0] <= 0):
        raise ValueError("t_d must be positive")
    if np.any(block[:, 1] <= 0):
        raise ValueError("amplitude must be positive")
    cliffords = _cliffords(block)
    steps = np.array([(*seq, rec) for seq, rec in rb_sequences(cfg)]).T
    u = cliffords[:, steps[0]]
    for step in steps[1:]:
        u = cliffords[:, step] @ u
    out = []
    for amplitudes, seed in zip(u[..., 0, 0], shot_seeds):
        # scalar abs and **, as for a single sequence: np.abs and array **
        # round differently in the last bit
        probs = [abs(a) ** 2 for a in amplitudes]
        if seed is not None:
            rng = np.random.default_rng((cfg.seed, seed))
            n = cfg.shots_per_sequence
            probs = [rng.binomial(n, p) / n for p in probs]
        mean = float(np.mean(probs))
        out.append(CostEvaluation(cost=1.0 - mean))
    return out


def rb_decay_curve(cfg: RbConfig, x: np.ndarray, lengths: list[int],
                   shot_seed: int | None = None) -> np.ndarray:
    """Mean return probability versus sequence length at fixed pulses."""
    out = []
    for i, m in enumerate(lengths):
        cfg_m = replace(cfg, sequence_length=int(m))
        seed = None if shot_seed is None else int(shot_seed) + i
        out.append(1.0 - rb_backend_evaluate(cfg_m, x, [seed])[0].cost)
    return np.array(out)


def per_gate_fidelity(p: float) -> float:
    """Average per-primitive fidelity from the Clifford decay constant."""
    return 1.0 - (1.0 - p) / (2.0 * GATES_PER_CLIFFORD)
