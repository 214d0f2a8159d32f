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
composes the 24 Cliffords from them. The start state |0> is propagated
through a row's Cliffords at the candidates; the ideal Clifford table, with
its multiplication and inverse tables, is the composition at the calibrated pulse.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields, replace

import numpy as np

from .backends import _MAX_SHOTS, CostEvaluation, _seeded_rows, _shot_generators
from .dqd import _require_int, _require_real, _require_reals

__all__ = [
    "RbConfig",
    "PRIMITIVE_NAMES",
    "CLIFFORD_DECOMPOSITIONS",
    "GATES_PER_CLIFFORD",
    "RESONANCE_MHZ",
    "N_RANDOMIZATIONS",
    "DRIVE_RATE_RAD_PER_MV_NS",
    "clifford_table",
    "rb_sequences",
    "rb_backend_evaluate",
    "rb_decay_curve",
    "per_gate_fidelity",
]

RESONANCE_MHZ = 1000.0
N_RANDOMIZATIONS = 15  # random sequences averaged per benchmarking estimate

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
    shots_per_sequence: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            maximum = _MAX_SHOTS if f.name == "shots_per_sequence" else None
            _require_int(f.name, getattr(self, f.name), 0 if f.name == "seed" else 1, maximum)

    @functools.cached_property
    def step_table(self) -> np.ndarray:
        """Read-only (sequence_length + 1, N_RANDOMIZATIONS) Clifford indices, built on first
        use: column r is rb_sequences' randomization r, then its recovery. Not a field."""
        table = np.array([(*seq, rec) for seq, rec in rb_sequences(self)]).T
        table.flags.writeable = False
        return table


# Axis azimuth of each driven primitive, PRIMITIVE_NAMES[1:], and its
# length in units of t_d: quarter turns last t_d, half turns 2 t_d.
_DRIVE_PHASES = np.array([0.0, np.pi, 0.0, 0.5 * np.pi, 1.5 * np.pi, 0.5 * np.pi])
_DRIVE_DURATIONS = np.array([1.0, 1.0, 2.0, 1.0, 1.0, 2.0])


@np.errstate(all="ignore")  # an overflow leaves a non-finite unitary, refused by the caller
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


# For each position k of a decomposition: the Cliffords with a k-th primitive, and
# that primitive's index in PRIMITIVE_NAMES.
_STAGES = [tuple(map(np.array, zip(*[(c, PRIMITIVE_NAMES.index(seq[k]))
                                     for c, seq in enumerate(CLIFFORD_DECOMPOSITIONS)
                                     if len(seq) > k])))
           for k in range(max(map(len, CLIFFORD_DECOMPOSITIONS)))]


def _cliffords(block: np.ndarray) -> np.ndarray:
    """The 24 Clifford unitaries at each row of an (n, 3) block, (n, 24, 2, 2).

    Each is the product of its CLIFFORD_DECOMPOSITIONS primitives in
    application order, the first primitive rightmost: one stacked product per
    position after the first. They stay numpy's 2x2 ``@``, which an elementwise
    product or einsum does not round alike.
    """
    primitives = _primitives(block)
    (_, first), *later = _STAGES
    out = primitives[:, first]
    for cliffords, primitive in later:
        out[:, cliffords] = primitives[:, primitive] @ out[:, cliffords]
    return out


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
    seqs = [np.random.default_rng((cfg.seed, r)).integers(0, 24, size=cfg.sequence_length)
            for r in range(N_RANDOMIZATIONS)]
    nets = functools.reduce(lambda net, step: mult[step, net], np.transpose(seqs), 0)
    return [(seq, int(inverse[net])) for seq, net in zip(seqs, nets)]


def _return_amplitudes(x: np.ndarray, shot_seeds, sequences: np.ndarray, recoveries: dict) -> dict:
    """{m: (n, R) <0|U|0>} at each checked row (t_d, A, f) of x for the prefixes of (M, R)
    ``sequences`` that the (R,) Cliffords ``recoveries[m]`` end, in one pass of |0>."""
    block = _require_reals("pulse parameters", _seeded_rows(x, 3, shot_seeds))
    if np.any(block[:, 0] <= 0):
        raise ValueError("t_d must be positive")
    if np.any(block[:, 1] <= 0):
        raise ValueError("amplitude must be positive")
    cliffords = _cliffords(block)
    if not np.all(np.isfinite(cliffords)):
        raise ValueError("pulse parameters give Clifford unitaries that are not finite")
    c00, c01, c10, c11 = (cliffords[..., i, j].T for i in (0, 1) for j in (0, 1))
    steps = [c[sequences] for c in (c00, c01, c10, c11)]  # (M, R, n): each step contiguous
    a, b, out = steps[0][0], steps[2][0], {}  # the first Clifford's first column
    for m, (u00, u01, u10, u11) in enumerate(zip(*steps), 1):
        if m > 1:
            a, b = u00 * a + u01 * b, u10 * a + u11 * b
        if m in recoveries:
            out[m] = (c00[recoveries[m]] * a + c01[recoveries[m]] * b).T
    return out


def _costs(cfg: RbConfig, amplitudes: np.ndarray, shot_seeds) -> list[float]:
    """1 - mean return probability of each row of (n, R) amplitudes, from shots drawn
    from _shot_generators(cfg.seed, shot_seeds) wherever the row's stream is not None.

    A probability is libm's hypot, then pow, as Python's ``abs(a) ** 2`` computes it;
    np.abs and array ** round differently in the last bit. A seeded row draws its R
    sequences in one binomial call, the stream of R scalar calls.
    """
    # C order: a row's mean over axis 1 is then np.mean of that row alone, bit for bit
    probs = np.float_power(np.hypot(amplitudes.real, amplitudes.imag), 2.0, order="C")
    n = cfg.shots_per_sequence
    for row, rng in zip(probs, _shot_generators(cfg.seed, shot_seeds)):
        if rng is not None:
            # a return probability can round to just above 1
            row[:] = rng.binomial(n, np.minimum(row, 1.0)) / n
    return (1.0 - np.mean(probs, axis=1)).tolist()


def rb_backend_evaluate(cfg: RbConfig, x: np.ndarray, shot_seeds) -> list[CostEvaluation]:
    """Cost 1 - mean return probability at each row (t_d, A, f) of x, (n, 3).

    Where ``shot_seeds[i]`` is set, row i estimates each sequence's return
    probability from cfg.shots_per_sequence binomial shots; where it is None
    the exact probabilities are averaged. The start state is propagated through
    cfg.step_table at each row's 24 Cliffords; returns one evaluation per row.
    """
    steps, m = cfg.step_table, cfg.sequence_length
    amplitudes = _return_amplitudes(x, shot_seeds, steps[:-1], {m: steps[-1]})[m]
    return [CostEvaluation(cost=c) for c in _costs(cfg, amplitudes, shot_seeds)]


def rb_decay_curve(cfg: RbConfig, x: np.ndarray, lengths: list[int],
                   shot_seed: int | None = None) -> np.ndarray:
    """Mean return probability versus sequence length at fixed pulses.

    shot_seed, None or a non-negative integer, is checked before any work; a length may
    be an integral float, such as 2.0, but not 2.5 or inf. Entry i is 1 -
    rb_backend_evaluate's cost at lengths[i] and shot seed shot_seed + i, from one pass
    through the sequences of the longest length, which begin with the shorter ones.
    """
    if shot_seed is not None:
        _require_int("shot seed", shot_seed, 0)
    for m in lengths:
        _require_real("sequence length", m)
        if not float(m).is_integer():
            raise ValueError(f"sequence length {m!r} is not a whole number")
    ms = [replace(cfg, sequence_length=int(m)).sequence_length for m in lengths]
    seeds = [None if shot_seed is None else shot_seed + i for i in range(len(ms))]
    if not ms:
        return np.array([])
    sequences = replace(cfg, sequence_length=max(ms)).step_table[:-1]
    mult, inverse = _group_tables()
    nets = list(itertools.accumulate(sequences, lambda net, k: mult[k, net], initial=0))
    amplitudes = _return_amplitudes(x, [None], sequences, {m: inverse[nets[m]] for m in ms})
    return 1.0 - np.array(_costs(cfg, np.array([amplitudes[m][0] for m in ms]), seeds))


def per_gate_fidelity(p: float) -> float:
    """Average per-primitive fidelity from the Clifford decay constant."""
    return 1.0 - (1.0 - p) / (2.0 * GATES_PER_CLIFFORD)
