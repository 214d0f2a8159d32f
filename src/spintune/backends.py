"""Simulated device backends for closed-loop tuning.

Two of the three cost functions live here: Pauli-spin-blockade readout
visibility over 14 gate-voltage and timing parameters, and shuttling
echo amplitude over 8 gate offsets. Both evaluate candidates in the
normalized unit cube against a hidden landscape whose optimum is
planted at construction, so optimizer runs can be scored against ground
truth. The single-qubit benchmarking backend is in ``rb``. A landscape
is written as a fixture by ``harness.json_plain`` and read back by
``harness.json_object``.

Every cost function, here and in ``rb``, takes candidates as (n, d) rows,
a vector being one row, and returns one result per row. Those that draw
shots take one shot seed per row and draw from
``default_rng((landscape seed, shot seed))``, or the run seed in ``rb``,
so a block evaluated in one call gives exactly what each row gives
alone. A block's generators are built together: SeedSequence's hash
runs over all rows in one pass and seeds each PCG64 as numpy does.
Metadata holds only what the cost does not give: readout keeps
``true_visibility`` and shuttle ``p``, each with its ``shots`` under
shot noise; RB keeps none. Visibility V is -cost, under shot noise
(odd_given_odd - odd_given_even) / n_shots from the readout ``shots``
counts, and readout fidelity (1 + clamp(V)) / 2; echo amplitude is
1 - cost and its noiseless value (1 - p) ** (distance / 10 um); RB
return probability is 1 - cost.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import dqd
from .dqd import DqdConfig, initialization_fidelity

__all__ = [
    "SpaceEntry",
    "ParameterSpace",
    "CostEvaluation",
    "HiddenLandscape",
    "readout_space",
    "shuttle_space",
    "rb_space",
    "make_readout_landscape",
    "make_shuttle_landscape",
    "optimum_init_fidelity",
    "true_readout_visibility",
    "readout_backend_evaluate",
    "shuttle_depolarization",
    "shuttle_backend_evaluate",
    "READOUT_CEILING",
    "SHUTTLE_P_OPTIMUM",
    "SHUTTLE_P_WORST",
    "DEFAULT_SHUTTLE_DISTANCE_UM",
]

READOUT_CEILING = 0.995
READOUT_BASE_VISIBILITY = 0.05

SHUTTLE_P_OPTIMUM = 0.0192
SHUTTLE_P_WORST = 0.117
SHUTTLE_SEGMENT_UM = 10.0
DEFAULT_SHUTTLE_DISTANCE_UM = 172.8

# Integrator steps for the embedded initialization-ramp fidelity. The
# closed loop integrates one ramp per candidate, so it runs coarser than the
# standalone quantum-sim default. Against 2400 steps, over 300 random ramps
# of the readout space, the fidelity error has median 3.8e-6, 90th
# percentile 2.2e-4 and maximum 2.4e-3, the largest on the longest ramps;
# all are below the binomial noise of 1000 shots it feeds into.
_INIT_STEPS = 300

# The four initialization-stage parameters as (DqdConfig field, readout
# parameter, physical range); each maps linearly from the normalized
# coordinate. The Zeeman difference is fixed.
_INIT_STAGE = (
    ("eps_initial", "vP1_init", (-50.0, 0.0)),
    ("eps_final", "vP2_init", (20.0, 80.0)),
    ("ramp_time", "t_read_init", (0.05, 8.0)),
    ("tunnel_coupling", "B1_init", (2.0, 12.0)),
)
_INIT_ZEEMAN_GHZ = 0.3


@dataclass(frozen=True)
class SpaceEntry:
    """One named physical parameter with bounds and unit."""

    name: str
    low: float
    high: float
    unit: str

    def __post_init__(self) -> None:
        for bound in ("low", "high"):
            dqd._require_real(f"parameter {self.name!r} {bound}", getattr(self, bound))
        if not self.low < self.high:
            raise ValueError(
                f"parameter {self.name!r}: low {self.low} must be < high {self.high}"
            )


@dataclass(frozen=True)
class ParameterSpace:
    """Ordered set of named parameters with normalize/denormalize maps.

    The optimizer works in the unit cube; backends and exports use
    physical units. ``normalize`` and ``denormalize`` are exact inverses
    up to floating-point roundoff.
    """

    entries: tuple[SpaceEntry, ...]

    def __post_init__(self) -> None:
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        if not self.entries:
            raise ValueError("parameter space must not be empty")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def index(self, name: str) -> int:
        if name not in self.names:
            raise KeyError(f"unknown parameter {name!r}")
        return self.names.index(name)

    def lows(self) -> np.ndarray:
        return np.array([e.low for e in self.entries])

    def highs(self) -> np.ndarray:
        return np.array([e.high for e in self.entries])

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """Map physical values, one vector or rows of them, to the unit cube."""
        lo, hi = self.lows(), self.highs()
        return ((_rows(values, self.dimension) - lo) / (hi - lo)).reshape(np.shape(values))

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        """Map unit-cube coordinates, one vector or rows of them, to physical values."""
        lo, hi = self.lows(), self.highs()
        return (lo + (hi - lo) * _rows(x, self.dimension)).reshape(np.shape(x))


def readout_space() -> ParameterSpace:
    """The 14 tunable parameters of the readout and initialization stages.

    Four of them (vP1_init, vP2_init, B1_init, t_read_init) feed the
    double-dot ramp model; the rest act through the planted quadratic
    landscape only.
    """
    mv = "mV"
    ns = "ns"
    return ParameterSpace((
        SpaceEntry("ve12_read", -3.0, 3.0, mv),
        SpaceEntry("vmu12_read", -3.0, 3.0, mv),
        SpaceEntry("B0_read", -50.0, 50.0, mv),
        SpaceEntry("B1_read", -50.0, 50.0, mv),
        SpaceEntry("B2_read", -50.0, 50.0, mv),
        SpaceEntry("B1_init", -50.0, 50.0, mv),
        SpaceEntry("vP1_init", -5.0, 5.0, mv),
        SpaceEntry("vP2_init", -5.0, 5.0, mv),
        SpaceEntry("vP2_zero", -5.0, 5.0, mv),
        SpaceEntry("vP3_zero", -5.0, 5.0, mv),
        SpaceEntry("t_measure", 100.0, 5000.0, ns),
        SpaceEntry("t_zero_read", 10.0, 500.0, ns),
        SpaceEntry("t_read_init", 0.05, 8.0, ns),
        SpaceEntry("t_init_zero", 10.0, 500.0, ns),
    ))


def shuttle_space() -> ParameterSpace:
    """The 8 gate-offset voltages of the conveyor shuttling pulse."""
    mv = "mV"
    return ParameterSpace(tuple(
        SpaceEntry(name, -10.0, 10.0, mv)
        for name in ("vP1", "vP2", "vP3", "vP4", "B1", "B2", "B3", "B4")
    ))


def rb_space() -> ParameterSpace:
    """Drive-pulse parameters for single-qubit gate benchmarking.

    Bounds bracket a roughly calibrated working point, as in fine
    tuning on a live device; they keep the quarter-turn pulse between
    a 50 and a 150 degree rotation everywhere in the box, so no corner
    degenerates into do-nothing pulses that trivially return the state.
    """
    return ParameterSpace((
        SpaceEntry("t_d", 10.0, 16.0, "ns"),
        SpaceEntry("A", 7.0, 13.0, "mV"),
        SpaceEntry("f", 995.0, 1005.0, "MHz"),
    ))


@dataclass(frozen=True)
class CostEvaluation:
    """Scalar cost for one candidate plus JSON-plain metadata, as the harness writes it."""

    cost: float
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HiddenLandscape:
    """Planted ground truth a backend evaluates against.

    ``optimum`` is the cost minimizer in normalized coordinates,
    ``coupling`` the SPD quadratic form giving curvature and crosstalk,
    and ``floor`` the planted best defect: one minus the peak visibility
    for the readout task, or the minimal depolarization parameter for
    the shuttle task. ``optimum`` and ``coupling`` are held as read-only
    float copies.
    """

    optimum: np.ndarray
    coupling: np.ndarray
    floor: float
    shot_noise: bool
    seed: int

    def __post_init__(self) -> None:
        for name in ("optimum", "coupling"):
            object.__setattr__(self, name, dqd._require_reals(name, getattr(self, name)))
        if self.optimum.ndim != 1 or self.optimum.size == 0:
            raise ValueError("optimum must be a non-empty vector")
        if not isinstance(self.shot_noise, bool):
            raise ValueError(f"shot_noise must be true or false, got {self.shot_noise!r}")
        dqd._require_int("seed", self.seed, 0, dqd._MAX_UINT64)  # a record header holds it
        dqd._require_real("floor", self.floor)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "floor", float(self.floor))
        n = self.optimum.shape[0]
        if self.coupling.shape != (n, n):
            raise ValueError("coupling shape does not match optimum length")
        if not np.allclose(self.coupling, self.coupling.T, atol=1e-12):
            raise ValueError("coupling must be symmetric")
        if np.linalg.eigvalsh(self.coupling)[0] <= 0:
            raise ValueError("coupling must be positive definite")
        if not 0.0 <= self.floor < 1.0:
            raise ValueError(f"floor {self.floor} outside [0, 1)")

    def quadratic(self, x: np.ndarray) -> np.ndarray:
        """Crosstalk quadratic form at each normalized row of x, (n, d); a vector is one row.

        Each row gives the same bits as ``d @ coupling @ d`` on its own.
        """
        d = _rows(x, self.optimum.size) - self.optimum
        return (d[:, None, :] @ self.coupling @ d[:, :, None])[:, 0, 0]


def make_readout_landscape(seed: int) -> HiddenLandscape:
    """Build a seeded 14-parameter readout landscape, noisy, peaking at READOUT_CEILING.

    The four initialization-stage coordinates of the optimum are pinned
    to an adiabatic sweet spot of the ramp model; the crosstalk pairs
    (ve12_read, B2_read) and (vmu12_read, B1_read) carry off-diagonal
    couplings whose signs the covariance analysis should rediscover.
    """
    space = readout_space()
    n = space.dimension
    rng = np.random.default_rng(seed)
    optimum = rng.uniform(0.3, 0.7, n)
    optimum[space.index("vP1_init")] = 0.40
    optimum[space.index("vP2_init")] = 0.50
    optimum[space.index("B1_init")] = 0.80
    optimum[space.index("t_read_init")] = 0.50
    diag = rng.uniform(0.15, 0.6, n)
    coupling = np.diag(diag)
    i, j = space.index("ve12_read"), space.index("B2_read")
    coupling[i, j] = coupling[j, i] = -0.6 * np.sqrt(diag[i] * diag[j])
    i, j = space.index("vmu12_read"), space.index("B1_read")
    coupling[i, j] = coupling[j, i] = 0.6 * np.sqrt(diag[i] * diag[j])
    return HiddenLandscape(optimum, coupling, 1.0 - READOUT_CEILING, True, seed)


def _init_stage_ramps(space: ParameterSpace, block: np.ndarray) -> dict[str, np.ndarray]:
    """Ramp parameters of each row of an (n, 14) block, by DqdConfig field, all five of them."""
    ramps = {attr: lo + (hi - lo) * block[:, space.index(name)]
             for attr, name, (lo, hi) in _INIT_STAGE}
    return {**ramps, "zeeman_diff": np.full(len(block), _INIT_ZEEMAN_GHZ)}


def _rows(x: np.ndarray, dim: int) -> np.ndarray:
    """x as a contiguous (n, dim) block; a vector is one row."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"expected a vector or rows of dimension {dim}, got shape {x.shape}")
    return np.ascontiguousarray(x.reshape(-1, dim))


def _seeded_rows(x: np.ndarray, dim: int, shot_seeds) -> np.ndarray:
    """x as an (n, dim) block, checked to come with one shot seed per row."""
    block = _rows(x, dim)
    if len(shot_seeds) != len(block):
        raise ValueError(f"expected {len(block)} shot seeds, got {len(shot_seeds)}")
    return block


def _unit_rows(landscape: HiddenLandscape, x: np.ndarray, shot_seeds, n_shots: int) -> np.ndarray:
    """The checked (n, d) block of a landscape backend, clipped to the unit cube."""
    block = _seeded_rows(x, landscape.optimum.size, shot_seeds)
    if not np.all((block >= -1e-9) & (block <= 1 + 1e-9)):  # nan fails it too
        raise ValueError("candidate outside the unit cube")
    if landscape.shot_noise and n_shots <= 0:
        raise ValueError("n_shots must be positive")
    return np.clip(block, 0.0, 1.0)


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the four 64-bit words a SeedSequence would generate for it."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


@functools.cache
def _hash_constants(n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """seed_seq's hash constants as uint32 columns, for an entropy of n_words words: the
    mixing hash's, one per hashmix call and one more, then the output hash's 8 + 1."""
    def run(h: int, mult: int, calls: int) -> np.ndarray:
        steps = itertools.accumulate(range(calls), lambda h, _: h * mult & 0xFFFFFFFF, initial=h)
        return np.array(list(steps), np.uint32)[:, None]
    return run(0x43B0D7E5, 0x931E8875, 16 + 4 * max(0, n_words - 4)), run(0x8B51F9DD, 0x58F38DED, 8)


def _seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) of each row of an (n, L) uint32
    block, by O'Neill's seed_seq hash in wrapping uint32 arithmetic over all rows at once,
    one pool word's round per call. Returns a C-ordered (n, 4) block, one row per PCG64."""
    def hashmix(v, h):  # v[i] hashed by the call that h[i] begins
        v = (v ^ h[:-1]) * h[1:]
        return v ^ (v >> 16)

    def mix(x, y):
        r = 0xCA01F9DD * x - 0x4973F715 * y
        return r ^ (r >> 16)

    n, n_words = entropy.shape
    h, final = _hash_constants(n_words)
    words = np.zeros((max(4, n_words), n), np.uint32)
    words[:n_words] = entropy.T
    pool = hashmix(words[:4], h[:5])
    for s in range(4):  # pool word s is not changed in its own round
        others = [d for d in range(4) if d != s]
        pool[others] = mix(pool[others], hashmix(pool[s], h[4 + 3 * s:8 + 3 * s]))
    for j, e in enumerate(words[4:]):
        pool = mix(pool, hashmix(e, h[16 + 4 * j:21 + 4 * j]))
    out = hashmix(np.concatenate([pool, pool]), final).astype(np.uint64)
    # a Fortran-ordered block would hand PCG64 strided rows
    return np.ascontiguousarray((out[0::2] | out[1::2] << np.uint64(32)).T)


def _word_count(n: int) -> int:
    return max(1, -(-n.bit_length() // 32))


def _shot_generators(seed: int, keys) -> list[np.random.Generator]:
    """np.random.default_rng((seed, key)) for each key, bit for bit, from one SeedSequence
    hash over the keys of each word count; numpy seeds each PCG64 from the hash's words.
    A key other than a non-negative integer goes through default_rng, which seeds or
    raises as ever."""
    out, groups, seed = [None] * len(keys), {}, int(seed)
    for i, key in enumerate(keys):
        if isinstance(key, (int, np.integer)) and key >= 0:
            groups.setdefault(_word_count(int(key)), []).append(i)
        else:
            out[i] = np.random.default_rng((seed, key))
    head = seed.to_bytes(4 * _word_count(seed), "little")
    for n_words, rows in groups.items():
        raw = b"".join(head + int(keys[i]).to_bytes(4 * n_words, "little") for i in rows)
        states = _seed_sequence_words(np.frombuffer(raw, "<u4").reshape(len(rows), -1))
        for i, words in zip(rows, states):
            out[i] = np.random.Generator(np.random.PCG64(_StateWords(words)))
    return out


def _shot_counts(landscape: HiddenLandscape, shot_seeds, n_shots: int,
                 contrasts: list[float]) -> list[tuple[int, int] | None]:
    """Each row's counts of n_shots at 0.5 (1 + contrast), then at 0.5 (1 - contrast),
    drawn from default_rng((landscape.seed, shot seed)); None per row without shot noise."""
    if not landscape.shot_noise:
        return [None] * len(contrasts)
    return [(int(rng.binomial(n_shots, 0.5 * (1.0 + c))),
             int(rng.binomial(n_shots, 0.5 * (1.0 - c))))
            for rng, c in zip(_shot_generators(landscape.seed, shot_seeds), contrasts)]


def optimum_init_fidelity(landscape: HiddenLandscape, space: ParameterSpace) -> float:
    """Initialization-ramp fidelity at the planted readout optimum, which visibility is relative to."""
    at_optimum = _init_stage_ramps(space, landscape.optimum[None])
    return initialization_fidelity(DqdConfig(**{name: float(v[0]) for name, v in at_optimum.items()}),
                                   n_steps=_INIT_STEPS)


def true_readout_visibility(landscape: HiddenLandscape, space: ParameterSpace,
                            x: np.ndarray) -> list[float]:
    """Noiseless visibility of the planted readout landscape at each row of x, (n, d).

    A Gaussian bump over the crosstalk quadratic is multiplied by the
    initialization-ramp fidelity relative to its value at the planted
    optimum, clamped at 1 so the optimum stays the unique maximizer even
    though the ramp model's own best point lies elsewhere. The ramps of
    all rows are integrated together; a vector is one row.
    """
    return _visibility(landscape, space, x, optimum_init_fidelity(landscape, space))


def _visibility(landscape: HiddenLandscape, space: ParameterSpace, x: np.ndarray,
                f_opt: float) -> list[float]:
    """``true_readout_visibility`` given ``optimum_init_fidelity(landscape, space)`` as f_opt."""
    block = _rows(x, space.dimension)
    ramps = _init_stage_ramps(space, block)
    f_init = dqd._cell_fidelities(*(ramps[name] for name in dqd._AXIS_FIELDS), None,
                                  _INIT_STEPS).tolist()
    span = (1.0 - landscape.floor) - READOUT_BASE_VISIBILITY
    return [float(span * np.exp(-q) * min(1.0, f / f_opt)) + READOUT_BASE_VISIBILITY
            for q, f in zip(landscape.quadratic(block).tolist(), f_init)]


def _measure_readout(v_true: float, n_shots: int, counts) -> CostEvaluation:
    if counts is None:
        return CostEvaluation(cost=-v_true, metadata={"true_visibility": v_true})
    odd_given_odd, odd_given_even = counts
    shots = {"n_shots": n_shots, "odd_given_odd": odd_given_odd, "odd_given_even": odd_given_even}
    # negate the quotient, not the difference: a tie costs -0.0, as records store it
    return CostEvaluation(cost=-((odd_given_odd - odd_given_even) / n_shots),
                          metadata={"true_visibility": v_true, "shots": shots})


def readout_backend_evaluate(landscape: HiddenLandscape, space: ParameterSpace,
                             x: np.ndarray, n_shots: int, shot_seeds,
                             f_opt: float | None = None) -> list[CostEvaluation]:
    """Evaluate readout visibility at each row of x, (n, 14); cost is the negated visibility.

    With ``landscape.shot_noise`` the two parity fractions of row i are
    drawn binomially with ``n_shots`` trials each, seeded by the landscape
    seed and ``shot_seeds[i]``. ``f_opt`` is ``optimum_init_fidelity(landscape,
    space)``, computed here when None; a run computes it once and passes it.
    Returns one evaluation per row.
    """
    block = _unit_rows(landscape, x, shot_seeds, n_shots)
    if space.dimension != 14:
        raise ValueError("readout backend expects the 14-parameter space")
    if f_opt is None:
        f_opt = optimum_init_fidelity(landscape, space)
    v_true = _visibility(landscape, space, block, f_opt)
    counts = _shot_counts(landscape, shot_seeds, n_shots, v_true)
    return [_measure_readout(v, n_shots, c) for v, c in zip(v_true, counts)]


def make_shuttle_landscape(seed: int) -> HiddenLandscape:
    """Build a seeded, noiseless 8-parameter shuttle landscape.

    The coupling is a dense random SPD form rescaled so the quadratic
    equals 1 at its worst corner of the unit cube; the depolarization
    parameter then interpolates SHUTTLE_P_OPTIMUM..SHUTTLE_P_WORST exactly.
    """
    n = shuttle_space().dimension
    rng = np.random.default_rng(seed)
    optimum = rng.uniform(0.3, 0.7, n)
    a = rng.standard_normal((n, n))
    raw = a @ a.T + n * np.eye(n)
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * n)).reshape(n, -1).T
    d = corners - optimum
    worst = np.max(np.einsum("ki,ij,kj->k", d, raw, d))
    return HiddenLandscape(optimum, raw / worst, SHUTTLE_P_OPTIMUM, False, seed)


def shuttle_depolarization(landscape: HiddenLandscape, x: np.ndarray) -> np.ndarray:
    """Depolarization parameter p at each row of x, (n, d), of the planted shuttle landscape.

    The quadratic form stays within [0, 1] on the unit cube (it is
    convex, so its maximum sits at the corner used for normalization),
    which pins p to [floor, SHUTTLE_P_WORST] with the floor attained exactly at
    the planted optimum.
    """
    return landscape.floor + (SHUTTLE_P_WORST - landscape.floor) * landscape.quadratic(x)


def shuttle_backend_evaluate(landscape: HiddenLandscape, x: np.ndarray,
                             distance: float = DEFAULT_SHUTTLE_DISTANCE_UM,
                             n_shots: int = 1000, *, shot_seeds) -> list[CostEvaluation]:
    """Evaluate the spin-echo amplitude after shuttling over ``distance`` at each row of x.

    The echo amplitude follows A(x) = (1 - p(x)) ** (distance / 10 um),
    measured as the contrast between the two echo circuit variants, and
    the cost is 1 - A. With ``landscape.shot_noise`` row i draws its two
    variants from ``n_shots`` shots seeded by ``shot_seeds[i]``. Returns
    one evaluation per row.
    """
    block = _unit_rows(landscape, x, shot_seeds, n_shots)
    dqd._require_real("distance", distance)
    if distance < 0:
        raise ValueError("distance must be non-negative")
    p = shuttle_depolarization(landscape, block)
    # float_power rounds as Python's scalar ** does; array ** may not
    amplitude = np.float_power(1.0 - p, distance / SHUTTLE_SEGMENT_UM)
    out, amplitude = [], amplitude.tolist()
    for p_row, a_row, counts in zip(p.tolist(), amplitude,
                                    _shot_counts(landscape, shot_seeds, n_shots, amplitude)):
        meta = {"p": p_row}
        if counts is not None:  # only the binomial draws are per row
            f_plus, f_minus = counts[0] / n_shots, counts[1] / n_shots
            a_row = f_plus - f_minus
            meta["shots"] = {"n_shots": n_shots, "f_plus": f_plus, "f_minus": f_minus}
        out.append(CostEvaluation(cost=1.0 - a_row, metadata=meta))
    return out
