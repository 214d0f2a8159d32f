"""Simulated device backends for closed-loop tuning.

Two of the three cost functions live here: Pauli-spin-blockade readout
visibility over 14 gate-voltage and timing parameters, and shuttling
echo amplitude over 8 gate offsets. Both evaluate a candidate vector in
the normalized unit cube against a hidden landscape whose optimum is
planted at construction, so optimizer runs can be scored against ground
truth. The single-qubit benchmarking backend is in ``rb``.

Evaluations are deterministic given the landscape seed and an explicit
shot seed per candidate, so a block of candidates evaluated in one call
gives exactly what each candidate gives alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dqd
from .dqd import DqdConfig, initialization_fidelity

__all__ = [
    "SpaceEntry",
    "ParameterSpace",
    "ReadoutShots",
    "CostEvaluation",
    "HiddenLandscape",
    "readout_space",
    "shuttle_space",
    "rb_space",
    "visibility",
    "visibility_to_fidelity",
    "make_readout_landscape",
    "make_shuttle_landscape",
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
# standalone quantum-sim default; the fidelity is converged to ~1e-4
# here, far below the binomial shot noise it feeds into.
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
        for i, e in enumerate(self.entries):
            if e.name == name:
                return i
        raise KeyError(f"unknown parameter {name!r}")

    def lows(self) -> np.ndarray:
        return np.array([e.low for e in self.entries])

    def highs(self) -> np.ndarray:
        return np.array([e.high for e in self.entries])

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """Map physical values, one vector or rows of them, to the unit cube."""
        values = np.asarray(values, dtype=float)
        self._check_shape(values)
        lo, hi = self.lows(), self.highs()
        return (values - lo) / (hi - lo)

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        """Map unit-cube coordinates, one vector or rows of them, to physical values."""
        x = np.asarray(x, dtype=float)
        self._check_shape(x)
        lo, hi = self.lows(), self.highs()
        return lo + (hi - lo) * x

    def _check_shape(self, arr: np.ndarray) -> None:
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.dimension:
            raise ValueError(
                f"expected a vector of length {self.dimension} or rows of it, "
                f"got shape {arr.shape}"
            )

    def to_dicts(self) -> list[dict]:
        return [
            {"name": e.name, "low": e.low, "high": e.high, "unit": e.unit}
            for e in self.entries
        ]

    @classmethod
    def from_dicts(cls, items: list[dict]) -> "ParameterSpace":
        return cls(tuple(SpaceEntry(d["name"], d["low"], d["high"], d["unit"]) for d in items))


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
class ReadoutShots:
    """Counts from a pair of parity-readout shot batches."""

    n_shots: int
    odd_given_odd: int
    odd_given_even: int

    def __post_init__(self) -> None:
        if self.n_shots <= 0:
            raise ValueError("n_shots must be positive")
        for label, count in (("odd_given_odd", self.odd_given_odd),
                             ("odd_given_even", self.odd_given_even)):
            if not 0 <= count <= self.n_shots:
                raise ValueError(f"{label} count {count} outside [0, {self.n_shots}]")


def visibility(shots: ReadoutShots) -> float:
    """Readout visibility: fraction odd after odd prep minus odd after even prep."""
    return (shots.odd_given_odd - shots.odd_given_even) / shots.n_shots


def visibility_to_fidelity(v: float) -> float:
    """Convert visibility to readout fidelity, (1 + V) / 2."""
    if not -1.0 <= v <= 1.0:
        raise ValueError(f"visibility {v} outside [-1, 1]")
    return 0.5 * (1.0 + v)


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
    the shuttle task.
    """

    optimum: np.ndarray
    coupling: np.ndarray
    floor: float
    shot_noise: bool
    seed: int

    def __post_init__(self) -> None:
        for name in ("optimum", "coupling"):
            arr = np.asarray(getattr(self, name))
            if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be an array of finite numbers")
            object.__setattr__(self, name, arr.astype(float))
        if self.optimum.ndim != 1 or self.optimum.size == 0:
            raise ValueError("optimum must be a non-empty vector")
        if not isinstance(self.shot_noise, bool):
            raise ValueError(f"shot_noise must be true or false, got {self.shot_noise!r}")
        dqd._require_int("seed", self.seed, 0)
        dqd._require_real("floor", self.floor)
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

    def quadratic(self, x: np.ndarray) -> float | np.ndarray:
        """Crosstalk quadratic form at a normalized point (a float) or at each row of a block.

        Each row gives the same bits as ``d @ coupling @ d`` on its own.
        """
        d = np.asarray(x, dtype=float) - self.optimum
        q = (d[..., None, :] @ self.coupling @ d[..., :, None])[..., 0, 0]
        return float(q) if q.ndim == 0 else q

    def to_dict(self) -> dict:
        return {
            "optimum": self.optimum.tolist(),
            "coupling": self.coupling.tolist(),
            "floor": self.floor,
            "shot_noise": self.shot_noise,
            "seed": self.seed,
        }

    def save(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def from_dict(cls, payload: dict) -> "HiddenLandscape":
        return cls(**{f.name: payload[f.name] for f in fields(cls)})

    @classmethod
    def load(cls, path: Path | str) -> "HiddenLandscape":
        return cls.from_dict(json.loads(Path(path).read_text()))


def make_readout_landscape(seed: int, ceiling: float = READOUT_CEILING,
                           shot_noise: bool = True) -> HiddenLandscape:
    """Build a seeded 14-parameter readout landscape.

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
    return HiddenLandscape(optimum, coupling, 1.0 - ceiling, shot_noise, seed)


def _init_stage_ramps(space: ParameterSpace, block: np.ndarray) -> dict[str, np.ndarray]:
    """Ramp parameters of each row of an (n, 14) block, by DqdConfig field."""
    return {attr: lo + (hi - lo) * block[:, space.index(name)]
            for attr, name, (lo, hi) in _INIT_STAGE}


def _rows(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    """x as a contiguous (n, dim) block, and whether x was one vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"candidate must have dimension {dim}, got shape {x.shape}")
    return np.ascontiguousarray(x.reshape(-1, dim)), x.ndim == 1


def _shot_seeds(shot_seed, n: int) -> list:
    """One shot seed per row: a scalar is shared, a sequence is taken as is."""
    seeds = list(shot_seed) if np.ndim(shot_seed) else [shot_seed] * n
    if len(seeds) != n:
        raise ValueError(f"expected {n} shot seeds, got {len(seeds)}")
    return seeds


def _check_cube(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    """x as an (n, dim) block clipped to the unit cube, and whether x was one vector."""
    block, single = _rows(x, dim)
    if np.any(block < -1e-9) or np.any(block > 1 + 1e-9):
        raise ValueError("candidate outside the unit cube")
    return np.clip(block, 0.0, 1.0), single


def true_readout_visibility(landscape: HiddenLandscape, space: ParameterSpace,
                            x: np.ndarray) -> float | list[float]:
    """Noiseless visibility of the planted readout landscape at x.

    A Gaussian bump over the crosstalk quadratic is multiplied by the
    initialization-ramp fidelity relative to its value at the planted
    optimum, clamped at 1 so the optimum stays the unique maximizer even
    though the ramp model's own best point lies elsewhere. ``x`` is one
    point (d,), giving a float, or a block of rows (n, d), giving a list;
    the ramps of all rows are integrated together.
    """
    block, single = _rows(x, space.dimension)
    ramps = _init_stage_ramps(space, block)
    f_init = dqd._cell_fidelities(*ramps.values(), np.full(len(block), _INIT_ZEEMAN_GHZ),
                                  None, _INIT_STEPS).tolist()
    at_optimum = _init_stage_ramps(space, landscape.optimum[None])
    f_opt = initialization_fidelity(DqdConfig(
        **{name: float(v[0]) for name, v in at_optimum.items()},
        zeeman_diff=_INIT_ZEEMAN_GHZ), n_steps=_INIT_STEPS)
    span = (1.0 - landscape.floor) - READOUT_BASE_VISIBILITY
    out = [float(span * np.exp(-q) * min(1.0, f / f_opt)) + READOUT_BASE_VISIBILITY
           for q, f in zip(landscape.quadratic(block).tolist(), f_init)]
    return out[0] if single else out


def _measure_readout(landscape: HiddenLandscape, v_true: float, n_shots: int,
                     shot_seed) -> CostEvaluation:
    meta: dict = {"true_visibility": v_true}
    if landscape.shot_noise:
        rng = np.random.default_rng((landscape.seed, shot_seed))
        p_odd = 0.5 * (1.0 + v_true)
        p_even = 0.5 * (1.0 - v_true)
        shots = ReadoutShots(
            n_shots=n_shots,
            odd_given_odd=int(rng.binomial(n_shots, p_odd)),
            odd_given_even=int(rng.binomial(n_shots, p_even)),
        )
        v_meas = visibility(shots)
        meta["shots"] = {
            "n_shots": shots.n_shots,
            "odd_given_odd": shots.odd_given_odd,
            "odd_given_even": shots.odd_given_even,
        }
    else:
        v_meas = v_true
    meta["visibility"] = v_meas
    meta["fidelity"] = visibility_to_fidelity(max(-1.0, min(1.0, v_meas)))
    return CostEvaluation(cost=-v_meas, metadata=meta)


def readout_backend_evaluate(landscape: HiddenLandscape, space: ParameterSpace,
                             x: np.ndarray, n_shots: int,
                             shot_seed=0) -> CostEvaluation | list[CostEvaluation]:
    """Evaluate readout visibility at x; cost is the negated visibility.

    With ``landscape.shot_noise`` the two parity fractions are drawn
    binomially with ``n_shots`` trials each, seeded by the landscape
    seed and ``shot_seed``. ``x`` is one candidate (14,), giving one
    evaluation, or a block (n, 14) with a scalar or n shot seeds, giving
    a list.
    """
    block, single = _check_cube(x, space.dimension)
    if space.dimension != 14:
        raise ValueError("readout backend expects the 14-parameter space")
    seeds = _shot_seeds(shot_seed, len(block))
    if landscape.shot_noise and n_shots <= 0:
        raise ValueError("n_shots must be positive")
    v_true = true_readout_visibility(landscape, space, block)
    out = [_measure_readout(landscape, v, n_shots, s) for v, s in zip(v_true, seeds)]
    return out[0] if single else out


def make_shuttle_landscape(seed: int, shot_noise: bool = False) -> HiddenLandscape:
    """Build a seeded 8-parameter shuttle landscape.

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
    return HiddenLandscape(optimum, raw / worst, SHUTTLE_P_OPTIMUM, shot_noise, seed)


def shuttle_depolarization(landscape: HiddenLandscape, x: np.ndarray) -> float | np.ndarray:
    """Depolarization parameter p(x) of the planted shuttle landscape.

    The quadratic form stays within [0, 1] on the unit cube (it is
    convex, so its maximum sits at the corner used for normalization),
    which pins p to [floor, SHUTTLE_P_WORST] with the floor attained exactly at
    the planted optimum. ``x`` is one point (d,), giving a float, or rows
    (n, d), giving an array.
    """
    return landscape.floor + (SHUTTLE_P_WORST - landscape.floor) * landscape.quadratic(x)


def shuttle_backend_evaluate(landscape: HiddenLandscape, space: ParameterSpace,
                             x: np.ndarray,
                             distance: float = DEFAULT_SHUTTLE_DISTANCE_UM,
                             n_shots: int = 1000,
                             shot_seed=0) -> CostEvaluation | list[CostEvaluation]:
    """Evaluate the spin-echo amplitude after shuttling over ``distance``.

    The echo amplitude follows A(x) = (1 - p(x)) ** (distance / 10 um),
    measured as the contrast between the two echo circuit variants, and
    the cost is 1 - A. ``x`` is one candidate (8,), giving one
    evaluation, or a block (n, 8) with a scalar or n shot seeds, giving
    a list.
    """
    block, single = _check_cube(x, space.dimension)
    if space.dimension != 8:
        raise ValueError("shuttle backend expects the 8-parameter space")
    if distance < 0:
        raise ValueError("distance must be non-negative")
    seeds = _shot_seeds(shot_seed, len(block))
    if landscape.shot_noise and n_shots <= 0:
        raise ValueError("n_shots must be positive")
    distance = float(distance)
    p = shuttle_depolarization(landscape, block)
    # float_power rounds as Python's scalar ** does; array ** may not
    amplitude = np.float_power(1.0 - p, distance / SHUTTLE_SEGMENT_UM)
    out = []
    for p_row, a_row, seed in zip(p.tolist(), amplitude.tolist(), seeds):
        meta = {"p": p_row, "true_amplitude": a_row, "distance_um": distance, "amplitude": a_row}
        if landscape.shot_noise:  # only the binomial draws are per row
            rng = np.random.default_rng((landscape.seed, seed))
            f_plus = rng.binomial(n_shots, 0.5 * (1.0 + a_row)) / n_shots
            f_minus = rng.binomial(n_shots, 0.5 * (1.0 - a_row)) / n_shots
            meta["amplitude"] = f_plus - f_minus
            meta["shots"] = {"n_shots": n_shots, "f_plus": f_plus, "f_minus": f_minus}
        out.append(CostEvaluation(cost=1.0 - meta["amplitude"], metadata=meta))
    return out[0] if single else out
