import functools
import re
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spintune.rb import (
    CLIFFORD_DECOMPOSITIONS,
    DRIVE_RATE_RAD_PER_MV_NS,
    GATES_PER_CLIFFORD,
    PRIMITIVE_NAMES,
    RESONANCE_MHZ,
    RbConfig,
    _cliffords,
    _costs,
    _group_tables,
    _primitives,
    clifford_table,
    per_gate_fidelity,
    rb_backend_evaluate,
    rb_decay_curve,
    rb_sequences,
)

CALIBRATED = np.array([12.5, 10.0, RESONANCE_MHZ])  # quarter turn per X90


def phase_invariant_equal(a, b, tol=1e-9):
    return abs(abs(np.trace(a.conj().T @ b)) - 2.0) < tol


# Target angle and axis azimuth of each driven primitive, for the reference
REFERENCE_ANGLES = {
    "X90": (0.5 * np.pi, 0.0),
    "Xm90": (0.5 * np.pi, np.pi),
    "X180": (np.pi, 0.0),
    "Y90": (0.5 * np.pi, 0.5 * np.pi),
    "Ym90": (0.5 * np.pi, 1.5 * np.pi),
    "Y180": (np.pi, 0.5 * np.pi),
}


def reference_primitive(name, t_d, amplitude, frequency_mhz):
    """One primitive from scalar Python arithmetic, one name at a time."""
    delta = 2.0 * np.pi * (frequency_mhz - RESONANCE_MHZ) * 1e-3
    if name == "I":
        half = 0.5 * delta * t_d
        return np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]])
    theta_target, phi = REFERENCE_ANGLES[name]
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


def reference_group_tables():
    """Multiplication and inverse tables by a search over every product."""
    unitaries = clifford_table()
    n = len(unitaries)
    mult = np.empty((n, n), dtype=np.int64)
    inverse = np.empty(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            prod = unitaries[i] @ unitaries[j]
            mult[i, j] = next(k for k in range(n) if phase_invariant_equal(prod, unitaries[k]))
        inverse[i] = next(k for k in range(n)
                          if phase_invariant_equal(unitaries[i].conj().T, unitaries[k]))
    return mult, inverse


PULSE_ROWS = st.tuples(
    st.floats(0.5, 50.0), st.floats(0.1, 30.0),
    st.just(RESONANCE_MHZ) | st.floats(RESONANCE_MHZ - 20.0, RESONANCE_MHZ + 20.0))


@settings(max_examples=60)
@given(rows=st.lists(PULSE_ROWS, min_size=1, max_size=20))
# at 11.1 mV and 1000.1 MHz, eff from omega * omega differs from omega ** 2 in the last bit
@example(rows=[(12.5, 11.1, 1000.1), (12.5, 11.1, RESONANCE_MHZ)])
def test_every_primitive_equals_the_scalar_reference_bit_for_bit(rows):
    block = np.array(rows)
    out = _primitives(block)
    assert out.shape == (len(rows), len(PRIMITIVE_NAMES), 2, 2)
    for r, row in enumerate(rows):
        for k, name in enumerate(PRIMITIVE_NAMES):
            assert out[r, k].tobytes() == reference_primitive(name, *row).tobytes(), (row, name)


def test_group_tables_equal_the_search_over_every_product():
    mult, inverse = _group_tables()
    ref_mult, ref_inverse = reference_group_tables()
    assert mult.dtype == ref_mult.dtype and inverse.dtype == ref_inverse.dtype
    assert np.array_equal(mult, ref_mult) and np.array_equal(inverse, ref_inverse)


def test_clifford_table_has_24_distinct_unitaries():
    table = clifford_table()
    assert table.shape == (24, 2, 2)
    for u in table:
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    for i in range(24):
        for j in range(i + 1, 24):
            assert not phase_invariant_equal(table[i], table[j])


def test_clifford_group_closure():
    table = clifford_table()
    for a in table:
        for b in table:
            prod = a @ b
            assert any(phase_invariant_equal(prod, c) for c in table)


def test_every_clifford_has_table_inverse():
    table = clifford_table()
    for u in table:
        assert any(phase_invariant_equal(u @ v, np.eye(2)) for v in table)


def test_mean_primitives_per_clifford():
    total = sum(len(d) for d in CLIFFORD_DECOMPOSITIONS)
    assert total / 24 == GATES_PER_CLIFFORD


def test_decompositions_reproduce_table():
    prim = dict(zip(PRIMITIVE_NAMES, _primitives(CALIBRATED[None])[0]))
    for target, names in zip(clifford_table(), CLIFFORD_DECOMPOSITIONS):
        u = np.eye(2, dtype=complex)
        for name in names:
            u = prim[name] @ u
        assert phase_invariant_equal(u, target)


def test_per_gate_fidelity_convention():
    assert per_gate_fidelity(0.9925) == pytest.approx(0.998, abs=1e-12)
    assert per_gate_fidelity(1.0) == 1.0


def test_exact_calibration_returns_every_sequence():
    ev = rb_backend_evaluate(RbConfig(seed=3), CALIBRATED, [None])[0]
    assert abs(ev.cost) < 1e-9


def test_amplitude_duration_product_invariance():
    cfg = RbConfig(seed=5)
    base = rb_backend_evaluate(cfg, np.array([12.5, 10.0, RESONANCE_MHZ]), [None])[0].cost
    for s in (0.5, 0.8, 1.25, 2.0):
        scaled = rb_backend_evaluate(cfg, np.array([12.5 / s, 10.0 * s, RESONANCE_MHZ]),
                                     [None])[0].cost
        assert abs(scaled - base) < 1e-12


def test_detuning_strictly_degrades_cost():
    cfg = RbConfig(seed=2)
    offsets = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    costs = [rb_backend_evaluate(cfg, np.array([12.5, 10.0, RESONANCE_MHZ + df]), [None])[0].cost
             for df in offsets]
    assert all(b > a for a, b in zip(costs, costs[1:]))
    costs_neg = [rb_backend_evaluate(cfg, np.array([12.5, 10.0, RESONANCE_MHZ - df]),
                                     [None])[0].cost for df in offsets]
    assert all(b > a for a, b in zip(costs_neg, costs_neg[1:]))


def dense_oracle(cfg, t_d, amplitude, frequency):
    """Independent sequence simulator built from axis-angle rotations."""
    omega = DRIVE_RATE_RAD_PER_MV_NS * amplitude
    delta = 2.0 * np.pi * (frequency - RESONANCE_MHZ) * 1e-3

    def pulse(phase_axis, duration):
        ax = np.array([omega * np.cos(phase_axis), omega * np.sin(phase_axis), delta])
        norm = np.linalg.norm(ax)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        if norm == 0.0:
            return np.eye(2, dtype=complex)
        gen = (ax[0] * sx + ax[1] * sy + ax[2] * sz) / norm
        half = 0.5 * norm * duration
        return np.cos(half) * np.eye(2) - 1j * np.sin(half) * gen

    gates = {
        "I": np.diag([np.exp(-0.5j * delta * t_d), np.exp(0.5j * delta * t_d)]),
        "X90": pulse(0.0, t_d),
        "Xm90": pulse(np.pi, t_d),
        "X180": pulse(0.0, 2 * t_d),
        "Y90": pulse(np.pi / 2, t_d),
        "Ym90": pulse(-np.pi / 2, t_d),
        "Y180": pulse(np.pi / 2, 2 * t_d),
    }
    probs = []
    for seq, recovery in rb_sequences(cfg):
        u = np.eye(2, dtype=complex)
        for c in seq:
            for name in CLIFFORD_DECOMPOSITIONS[c]:
                u = gates[name] @ u
        for name in CLIFFORD_DECOMPOSITIONS[recovery]:
            u = gates[name] @ u
        probs.append(abs(u[0, 0]) ** 2)
    return 1.0 - float(np.mean(probs))


def test_five_percent_overrotation_matches_dense_oracle():
    cfg = RbConfig(sequence_length=30, n_randomizations=15, seed=8)
    x = np.array([12.5, 10.5, RESONANCE_MHZ])  # 5% amplitude overdrive
    backend = rb_backend_evaluate(cfg, x, [None])[0].cost
    oracle = dense_oracle(cfg, 12.5, 10.5, RESONANCE_MHZ)
    assert abs(backend - oracle) < 1e-10


def test_off_resonance_matches_dense_oracle():
    cfg = RbConfig(sequence_length=20, n_randomizations=10, seed=13)
    x = np.array([13.0, 9.0, RESONANCE_MHZ + 2.0])
    backend = rb_backend_evaluate(cfg, x, [None])[0].cost
    oracle = dense_oracle(cfg, 13.0, 9.0, RESONANCE_MHZ + 2.0)
    assert abs(backend - oracle) < 1e-10


def test_rb_sequences_are_seeded_and_inverted():
    cfg = RbConfig(sequence_length=12, n_randomizations=4, seed=21)
    a = rb_sequences(cfg)
    b = rb_sequences(cfg)
    for (sa, ra), (sb, rb_) in zip(a, b):
        assert np.array_equal(sa, sb) and ra == rb_
    table = clifford_table()
    for seq, recovery in a:
        net = np.eye(2, dtype=complex)
        for c in seq:
            net = table[c] @ net
        net = table[recovery] @ net
        assert phase_invariant_equal(net, np.eye(2))


def test_shot_sampling_is_deterministic_and_noisy():
    cfg = RbConfig(seed=4, shots_per_sequence=50)
    x = np.array([12.0, 9.5, RESONANCE_MHZ + 1.0])
    a = rb_backend_evaluate(cfg, x, [1])[0]
    b = rb_backend_evaluate(cfg, x, [1])[0]
    c = rb_backend_evaluate(cfg, x, [2])[0]
    assert a.cost == b.cost
    assert a.cost != c.cost
    exact = rb_backend_evaluate(cfg, x, [None])[0].cost
    assert abs(a.cost - exact) < 0.2


def test_decay_curve_decreases_with_length_when_miscalibrated():
    cfg = RbConfig(seed=6)
    x = np.array([12.5, 10.4, RESONANCE_MHZ])
    curve = rb_decay_curve(cfg, x, [1, 10, 40, 120, 300])
    assert curve[0] > curve[-1]
    assert np.all((0.0 <= curve) & (curve <= 1.0))


def test_input_validation():
    with pytest.raises(ValueError):
        rb_backend_evaluate(RbConfig(), np.array([0.0, 10.0, RESONANCE_MHZ]), [None])
    with pytest.raises(ValueError):
        rb_backend_evaluate(RbConfig(), np.array([12.5, -1.0, RESONANCE_MHZ]), [None])
    for row in ([np.nan, 10.0, RESONANCE_MHZ], [12.5, 10.0, np.nan],
                [np.inf, 10.0, RESONANCE_MHZ], [12.5, np.inf, RESONANCE_MHZ],
                [12.5, 10.0, -np.inf]):
        for seeds in ([None], [1]):
            with pytest.raises(ValueError, match="finite"):
                rb_backend_evaluate(RbConfig(), np.array(row), seeds)
    # finite rows whose unitaries overflow, or whose drive axis is 0/0 once the
    # squared amplitude underflows; the suite turns a RuntimeWarning into an error
    for row in ([12.5, 1e200, RESONANCE_MHZ], [12.5, 10.0, 1e300], [12.5, 10.0, -1e300],
                [1e308, 10.0, RESONANCE_MHZ], [12.5, 1e-300, RESONANCE_MHZ]):
        for seeds in ([None], [1]):
            with pytest.raises(ValueError, match="not finite"):
                rb_backend_evaluate(RbConfig(), np.array(row), seeds)
    with pytest.raises(ValueError):
        RbConfig(sequence_length=0)


@pytest.mark.parametrize("field, value", [
    ("shots_per_sequence", 1.5), ("n_randomizations", True), ("seed", -1),
    ("shots_per_sequence", 2**63),
])
def test_config_takes_integers_only_and_a_non_negative_seed(field, value):
    with pytest.raises(ValueError, match=field):
        RbConfig(**{field: value})


def test_gates_per_clifford_is_45_over_24():
    assert GATES_PER_CLIFFORD == 1.875


@settings(max_examples=40)
@given(data=st.data())
def test_block_equals_its_rows_bit_for_bit(data):
    # The start state of every sequence of every row is propagated through
    # its row's Cliffords in one pass over the block; no row may feel another.
    cfg = RbConfig(sequence_length=data.draw(st.integers(1, 30)),
                   n_randomizations=data.draw(st.integers(1, 15)),
                   shots_per_sequence=50, seed=data.draw(st.integers(0, 99)))
    n = data.draw(st.integers(1, 100), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    X = rng.uniform([10.0, 7.0, 995.0], [16.0, 13.0, 1005.0], (n, 3))
    # one-word seeds, harness keys seed << 64 | generation << 32 | row, or both mixed with None
    kind = data.draw(st.sampled_from([None, "per row", "harness", "mixed"]))
    base = (data.draw(st.integers(0, 2**64 - 1), label="run seed") << 64
            | data.draw(st.integers(0, 2**32 - 1), label="generation") << 32)
    pick = {None: [0] * n, "per row": [1] * n, "harness": [2] * n,
            "mixed": rng.integers(0, 3, n)}[kind]
    seeds = [(None, s, base | i)[j]
             for i, (s, j) in enumerate(zip(rng.integers(0, 2**32, n).tolist(), pick))]
    bad = data.draw(st.sampled_from([None, 0, 1]), label="non-positive column")
    if bad is not None:
        X[data.draw(st.integers(0, n - 1), label="bad row"), bad] = -1.0

    def outcome(call):
        try:
            return repr(call())
        except ValueError as err:
            return f"ValueError: {err}"

    block = outcome(lambda: rb_backend_evaluate(cfg, X, shot_seeds=seeds))
    rows = [outcome(lambda i=i: rb_backend_evaluate(cfg, X[i], shot_seeds=[seeds[i]])[0])
            for i in range(n)]
    if bad is None:
        assert block == f"[{', '.join(rows)}]"
    else:
        assert block.startswith("ValueError: ") and block in rows


def test_stacked_composition_matches_the_dense_oracle_per_row():
    cfg = RbConfig(sequence_length=20, n_randomizations=10, seed=13)
    X = np.array([[13.0, 9.0, RESONANCE_MHZ + 2.0], [12.5, 10.5, RESONANCE_MHZ]])
    for x, ev in zip(X, rb_backend_evaluate(cfg, X, [None] * len(X))):
        assert abs(ev.cost - dense_oracle(cfg, *x)) < 1e-10


def test_exact_cost_equals_the_sequence_by_sequence_propagation_bit_for_bit():
    # propagation must not move a probability by one ulp: shot counts are
    # drawn from them, and records are compared byte for byte
    cfg = RbConfig(seed=3)
    rng = np.random.default_rng(0)
    X = rng.uniform([10.0, 7.0, 995.0], [16.0, 13.0, 1005.0], (6, 3))
    for x, ev in zip(X, rb_backend_evaluate(cfg, X, [None] * len(X))):
        # each Clifford from its primitives, then each sequence's start state
        # Clifford by Clifford
        cliffords = []
        for names in CLIFFORD_DECOMPOSITIONS:
            primitives = [reference_primitive(name, *(float(v) for v in x)) for name in names]
            u = primitives[0]
            for primitive in primitives[1:]:
                u = primitive @ u
            cliffords.append(u)
        probs, product_probs = [], []
        for seq, recovery in rb_sequences(cfg):
            # the amplitudes of |0> as length-1 arrays: Python's complex product
            # rounds differently from numpy's array product in the last bit
            u = cliffords[seq[0]]
            a, b = u[:1, 0], u[1:, 0]
            for c in (*seq[1:], recovery):
                g = cliffords[c]
                a, b = g[0, :1] * a + g[0, 1:] * b, g[1, :1] * a + g[1, 1:] * b
                u = g @ u
            probs.append(abs(a[0]) ** 2)
            product_probs.append(abs(u[0, 0]) ** 2)
        assert ev.cost == 1.0 - float(np.mean(probs))
        # the sequence's full product rounds differently, within a few ulps
        assert abs(ev.cost - (1.0 - float(np.mean(product_probs)))) <= 1e-14


def test_step_table_is_each_sequence_then_its_recovery_and_cannot_be_written():
    cfg = RbConfig(sequence_length=5, n_randomizations=3, seed=4)
    table = cfg.step_table
    assert table.shape == (6, 3)
    for column, (seq, recovery) in zip(table.T, rb_sequences(cfg)):
        assert column.tolist() == [*seq.tolist(), recovery]
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    with pytest.raises(FrozenInstanceError):
        cfg.step_table = table.copy()
    assert cfg.step_table is table
    assert "step_table" not in {f.name for f in fields(RbConfig)}
    assert cfg == RbConfig(sequence_length=5, n_randomizations=3, seed=4)


def test_shots_at_the_planted_pulse_give_cost_zero():
    # an exact return probability can round to just above 1, which a
    # binomial draw refuses unless it is clamped
    for seed in range(20):
        assert rb_backend_evaluate(RbConfig(seed=seed), [CALIBRATED], [1])[0].cost == 0.0


@pytest.mark.parametrize("shot_seed", [None, 7])
def test_decay_curve_equals_evaluation_at_each_length_bit_for_bit(shot_seed):
    # one pass through the longest sequences, whose prefixes are the shorter ones
    cfg = RbConfig(shots_per_sequence=40, seed=9)
    x = np.array([12.5, 10.3, RESONANCE_MHZ + 0.4])
    lengths = [300, 1, 17, 17, 2]
    curve = rb_decay_curve(cfg, x, lengths, shot_seed=shot_seed)
    assert curve.shape == (len(lengths),)
    for i, m in enumerate(lengths):
        seed = None if shot_seed is None else shot_seed + i
        ev = rb_backend_evaluate(replace(cfg, sequence_length=m), x, [seed])[0]
        assert curve[i] == 1.0 - ev.cost
    assert rb_decay_curve(cfg, x, [], shot_seed=shot_seed).shape == (0,)
    with pytest.raises(ValueError, match="sequence_length"):
        rb_decay_curve(cfg, x, [300, 0], shot_seed=shot_seed)


def test_noisy_decay_curve_draws_length_i_at_shot_seed_plus_i():
    cfg = RbConfig(n_randomizations=6, shots_per_sequence=40, seed=9)
    x = np.array([12.5, 10.3, RESONANCE_MHZ + 0.4])
    lengths = [1, 4, 17, 40]
    curve = rb_decay_curve(cfg, x, lengths, shot_seed=7)
    for i, m in enumerate(lengths):
        ev = rb_backend_evaluate(replace(cfg, sequence_length=m), x, [7 + i])[0]
        assert curve[i] == 1.0 - ev.cost


@pytest.mark.parametrize("length", [2.5, 3.9, np.inf, np.nan, "3", True])
def test_decay_curve_refuses_a_length_that_is_not_a_whole_number(length):
    with pytest.raises(ValueError, match="sequence length"):
        rb_decay_curve(RbConfig(), np.array([12.5, 10.0, RESONANCE_MHZ]), [1, length])
    # a shot seed is None or a non-negative integer, refused before any length or amplitude
    with mock.patch("spintune.rb._return_amplitudes", side_effect=AssertionError):
        for shot_seed in (2.9, "2", True, -1):
            with pytest.raises(ValueError, match=re.escape(f"shot seed must be an integer >= 0, "
                                                           f"got {shot_seed!r}")):
                rb_decay_curve(RbConfig(), CALIBRATED, [1, length], shot_seed=shot_seed)


def test_exact_decay_curve_matches_the_dense_oracle():
    cfg = RbConfig(n_randomizations=8, seed=12)
    x = (13.0, 9.4, RESONANCE_MHZ - 1.5)
    lengths = [1, 9, 50]
    curve = rb_decay_curve(cfg, np.array(x), lengths)
    for p, m in zip(curve, lengths):
        assert abs(p - (1.0 - dense_oracle(replace(cfg, sequence_length=m), *x))) < 1e-10


def random_pulse_rows(data, max_rows):
    """A block of pulse rows from a drawn numpy seed, some of them on resonance."""
    n = data.draw(st.integers(1, max_rows), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    block = rng.uniform([0.5, 0.1, RESONANCE_MHZ - 20.0], [50.0, 30.0, RESONANCE_MHZ + 20.0],
                        (n, 3))
    block[rng.random(n) < 0.3, 2] = RESONANCE_MHZ
    return block


@settings(max_examples=40)
@given(data=st.data())
def test_cliffords_equal_the_primitive_by_primitive_product_bit_for_bit(data):
    # the stacked products must round as one @ per primitive of each decomposition
    block = random_pulse_rows(data, 150)
    named = dict(zip(PRIMITIVE_NAMES, _primitives(block).swapaxes(0, 1)))
    want = np.stack([functools.reduce(lambda u, name: named[name] @ u, seq[1:], named[seq[0]])
                     for seq in CLIFFORD_DECOMPOSITIONS], axis=1)
    got = _cliffords(block)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_costs(cfg, amplitudes, shot_seeds):
    """1 - mean return probability per row: scalar abs and **, then one scalar binomial
    draw per sequence from the row's default_rng((cfg.seed, shot seed))."""
    n, costs = cfg.shots_per_sequence, []
    for a_row, shot_seed in zip(amplitudes, shot_seeds):
        probs = [abs(a) ** 2 for a in a_row.tolist()]
        if shot_seed is not None:
            rng = np.random.default_rng((cfg.seed, shot_seed))
            probs = [rng.binomial(n, min(p, 1.0)) / n for p in probs]
        costs.append(1.0 - float(np.mean(probs)))
    return costs


@settings(max_examples=60)
@given(data=st.data(), order=st.sampled_from(["C", "F"]))
def test_costs_equal_the_scalar_reference_bit_for_bit(data, order):
    cfg = RbConfig(shots_per_sequence=data.draw(st.integers(1, 1000)),
                   seed=data.draw(st.integers(0, 2**64 - 1)))
    n, r = data.draw(st.integers(1, 40), label="n"), data.draw(st.integers(1, 30), label="R")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    phases = np.exp(2j * np.pi * rng.random((n, r)))
    amplitudes = np.sqrt(rng.random((n, r))) * phases
    # a probability that rounds to just above 1 is clamped before the draw
    amplitudes[rng.random((n, r)) < 0.1] = 1.0000000000000002
    amplitudes = np.asarray(amplitudes, order=order)
    shot_seeds = [None if rng.random() < 0.3 else int(k)
                  for k in rng.integers(0, 2**63, n, dtype=np.uint64)]
    for seeds in (shot_seeds, [None] * n):
        assert _costs(cfg, amplitudes, seeds) == reference_costs(cfg, amplitudes, seeds)
