import itertools
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from spintune import backends, dqd, harness
from spintune.dqd import (
    DEFAULT_STEPS,
    DqdConfig,
    NoiseModel,
    StateVector,
    _eigensystem,
    _ramp_states,
    evolve,
    hamiltonian,
    initialization_fidelity,
    sweep_fidelity_grid,
)

STRONG = dict(tunnel_coupling=10.0, zeeman_diff=0.3, eps_initial=0.0, eps_final=50.0)


def ground_state(cfg, eps):
    vals, vecs = np.linalg.eigh(hamiltonian(cfg, eps))
    return StateVector(vecs[:, 0].astype(complex))


def test_hamiltonian_matrix_form():
    cfg = DqdConfig(tunnel_coupling=2.0, zeeman_diff=0.3, eps_initial=0.0,
                    eps_final=1.0, ramp_time=1.0)
    h = hamiltonian(cfg, 7.0)
    np.testing.assert_allclose(h, [[-7.0, 2.0, 0.0], [2.0, 0.0, 0.3], [0.0, 0.3, 0.0]])
    assert np.array_equal(h, h.conj().T)


def test_hamiltonian_decoupled_limit():
    cfg = DqdConfig(tunnel_coupling=0.0, zeeman_diff=0.0, eps_initial=0.0,
                    eps_final=1.0, ramp_time=1.0)
    h = hamiltonian(cfg, 5.0)
    np.testing.assert_allclose(h, np.diag([-5.0, 0.0, 0.0]))
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(h)), [-5.0, 0.0, 0.0], atol=1e-12)


def test_hamiltonian_symmetric_anticrossing_gap():
    cfg = DqdConfig(tunnel_coupling=2.0, zeeman_diff=0.0, eps_initial=0.0,
                    eps_final=1.0, ramp_time=1.0)
    vals = np.linalg.eigvalsh(hamiltonian(cfg, 0.0))
    np.testing.assert_allclose(sorted(vals), [-2.0, 0.0, 2.0], atol=1e-12)


def test_hamiltonian_eigenvalues_match_characteristic_polynomial():
    cfg = DqdConfig(ramp_time=1.0, **STRONG)
    h = hamiltonian(cfg, 0.0)
    # independent oracle: roots of det(H - x I) for the explicit 3x3 form
    e, t, d = 0.0, cfg.tunnel_coupling, cfg.zeeman_diff
    coeffs = [1.0, e, -(t * t + d * d), -e * d * d]
    roots = np.sort(np.roots(coeffs).real)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h)), roots, atol=1e-10)


def test_evolve_diagonal_hamiltonian_only_accrues_phase():
    cfg = DqdConfig(tunnel_coupling=0.0, zeeman_diff=0.0, eps_initial=-3.0,
                    eps_final=5.0, ramp_time=1.0)
    psi = evolve(cfg, StateVector(np.array([1.0, 0.0, 0.0], dtype=complex)))
    np.testing.assert_allclose(np.abs(psi.amplitudes) ** 2, [1.0, 0.0, 0.0], atol=1e-12)


def test_evolve_norm_conservation():
    cfg = DqdConfig(ramp_time=0.5, **STRONG)
    psi0 = ground_state(cfg, cfg.eps_initial)
    psi = evolve(cfg, psi0)
    assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) < 1e-9


def test_evolve_rejects_bad_dt():
    cfg = DqdConfig(ramp_time=0.5, **STRONG)
    psi0 = ground_state(cfg, cfg.eps_initial)
    with pytest.raises(ValueError):
        evolve(cfg, psi0, dt=0.6)
    with pytest.raises(ValueError):
        evolve(cfg, psi0, dt=0.0)
    for dt in (True, float("nan"), "0.1"):  # True would integrate with dt = 1
        with pytest.raises(ValueError, match="dt must be a finite real number"):
            evolve(cfg, psi0, dt=dt)


def test_landau_zener_two_level_oracle():
    """Diabatic transfer through the charge anticrossing follows the
    exponential law P = exp(-(2 pi)^2 t_c^2 / v) for a two-level sweep."""
    t_c = 0.5
    span = 100.0
    for t_f in np.geomspace(0.55, 30.0, 10):
        v = span / t_f
        expected = np.exp(-((2 * np.pi) ** 2) * t_c * t_c / v)
        assert 0.04 < expected < 0.96
        cfg = DqdConfig(tunnel_coupling=t_c, zeeman_diff=0.0, eps_initial=-50.0,
                        eps_final=50.0, ramp_time=float(t_f))
        psi0 = ground_state(cfg, cfg.eps_initial)
        psi = evolve(cfg, psi0, dt=cfg.ramp_time / 4000)
        # the diabatic passage keeps the charge character of the start state:
        # overlap with the excited eigenstate at the final detuning
        vals, vecs = np.linalg.eigh(hamiltonian(cfg, cfg.eps_final))
        p_diabatic = abs(np.vdot(vecs[:, 1], psi.amplitudes)) ** 2 \
            + abs(np.vdot(vecs[:, 2], psi.amplitudes)) ** 2
        assert abs(p_diabatic - expected) < 1e-3


def test_halving_dt_changes_fidelity_below_1e_8():
    for t_f in (0.06, 0.5, 4.0):
        cfg = DqdConfig(ramp_time=t_f, **STRONG)
        f_default = initialization_fidelity(cfg)
        f_half = initialization_fidelity(cfg, n_steps=16000)
        assert abs(f_default - f_half) < 1e-8


def test_time_reversal_returns_start_state():
    cfg = DqdConfig(ramp_time=0.3, **STRONG)
    psi0 = ground_state(cfg, cfg.eps_initial)
    forward = evolve(cfg, psi0)
    back_cfg = DqdConfig(tunnel_coupling=cfg.tunnel_coupling, zeeman_diff=cfg.zeeman_diff,
                         eps_initial=cfg.eps_final, eps_final=cfg.eps_initial,
                         ramp_time=cfg.ramp_time)
    # reversing the ramp and conjugating amplitudes undoes the evolution
    back = evolve(back_cfg, StateVector(np.conj(forward.amplitudes)))
    np.testing.assert_allclose(np.abs(np.conj(back.amplitudes)), np.abs(psi0.amplitudes),
                               atol=1e-8)
    overlap = abs(np.vdot(psi0.amplitudes, np.conj(back.amplitudes))) ** 2
    assert overlap > 1.0 - 1e-8


def test_zero_zeeman_never_populates_triplet():
    cfg = DqdConfig(tunnel_coupling=10.0, zeeman_diff=0.0, eps_initial=-20.0,
                    eps_final=30.0, ramp_time=0.2)
    psi0 = StateVector(np.array([0.6, 0.8, 0.0], dtype=complex))
    psi = evolve(cfg, psi0)
    assert abs(psi.amplitudes[2]) ** 2 < 1e-12


def test_strong_coupling_slow_ramp_fidelity():
    cfg = DqdConfig(ramp_time=4.0, **STRONG)
    assert initialization_fidelity(cfg) > 0.99


def test_ten_times_slower_ramp_is_at_least_as_adiabatic():
    for t_f in (0.4, 4.0):
        fast = initialization_fidelity(DqdConfig(ramp_time=t_f, **STRONG))
        slow = initialization_fidelity(DqdConfig(ramp_time=10 * t_f, **STRONG))
        assert slow >= fast - 1e-6


def test_zero_zeeman_target_does_not_depend_on_step_count():
    # A fast passage through a narrow anticrossing ends in the excited
    # singlet. The target is the ground state at eps_final at any step
    # count, just as for a vanishing but non-zero dE_z.
    ramp = dict(eps_initial=-30.0, eps_final=40.0, ramp_time=2.0, tunnel_coupling=0.01)
    ref = initialization_fidelity(DqdConfig(zeeman_diff=1e-9, **ramp), n_steps=2000)
    assert ref < 1e-3
    for n_steps in (300, 2000):
        fid = initialization_fidelity(DqdConfig(zeeman_diff=0.0, **ramp), n_steps=n_steps)
        assert fid == pytest.approx(ref, rel=1e-3)


@pytest.mark.parametrize("zeeman_diff", [0.0, 0.3])
def test_uncoupled_dots_target_the_start_state(zeeman_diff):
    # With t_c = 0 the eigenvectors do not depend on eps, so the start state
    # only gathers a phase, even where it is no longer the ground state.
    for eps0, eps1 in ((-20.0, 30.0), (20.0, -30.0), (5.0, 15.0)):
        cfg = DqdConfig(eps_initial=eps0, eps_final=eps1, ramp_time=0.5,
                        tunnel_coupling=0.0, zeeman_diff=zeeman_diff)
        assert initialization_fidelity(cfg, n_steps=200) == pytest.approx(1.0, abs=1e-12)


def test_zero_sigma_noise_equals_noiseless():
    cfg = DqdConfig(ramp_time=0.3, **STRONG)
    clean = initialization_fidelity(cfg, n_steps=500)
    noisy = initialization_fidelity(cfg, noise=NoiseModel(sigma_eps=0.0, n_samples=1000, seed=1),
                                    n_steps=500)
    assert abs(clean - noisy) < 1e-12


def test_monte_carlo_same_seed_is_bit_identical():
    cfg = DqdConfig(ramp_time=0.1, **STRONG)
    noise = NoiseModel(sigma_eps=1.0, n_samples=64, seed=123)
    a = initialization_fidelity(cfg, noise=noise, n_steps=300)
    b = initialization_fidelity(cfg, noise=noise, n_steps=300)
    assert a == b


def test_single_cell_grid_equals_direct_fidelity():
    cfg = DqdConfig(ramp_time=0.3, **STRONG)
    grid = sweep_fidelity_grid(cfg, ("eps_initial", [-5.0]), ("eps_final", [40.0]),
                               n_steps=500)
    direct = initialization_fidelity(
        DqdConfig(tunnel_coupling=10.0, zeeman_diff=0.3, eps_initial=-5.0,
                  eps_final=40.0, ramp_time=0.3), n_steps=500)
    assert grid.shape == (1, 1)
    assert grid[0, 0] == pytest.approx(direct, abs=1e-15)


def expm_stepped(eps0, eps1, t_f, t_c, de_z, psi0, n_steps):
    """Reference ramp: scipy expm of every midpoint Hamiltonian, applied in turn."""
    frac = (np.arange(n_steps) + 0.5) / n_steps
    eps = eps0 + (eps1 - eps0) * frac
    h = np.zeros((n_steps, 3, 3))
    h[:, 0, 0] = -eps
    h[:, 0, 1] = h[:, 1, 0] = t_c
    h[:, 1, 2] = h[:, 2, 1] = de_z
    psi = np.asarray(psi0, dtype=complex)
    for u in scipy.linalg.expm(-2j * np.pi * (t_f / n_steps) * h):
        psi = u @ psi
    return psi


@st.composite
def ramps(draw):
    """Ramps of at most 1 ns at |eps| <= 50 GHz, so the accumulated phase stays
    below about 300 rad and its double-precision rounding far below the
    tolerance. A quarter of them run symmetrically through eps = 0 with an odd
    step count, which puts one step midpoint exactly on eps = 0; the couplings
    include exact zeros, where the closed form can fall back to eigh."""
    eps0 = draw(st.floats(-50.0, 50.0))
    through_zero = draw(st.booleans()) and draw(st.booleans())
    eps1 = -eps0 if through_zero else draw(st.floats(-50.0, 50.0))
    n_steps = draw(st.integers(1, 40))
    if through_zero:
        n_steps |= 1
    amp = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)))
    psi0 = amp[:3] + 1j * amp[3:]
    if np.linalg.norm(psi0) < 1e-3:
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    return dict(eps0=eps0, eps1=eps1, t_f=draw(st.floats(0.01, 1.0)),
                t_c=draw(st.one_of(st.just(0.0), st.floats(0.05, 20.0))),
                de_z=draw(st.one_of(st.just(0.0), st.floats(0.05, 5.0))),
                psi0=psi0 / np.linalg.norm(psi0), n_steps=n_steps)


@given(ramps())
def test_ramp_states_match_expm_stepping(ramp):
    args = [np.array([ramp[k]]) for k in ("eps0", "eps1", "t_f", "t_c", "de_z")]
    got = _ramp_states(*args, ramp["psi0"][None], ramp["n_steps"])[0]
    want = expm_stepped(**ramp)
    assert np.abs(got - want).max() < 1e-12


def test_middle_eigenvalue_det_identity_near_zero():
    eps = np.array([[1e-9], [-3e-7], [2e-4], [0.0]])
    t_c, de_z = np.array([10.0]), np.array([0.3])
    lam, _, _ = _eigensystem(eps, t_c, de_z)
    lam = lam[:, :, 0].T
    h = np.stack([hamiltonian(DqdConfig(tunnel_coupling=10.0, zeeman_diff=0.3), e) for e in eps[:, 0]])
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(h), rtol=0, atol=1e-13)
    # the middle root of det(x - H) = x^3 + eps x^2 - (t_c^2 + dE_z^2) x - eps dE_z^2
    # to full relative precision: one Newton step from it moves it by < 1e-14
    x, e, s = lam[:, 1], eps[:, 0], 10.0**2 + 0.3**2
    newton = x - (x**3 + e * x**2 - s * x - e * 0.3**2) / (3 * x**2 + 2 * e * x - s)
    np.testing.assert_allclose(x, newton, rtol=1e-14, atol=0)
    assert lam[3, 1] == 0.0


def test_a_coupling_whose_closed_form_eigenvectors_overflow_takes_eigh():
    # at t_c = 1e100 the eigenvalues are finite but the squared norms of the
    # closed-form eigenvectors overflow; eigh gives the strongly coupled ramp,
    # which follows its eigenstate
    cfg = DqdConfig(ramp_time=0.3, tunnel_coupling=1e100, zeeman_diff=0.3)
    assert initialization_fidelity(cfg, n_steps=20) == pytest.approx(1.0, abs=1e-9)


def test_evolve_at_default_steps_matches_expm_stepping():
    cfg = DqdConfig(ramp_time=0.7, **STRONG)
    psi0 = ground_state(cfg, cfg.eps_initial)
    want = expm_stepped(cfg.eps_initial, cfg.eps_final, cfg.ramp_time, cfg.tunnel_coupling,
                        cfg.zeeman_diff, psi0.amplitudes, DEFAULT_STEPS)
    assert np.abs(evolve(cfg, psi0).amplitudes - want).max() < 1e-10


def readout_ramps():
    """The initialization ramps of 76 readout rows and their start states: 60 rows
    drawn over the unit cube, then the 16 corners of its four ramp coordinates."""
    space = harness.space_for_task("readout")
    block = np.random.default_rng(39).uniform(0.0, 1.0, (76, space.dimension))
    ramp_columns = [space.index(name) for _, name, _ in backends._INIT_STAGE]
    block[60:, ramp_columns] = list(itertools.product([0.0, 1.0], repeat=len(ramp_columns)))
    ramp = backends._init_stage_ramps(space, block)
    eps0, eps1, t_f, t_c, de_z = (ramp[name] for name in dqd._AXIS_FIELDS)
    return (eps0, eps1, t_f, t_c, de_z), dqd._ground_states(eps0, t_c, de_z)


def test_readout_ramps_match_expm_stepping():
    # ramps of up to 8 ns to final detunings of up to 80 GHz, at the readout step count
    ramp, psi0 = readout_ramps()
    got = _ramp_states(*ramp, psi0, backends._INIT_STEPS)
    for i in range(len(psi0)):
        want = expm_stepped(*(a[i] for a in ramp), psi0[i], backends._INIT_STEPS)
        assert np.abs(got[i] - want).max() < 1e-12


def test_chunk_and_slab_sizes_do_not_change_readout_ramps():
    # each path twice, at two ramp times; chunks of 7 split pairs that share a path,
    # and slabs of 13 steps do not divide the 300 steps
    ramp, psi0 = readout_ramps()
    ramp = [np.r_[a, 0.5 * a if name == "ramp_time" else a]
            for name, a in zip(dqd._AXIS_FIELDS, ramp)]
    psi0 = np.r_[psi0, psi0]
    want = _ramp_states(*ramp, psi0, backends._INIT_STEPS)
    with mock.patch.multiple(dqd, _CHUNK=7, _SLAB_BYTES=13 * 7 * 9 * 16):
        assert np.array_equal(_ramp_states(*ramp, psi0, backends._INIT_STEPS), want)
    for i in (0, 75, 76, 151):
        alone = _ramp_states(*(a[i:i + 1] for a in ramp), psi0[i:i + 1], backends._INIT_STEPS)
        assert np.array_equal(alone, want[i:i + 1])


@pytest.mark.parametrize("noise", [None, NoiseModel(sigma_eps=1.0, n_samples=50, seed=3)])
def test_grid_cells_equal_initialization_fidelity(noise):
    base = DqdConfig(tunnel_coupling=10.0, zeeman_diff=0.3, eps_initial=-30.0,
                     eps_final=50.0, ramp_time=0.06)
    ramps_ns, finals = [0.05, 0.3, 1.2], [8.0, 25.0]
    grid = sweep_fidelity_grid(base, ("ramp_time", ramps_ns), ("eps_final", finals),
                               noise=noise, n_steps=300)
    for i, t_f in enumerate(ramps_ns):
        for j, eps_f in enumerate(finals):
            cfg = DqdConfig(tunnel_coupling=10.0, zeeman_diff=0.3, eps_initial=-30.0,
                            eps_final=eps_f, ramp_time=t_f)
            direct = initialization_fidelity(cfg, noise=noise, n_steps=300)
            assert grid[i, j] == direct


def test_chunk_boundaries_do_not_change_grid_cells():
    base = DqdConfig(tunnel_coupling=10.0, zeeman_diff=0.3, eps_initial=-30.0,
                     eps_final=50.0, ramp_time=0.06)
    ramps_ns, finals = np.geomspace(0.04, 4.0, 40), np.linspace(2.0, 40.0, 40)
    grid = sweep_fidelity_grid(base, ("ramp_time", ramps_ns), ("eps_final", finals), n_steps=300)
    # The kernel orders trajectories by path, eps_final here, and keeps row
    # order within a path, so cell (i, j) is trajectory 40 j + i. The cells
    # of trajectories _CHUNK - 1 and _CHUNK sit on both sides of the first
    # chunk boundary; (1, 7) and (1, 8) are neighbours in row-major order.
    straddling = [(k % 40, k // 40) for k in (dqd._CHUNK - 1, dqd._CHUNK)]
    for i, j in ((0, 0), *straddling, (1, 7), (1, 8), (39, 39)):
        one = sweep_fidelity_grid(base, ("ramp_time", [ramps_ns[i]]), ("eps_final", [finals[j]]),
                                  n_steps=300)
        assert one[0, 0] == grid[i, j]


# Exact zeros of either sign: -0.0 and 0.0 are distinct paths, and zero
# couplings take the eigh fallback.
ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def shared_paths(draw):
    """Up to 4 distinct paths (eps0, eps1, t_c, de_z), each shared by trajectories
    with their own ramp time and start state, and a chunk of 1 to 8 trajectories
    or the kernel's own chunk. Each field takes one of at most two values, so
    paths often differ in one field only."""
    values = [draw(st.lists(field, min_size=1, max_size=2)) for field in (
        ZERO | st.floats(-50.0, 50.0), ZERO | st.floats(-50.0, 50.0),
        ZERO | st.floats(0.05, 20.0), ZERO | st.floats(0.05, 5.0))]
    paths = draw(st.lists(st.tuples(*map(st.sampled_from, values)), min_size=1, max_size=4))
    which = draw(st.lists(st.integers(0, len(paths) - 1), min_size=1, max_size=24))
    eps0, eps1, t_c, de_z = np.array([paths[k] for k in which]).T
    t_f = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(which),
                                 max_size=len(which))))
    amp = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=6 * len(which),
                                 max_size=6 * len(which)))).reshape(-1, 6)
    psi0 = amp[:, :3] + 1j * amp[:, 3:] + np.array([1e-3, 0.0, 0.0])
    psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
    return ((eps0, eps1, t_f, t_c, de_z), psi0, draw(st.integers(1, 30)),
            draw(st.none() | st.integers(1, 8)))


@given(shared_paths())
def test_trajectories_sharing_a_path_equal_each_one_alone(block):
    ramp, psi0, n_steps, chunk = block
    with mock.patch.object(dqd, "_CHUNK", dqd._CHUNK if chunk is None else chunk):
        together = _ramp_states(*ramp, psi0, n_steps)
    for i in range(len(psi0)):
        alone = _ramp_states(*(a[i:i + 1] for a in ramp), psi0[i:i + 1], n_steps)
        assert np.array_equal(together[i:i + 1], alone)


def test_more_trajectories_than_a_chunk_equal_each_one_alone():
    # 150 trajectories more than a chunk holds, on 7 paths, so runs of one
    # path straddle the chunk boundary; the first five paths differ from
    # the first in one field each, the last two only in the sign of zero
    n = dqd._CHUNK + 150
    rng = np.random.default_rng(8)
    paths = np.array([[-30.0, 20.0, 10.0, 0.3], [-20.0, 20.0, 10.0, 0.3], [-30.0, 25.0, 10.0, 0.3],
                      [-30.0, 20.0, 5.0, 0.3], [-30.0, 20.0, 10.0, 0.0],
                      [-0.0, 5.0, 0.0, 0.3], [0.0, 5.0, 0.0, 0.3]])
    eps0, eps1, t_c, de_z = paths[rng.integers(0, len(paths), n)].T
    t_f = rng.uniform(0.05, 2.0, n)
    psi0 = np.linalg.qr(rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3)))[0][:, 0]
    together = _ramp_states(eps0, eps1, t_f, t_c, de_z, psi0, 300)
    for i in range(n):
        alone = _ramp_states(eps0[i:i + 1], eps1[i:i + 1], t_f[i:i + 1], t_c[i:i + 1],
                             de_z[i:i + 1], psi0[i:i + 1], 300)
        assert np.array_equal(together[i:i + 1], alone)



@given(shared_paths(), st.data())
def test_chunk_and_slab_sizes_do_not_change_the_states(block, data):
    # Chunks smaller than the block, so runs of one path straddle chunk
    # boundaries, and slabs of 1 to n_steps - 1 steps, where the kernel's
    # own sizes put every trajectory here in one chunk and one slab.
    ramp, psi0, n_steps, _ = block
    assume(n_steps > 1)
    chunk = data.draw(st.integers(1, max(1, len(psi0) - 1)), label="chunk")
    slab = data.draw(st.integers(1, n_steps - 1), label="steps per slab")
    want = _ramp_states(*ramp, psi0, n_steps)
    with mock.patch.multiple(dqd, _CHUNK=chunk, _SLAB_BYTES=slab * chunk * 9 * 16):
        got = _ramp_states(*ramp, psi0, n_steps)
    assert np.array_equal(got, want)
    for i in range(len(psi0)):
        assert np.abs(got[i] - expm_stepped(*(a[i] for a in ramp), psi0[i], n_steps)).max() < 1e-12

def test_noise_that_overflows_the_phase_rate_is_refused_without_warnings():
    cfg = DqdConfig(ramp_time=0.3, **STRONG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phase rate"):
            initialization_fidelity(cfg, noise=NoiseModel(sigma_eps=1e308, n_samples=3),
                                    n_steps=20)
        with pytest.raises(ValueError, match="phase rate"):
            sweep_fidelity_grid(replace(cfg, eps_initial=1.7e308), ("ramp_time", [0.1]),
                                ("eps_final", [30.0]), n_steps=20)


def test_a_ramp_whose_phase_overflows_is_refused_without_warnings():
    cfg = DqdConfig(ramp_time=1e308, **STRONG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phase rate"):
            initialization_fidelity(cfg, n_steps=20)
        # the first shift overflows eps_initial to inf, so the ramp's
        # detuning is inf - inf = NaN, where eigh would not converge
        with pytest.raises(ValueError, match="phase rate"):
            initialization_fidelity(replace(cfg, eps_initial=1.7e308, ramp_time=0.3),
                                    noise=NoiseModel(sigma_eps=1e308, n_samples=3), n_steps=20)
        with pytest.raises(ValueError, match="normalized"):
            evolve(cfg, ground_state(cfg, cfg.eps_initial), dt=cfg.ramp_time / 20)


@pytest.mark.parametrize("n_steps", [0, -3, 1.5, 300.0, "abc", None, True])
def test_bad_step_counts_are_rejected(n_steps):
    cfg = DqdConfig(ramp_time=0.3, **STRONG)
    with pytest.raises(ValueError, match="n_steps"):
        initialization_fidelity(cfg, n_steps=n_steps)
    with pytest.raises(ValueError, match="n_steps"):
        sweep_fidelity_grid(cfg, ("ramp_time", [0.1]), ("eps_final", [30.0]), n_steps=n_steps)


def interior_extrema(row, prominence=1e-5):
    count = 0
    for k in range(1, len(row) - 1):
        rises = row[k] - row[k - 1] >= prominence and row[k] - row[k + 1] >= prominence
        dips = row[k - 1] - row[k] >= prominence and row[k + 1] - row[k] >= prominence
        if rises or dips:
            count += 1
    return count


def test_fast_ramp_grid_shows_fringes_along_final_detuning():
    base = DqdConfig(tunnel_coupling=10.0, zeeman_diff=0.3, eps_initial=-30.0,
                     eps_final=50.0, ramp_time=0.06)
    grid = sweep_fidelity_grid(base, ("eps_initial", np.linspace(-40.0, -20.0, 8)),
                               ("eps_final", np.linspace(2.0, 40.0, 40)), n_steps=400)
    assert all(interior_extrema(row) >= 1 for row in grid)


def test_noise_lowers_mean_grid_fidelity():
    base = DqdConfig(tunnel_coupling=10.0, zeeman_diff=0.3, eps_initial=-30.0,
                     eps_final=50.0, ramp_time=0.06)
    ax1 = ("ramp_time", np.geomspace(0.04, 1.0, 4))
    ax2 = ("eps_final", np.linspace(5.0, 40.0, 4))
    clean = sweep_fidelity_grid(base, ax1, ax2, n_steps=300)
    noisy = sweep_fidelity_grid(base, ax1, ax2,
                                noise=NoiseModel(sigma_eps=1.0, n_samples=200, seed=9),
                                n_steps=300)
    assert noisy.mean() <= clean.mean()


def test_grid_rejects_unknown_axis():
    base = DqdConfig(ramp_time=0.3, **STRONG)
    with pytest.raises(ValueError):
        sweep_fidelity_grid(base, ("epsilon_start", [0.0, 1.0]), ("eps_final", [1.0, 2.0]))


@pytest.mark.parametrize("values", [[True, 20.0], ["20"], [20.0, float("inf")]])
def test_grid_rejects_axis_values_that_are_not_reals(values):
    base = DqdConfig(ramp_time=0.3, **STRONG)
    with pytest.raises(ValueError, match="values must hold only finite real numbers"):
        sweep_fidelity_grid(base, ("ramp_time", [0.1]), ("eps_final", values), n_steps=20)


@pytest.mark.parametrize("empty", [[], np.linspace(0.1, 1.0, 0)])
def test_grid_rejects_an_empty_axis(empty):
    base = DqdConfig(ramp_time=0.3, **STRONG)
    with pytest.raises(ValueError, match="eps_final values must be a non-empty"):
        sweep_fidelity_grid(base, ("ramp_time", [0.1, 0.2]), ("eps_final", empty))


def test_config_validation():
    with pytest.raises(ValueError):
        DqdConfig(tunnel_coupling=1.0, zeeman_diff=0.1, eps_initial=0.0,
                  eps_final=1.0, ramp_time=0.0)
    with pytest.raises(ValueError):
        DqdConfig(tunnel_coupling=-1.0, zeeman_diff=0.1, eps_initial=0.0,
                  eps_final=1.0, ramp_time=1.0)
    with pytest.raises(ValueError, match="expected 3 amplitudes"):
        StateVector(np.ones(2, dtype=complex))
    with pytest.raises(ValueError, match="sigma_eps must be non-negative"):
        NoiseModel(sigma_eps=-1.0)

