"""Collapse dynamics: analytic decay oracles, trajectory statistics, guards."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dyadlab import optimizer, qdyn
from dyadlab.errors import GridMismatch, StepTooLarge

A_REF = (2.0, 0.0, 4.0, 6.0)


def _projector(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def test_build_collapse_operator():
    assert np.array_equal(qdyn.build_collapse_operator(A_REF), np.array(A_REF))
    assert np.array_equal(qdyn.build_collapse_operator((0, 0, 0, 0)), np.zeros(4))
    assert np.array_equal(
        qdyn.build_collapse_operator(optimizer.EigenAssignment(6, 4, 0, 2)),
        np.array([6.0, 4.0, 0.0, 2.0]),
    )
    with pytest.raises(ValueError):
        qdyn.build_collapse_operator((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        qdyn.build_collapse_operator((-1.0, 0.0, 0.0, 0.0))


def test_coherence_decay_rate_frozen_values():
    a = qdyn.build_collapse_operator(A_REF)
    assert qdyn.coherence_decay_rate(a, 1.0, 1, 2) == pytest.approx(8.0)
    assert qdyn.coherence_decay_rate(a, 1.0, 0, 1) == pytest.approx(2.0)
    assert qdyn.coherence_decay_rate(np.full(4, 3.0), 1.0, 0, 3) == 0.0
    with pytest.raises(ValueError):
        qdyn.coherence_decay_rate(a, 1.0, 2, 2)


def test_prepare_dyad_superposition():
    psi = qdyn.prepare_dyad_superposition()
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert psi == pytest.approx(np.array([1, 0, 1, 0]) / math.sqrt(2.0))


def test_swap_hamiltonian_generates_the_swap_gate():
    from scipy.linalg import expm

    from dyadlab import qiit

    h = qdyn.swap_hamiltonian()
    assert h.dtype == np.float64
    u = expm(-1j * h)
    assert np.allclose(u, qiit.swap_unitary(), atol=1e-12)


def test_lindblad_off_diagonal_decay_matches_analytic_rate():
    # uniform superposition puts weight on all six coherences
    psi = np.ones(4, dtype=complex) / 2.0
    a = qdyn.build_collapse_operator(A_REF)
    lam, dt = 1.0, 1e-3
    times, states = qdyn.lindblad_path(_projector(psi), None, a, lam, dt, [0.5, 1.0])
    for t, rho in zip(times, states):
        for i, k in qdyn.COHERENCE_PAIRS:
            rate = qdyn.coherence_decay_rate(a, lam, i, k)
            expected = 0.25 * math.exp(-rate * t)
            assert abs(rho[i, k]) == pytest.approx(expected, rel=1e-6)


def test_lindblad_decay_rates_from_log_linear_fit():
    psi = np.ones(4, dtype=complex) / 2.0
    a = qdyn.build_collapse_operator(A_REF)
    lam, dt = 1.0, 1e-4
    sample_times = np.linspace(0.02, 0.2, 10)
    times, states = qdyn.lindblad_path(_projector(psi), None, a, lam, dt, sample_times)
    for i, k in qdyn.COHERENCE_PAIRS:
        rate = qdyn.coherence_decay_rate(a, lam, i, k)
        if rate == 0.0:
            continue
        logs = np.log([abs(rho[i, k]) for rho in states])
        slope = np.polyfit(times, logs, 1)[0]
        assert -slope == pytest.approx(rate, rel=1e-4)


def test_lindblad_pair_superposition_frozen_value():
    psi = qdyn.basis_superposition(0, 1)
    rho = qdyn.lindblad_evolve(_projector(psi), None, A_REF, 1.0, 1.0, 1e-4)
    assert abs(rho[0, 1]) == pytest.approx(0.5 * math.exp(-2.0), abs=1e-6)


def test_lindblad_no_dynamics_without_operator():
    rho0 = _projector(qdyn.basis_superposition(0, 3))
    rho = qdyn.lindblad_evolve(rho0, None, np.zeros(4), 1.0, 1.0, 1e-2)
    assert np.allclose(rho, rho0, atol=1e-12)


def test_lindblad_diagonal_states_are_fixed_points(rng):
    pops = rng.random(4)
    pops /= pops.sum()
    rho0 = np.diag(pops).astype(complex)
    rho = qdyn.lindblad_evolve(rho0, None, A_REF, 1.0, 0.5, 1e-3)
    assert np.allclose(rho, rho0, atol=1e-12)


def test_lindblad_populations_constant_without_hamiltonian(rng):
    for _ in range(5):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        a = qdyn.build_collapse_operator(rng.random(4) * 3.0)
        rho = qdyn.lindblad_evolve(_projector(psi), None, a, 1.0, 0.3, 1e-3)
        assert np.allclose(np.diag(rho), np.diag(_projector(psi)), atol=1e-10)


def test_lindblad_preserves_density_invariants_along_path(rng):
    for _ in range(20):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        a = qdyn.build_collapse_operator(rng.random(4) * 3.0)
        lam = float(rng.random() * 2.0)
        gaps = np.subtract.outer(a, a) ** 2
        dt = 1e-3 / max(lam * gaps.max(), 1.0)
        times, states = qdyn.lindblad_path(
            _projector(psi), None, a, lam, dt, np.linspace(0.0, 40 * dt, 5)
        )
        for rho in states:
            qdyn.validate_density_matrix(rho)


def test_lindblad_with_hamiltonian_keeps_invariants():
    h = qdyn.swap_hamiltonian()
    psi = qdyn.basis_superposition(0, 1)
    rho = qdyn.lindblad_evolve(_projector(psi), h, A_REF, 1.0, 1.0, 1e-3)
    qdyn.validate_density_matrix(rho)


def _rk4_reference(rho, h, a, lam, dt, n_steps):
    """Classical RK4, one step at a time, on the master equation."""
    a_mat = np.diag(np.asarray(a, dtype=complex))

    def comm(x, y):
        return x @ y - y @ x

    def rhs(r):
        return -0.5 * lam * comm(a_mat, comm(a_mat, r)) - 1j * comm(h, r)

    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


@pytest.mark.parametrize("dt, t", [(2e-3, 1.0), (0.15, 3.0), (1e-9, 1.0)])
def test_lindblad_matches_rk4_closed_form_without_hamiltonian(dt, t):
    # each entry is scaled by the RK4 stability polynomial R(z) per step,
    # z = -rate dt; dt = 0.15 puts the fastest rate at z = -2.7, near the
    # stability edge, and dt = 1e-9 takes 1e9 steps
    rho0 = _projector(np.ones(4, dtype=complex) / 2.0)
    a = qdyn.build_collapse_operator(A_REF)
    lam = 1.0
    times, states = qdyn.lindblad_path(rho0, None, a, lam, dt, np.linspace(0.0, t, 6))
    for time, rho in zip(times, states):
        n = round(time / dt)
        for i in range(4):
            for k in range(4):
                z = -0.5 * lam * (a[i] - a[k]) ** 2 * dt
                decay = math.exp(n * math.log1p(z + z * z / 2 + z**3 / 6 + z**4 / 24))
                assert abs(rho[i, k] - rho0[i, k] * decay) <= 1e-12


@pytest.mark.parametrize("dt, t", [(1e-3, 0.5), (0.05, 1.0)])
def test_lindblad_with_hamiltonian_matches_stepwise_rk4(dt, t):
    h = qdyn.swap_hamiltonian()
    rho0 = _projector(qdyn.basis_superposition(0, 1))
    sample_times = [t / 2, t]
    times, states = qdyn.lindblad_path(rho0, h, A_REF, 1.0, dt, sample_times)
    for time, rho in zip(times, states):
        expected = _rk4_reference(rho0, h, A_REF, 1.0, dt, round(time / dt))
        assert np.max(np.abs(rho - expected)) <= 1e-12


def test_lindblad_refuses_unstable_step_before_integrating():
    # fastest rate (lam/2)(0 - 6)^2 = 18; RK4 is stable for dt * 18 <= ~2.785
    rho0 = _projector(np.ones(4, dtype=complex) / 2.0)
    qdyn.lindblad_path(rho0, None, A_REF, 1.0, 2.78 / 18.0, [1.0])
    with pytest.raises(StepTooLarge, match="spectral radius"):
        qdyn.lindblad_path(rho0, None, A_REF, 1.0, 2.79 / 18.0, [1.0])
    with pytest.raises(StepTooLarge, match="spectral radius"):
        qdyn.lindblad_path(rho0, None, (0.0, 200.0, 0.0, 0.0), 1.0, 1e-3, [1.0])


def test_lindblad_step_too_large_guard():
    psi = np.ones(4, dtype=complex) / 2.0
    with pytest.raises(StepTooLarge):
        qdyn.lindblad_evolve(_projector(psi), None, A_REF, 1.0, 5.0, 0.5)


def test_sde_zero_operator_is_static():
    # drift and diffusion vanish identically; only renormalization rounding
    # of the irrational amplitudes remains
    psi = qdyn.basis_superposition(1, 2)
    rec = qdyn.sde_trajectory(psi, None, np.zeros(4), 1.0, 1e-3, 0.2, seed=7)
    assert np.allclose(rec.final_state, psi, atol=1e-12)
    rec2 = qdyn.sde_trajectory(psi, None, np.zeros(4), 1.0, 1e-3, 0.2, seed=99)
    assert np.allclose(rec2.final_state, psi, atol=1e-12)


def test_sde_eigenstates_are_fixed_points():
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1.0
    rec = qdyn.sde_trajectory(psi, None, A_REF, 1.0, 1e-3, 0.3, seed=11)
    assert np.array_equal(rec.final_state, psi)
    assert rec.outcome == 2


def test_sde_reproducible_for_fixed_seed():
    psi = qdyn.basis_superposition(0, 1)
    rec1 = qdyn.sde_trajectory(psi, None, A_REF, 1.0, 1e-3, 0.4, seed=3)
    rec2 = qdyn.sde_trajectory(psi, None, A_REF, 1.0, 1e-3, 0.4, seed=3)
    assert np.array_equal(rec1.states, rec2.states)
    rec3 = qdyn.sde_trajectory(psi, None, A_REF, 1.0, 1e-3, 0.4, seed=4)
    assert not np.array_equal(rec3.states, rec1.states)


def test_sde_states_stay_normalized():
    psi = qdyn.basis_superposition(0, 1)
    rec = qdyn.sde_trajectory(
        psi, None, A_REF, 1.0, 1e-3, 1.0, seed=5, sample_times=np.linspace(0, 1, 11)
    )
    norms = np.linalg.norm(rec.states, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_ensemble_members_match_individual_runs_bitwise():
    # from the uniform state all four amplitudes enter <A>; member _BATCH runs
    # alone in the second batch
    psi = np.ones(4, dtype=complex) / 2.0
    h = qdyn.swap_hamiltonian()
    n = qdyn._BATCH + 1
    records = qdyn.simulate_ensemble(psi, h, A_REF, 1.0, 1e-3, 0.1, n_trajectories=n, seed=42)
    assert len(records) == n
    for i in (0, qdyn._BATCH - 1, qdyn._BATCH):
        solo = qdyn.sde_trajectory(
            psi, h, A_REF, 1.0, 1e-3, 0.1, seed=qdyn.derive_trajectory_seed(42, i)
        )
        assert records[i].seed == solo.seed
        assert np.array_equal(records[i].states, solo.states)


def test_sde_refuses_step_with_nonpositive_drift_factor():
    # (lam/2) dt gap^2 = 1 at gap sqrt(2000) ~ 44.72 for lam = 1, dt = 1e-3
    psi = qdyn.basis_superposition(0, 1)
    rec = qdyn.sde_trajectory(psi, None, (0.0, 44.7, 0.0, 0.0), 1.0, 1e-3, 0.05, seed=1)
    assert np.allclose(np.linalg.norm(rec.states, axis=1), 1.0, atol=1e-12)
    for a in ((0.0, 44.73, 0.0, 0.0), (0.0, 200.0, 0.0, 0.0)):
        with pytest.raises(StepTooLarge, match="drift factor"):
            qdyn.sde_trajectory(psi, None, a, 1.0, 1e-3, 0.05, seed=1)
        with pytest.raises(StepTooLarge, match="drift factor"):
            qdyn.simulate_ensemble(psi, None, a, 1.0, 1e-3, 0.05, n_trajectories=3)


@pytest.mark.parametrize("h", [np.triu(np.ones((4, 4))), np.eye(3)], ids=["non_hermitian", "3x3"])
def test_sde_rejects_invalid_hamiltonian(h, monkeypatch):
    psi = qdyn.basis_superposition(0, 1)
    with pytest.raises(ValueError, match="Hermitian 4x4"):
        qdyn.sde_trajectory(psi, h, A_REF, 1.0, 1e-3, 0.1, seed=1)

    def no_seeds(master, index):
        raise AssertionError("a seed was derived before the inputs were validated")

    monkeypatch.setattr(qdyn, "derive_trajectory_seed", no_seeds)
    with pytest.raises(ValueError, match="Hermitian 4x4"):
        qdyn.simulate_ensemble(psi, h, A_REF, 1.0, 1e-3, 0.1, n_trajectories=3)


def _seed_sequence_key(master, index):
    return int(np.random.SeedSequence(entropy=master, spawn_key=(index,)).generate_state(1, np.uint64)[0])


def test_trajectory_seed_hash_matches_seed_sequence():
    masters = (0, 1, 2**32 - 1, 2**32, 2**64 + 3)
    indices = (0, 1, 999, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1)
    for master in masters:
        expected = [_seed_sequence_key(master, i) for i in indices]
        assert [qdyn.derive_trajectory_seed(master, i) for i in indices] == expected
        keys = qdyn.derive_trajectory_seed(master, np.array(indices, dtype=np.uint64))
        assert keys.dtype == np.uint64
        assert keys.tolist() == expected
    # an index past 64 bits fits no uint64 array; 2**70 would hash like 2**64
    for bad in ((-1, 0), (0, -1), (0, np.array([3, -1])), (0, 2**64), (0, 2**70)):
        with pytest.raises(ValueError):
            qdyn.derive_trajectory_seed(*bad)


def test_chunked_noise_equals_one_shot_philox_draws():
    keys = [0, 7, 2**64 - 1, 2**64, 2**128 - 1]
    n = 2500
    expected = np.stack([np.random.Generator(np.random.Philox(key=k)).standard_normal(n) for k in keys])
    gen = np.random.Generator(np.random.Philox(0))
    streams = [qdyn._fresh_philox_state(k) for k in keys]
    got = np.empty((len(keys), n))
    block = np.empty((len(keys), 1000))
    start = 0
    for width in (777, 1000, 1, 722):
        qdyn._draw_noise(gen, streams, block, width, keep=True)
        got[:, start:start + width] = block[:, :width]
        start += width
    assert np.array_equal(got, expected)
    with pytest.raises(ValueError):
        qdyn._fresh_philox_state(-1)


def test_ensemble_independent_of_noise_chunk(monkeypatch):
    # 11 steps are chunks of 3, 3, 3 and 2 at _NOISE_CHUNK = 3
    psi = np.ones(4, dtype=complex) / 2.0
    args = (psi, qdyn.swap_hamiltonian(), A_REF, 1.0, 1e-3, 0.011)
    kw = dict(n_trajectories=5, seed=3, sample_times=[0.0, 0.002, 0.004, 0.011], collapse_threshold=0.3)
    ref = qdyn.simulate_ensemble(*args, **kw)
    monkeypatch.setattr(qdyn, "_NOISE_CHUNK", 3)
    chunked = qdyn.simulate_ensemble(*args, **kw)
    assert np.array_equal(np.stack([r.states for r in chunked]), np.stack([r.states for r in ref]))
    assert [r.outcome for r in chunked] == [r.outcome for r in ref]
    assert any(r.outcome is not None for r in ref)


def test_sde_noise_memory_is_bounded_by_the_chunk():
    # 1000 x 5000 steps would be a 40 MB noise array; the chunk keeps it at 8 MB
    psi = qdyn.basis_superposition(0, 1)
    tracemalloc.start()
    try:
        records = qdyn.simulate_ensemble(psi, None, A_REF, 1.0, 1e-3, 5.0, n_trajectories=1000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 1000
    assert peak < 16 * 2**20


def test_sde_refuses_too_many_steps_before_deriving_seeds(monkeypatch):
    psi = qdyn.basis_superposition(0, 1)

    def no_seeds(master, index):
        raise AssertionError("a seed was derived for a refused run")

    monkeypatch.setattr(qdyn, "derive_trajectory_seed", no_seeds)
    for t, dt in ((1000.0, 1e-9), (1e300, 1e-3)):
        with pytest.raises(ValueError, match="allowed"):
            qdyn.simulate_ensemble(psi, None, A_REF, 1.0, dt, t, n_trajectories=2)
        with pytest.raises(ValueError, match="allowed"):
            qdyn.sde_trajectory(psi, None, A_REF, 1.0, dt, t, seed=1, sample_times=np.linspace(0.0, t, 10**6))


def _time_grid_reference(t, dt, sample_times):
    n_steps = int(round(t / dt))
    steps = sorted({min(max(int(round(float(s) / dt)), 0), n_steps) for s in sample_times})
    return n_steps, steps, np.array([s * dt for s in steps])


def test_time_grid_snaps_like_round():
    dt = 1e-3
    cases = [
        [0.0, 0.5],
        np.linspace(0.0, 0.5, 7),
        np.linspace(0.0, 0.0106, 500),
        [-0.2, 0.0025, 0.0035, 0.0045, 0.2, 9.0],  # ties round half to even
        np.arange(12) * dt,
    ]
    for sample_times in cases:
        t = 0.5 if max(sample_times) > 0.0106 else 0.0106
        n_steps, steps, times = qdyn._time_grid(t, dt, sample_times)
        ref_n, ref_steps, ref_times = _time_grid_reference(t, dt, sample_times)
        assert (n_steps, steps) == (ref_n, ref_steps)
        assert np.array_equal(times, ref_times)
    with pytest.raises(ValueError, match="finite"):
        qdyn._time_grid(1.0, dt, [0.0, math.nan])


def test_collapse_outcomes_match_per_row_rule():
    rng = np.random.default_rng(5)
    finals = rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))
    finals /= np.linalg.norm(finals, axis=1)[:, None]
    finals[0] = [1.0, 0.0, 0.0, 0.0]
    finals[1] = np.ones(4) / 2.0  # a four-way tie goes to the first index
    for threshold in (0.25, 0.5, 0.99):
        expected = []
        for psi in finals:
            pops = qdyn.state_populations(psi)
            winner = int(np.argmax(pops))
            expected.append(winner if pops[winner] >= threshold else None)
        assert qdyn._collapse_outcomes(finals, threshold) == expected


def test_ensemble_average_checks_scalars_of_shared_grids():
    psi = qdyn.basis_superposition(0, 1)
    records = qdyn.simulate_ensemble(psi, None, A_REF, 1.0, 1e-3, 0.05, n_trajectories=3, seed=2)
    assert records[0].times is records[2].times
    qdyn.ensemble_average(records, at=0.05)
    with pytest.raises(GridMismatch):
        qdyn.ensemble_average(records + [dataclasses.replace(records[0], lam=2.0)], at=0.05)
    copied = dataclasses.replace(records[1], times=records[1].times.copy())
    assert np.array_equal(
        qdyn.ensemble_average([records[0], copied], at=0.05),
        qdyn.ensemble_average(records[:2], at=0.05),
    )


def test_trajectory_seeds_do_not_depend_on_count():
    assert qdyn.derive_trajectory_seed(0, 5) == qdyn.derive_trajectory_seed(0, 5)
    assert qdyn.derive_trajectory_seed(0, 5) != qdyn.derive_trajectory_seed(0, 6)
    assert qdyn.derive_trajectory_seed(1, 5) != qdyn.derive_trajectory_seed(0, 5)


def test_born_statistics_smoke():
    psi = qdyn.basis_superposition(0, 1)
    records = qdyn.simulate_ensemble(
        psi, None, A_REF, 1.0, 2e-3, 4.0, n_trajectories=400, seed=1
    )
    outcomes = [r.outcome for r in records]
    assert outcomes.count(None) <= 4
    freq = outcomes.count(0) / len(records)
    assert abs(freq - 0.5) < 0.1  # 4 binomial sigma
    assert outcomes.count(2) == 0 and outcomes.count(3) == 0


def test_born_statistics_uneven_superposition():
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[1] = math.sqrt(0.3), math.sqrt(0.7)
    records = qdyn.simulate_ensemble(
        psi, None, A_REF, 1.0, 2e-3, 4.0, n_trajectories=500, seed=8
    )
    freq = sum(r.outcome == 1 for r in records) / len(records)
    assert abs(freq - 0.7) < 4.0 * math.sqrt(0.7 * 0.3 / 500)


def test_ensemble_average_of_basis_trajectory_is_projector():
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0
    rec = qdyn.sde_trajectory(psi, None, A_REF, 1.0, 1e-3, 0.2, seed=9)
    rho = qdyn.ensemble_average([rec], at=0.2)
    assert np.allclose(rho, _projector(psi), atol=1e-12)


def test_ensemble_average_at_time_zero_is_initial_state():
    psi = qdyn.basis_superposition(0, 1)
    records = qdyn.simulate_ensemble(
        psi, None, A_REF, 1.0, 1e-3, 0.2, n_trajectories=20, seed=2, sample_times=[0.0, 0.2]
    )
    rho = qdyn.ensemble_average(records, at=0.0)
    assert np.allclose(rho, _projector(psi), atol=1e-12)


def test_ensemble_average_grid_mismatch():
    psi = qdyn.basis_superposition(0, 1)
    r1 = qdyn.sde_trajectory(psi, None, A_REF, 1.0, 1e-3, 0.2, seed=1)
    r2 = qdyn.sde_trajectory(psi, None, A_REF, 1.0, 2e-3, 0.2, seed=1)
    with pytest.raises(GridMismatch):
        qdyn.ensemble_average([r1, r2], at=0.2)
    with pytest.raises(GridMismatch):
        qdyn.ensemble_average([r1], at=0.123)


def test_ensemble_average_matches_lindblad_smoke():
    psi = qdyn.basis_superposition(0, 1)
    records = qdyn.simulate_ensemble(
        psi, None, A_REF, 1.0, 1e-3, 0.5, n_trajectories=600, seed=3, sample_times=[0.5]
    )
    rho_mc = qdyn.ensemble_average(records, at=0.5)
    rho_det = qdyn.lindblad_evolve(_projector(psi), None, A_REF, 1.0, 0.5, 1e-3)
    assert qdyn.trace_distance(rho_mc, rho_det) <= 0.06


def test_faster_decay_for_larger_gap_under_reference_pick():
    # for the (2,0,4,6) assignment the 01/10 coherence dies faster than 00/01
    a = qdyn.build_collapse_operator(A_REF)
    assert qdyn.coherence_decay_rate(a, 1.0, 1, 2) > qdyn.coherence_decay_rate(
        a, 1.0, 0, 1
    )


def test_minimum_gap_rates_across_all_minimizers():
    # every minimizer separates 01/10 by at least 4 but may separate 00/01 by
    # as little as 2; compare the guaranteed (worst-case) rates
    result = optimizer.solve(optimizer.SWAP_TABLE)
    rates_0110 = []
    rates_0001 = []
    for m in result.minimizers:
        a = qdyn.build_collapse_operator(m)
        rates_0110.append(qdyn.coherence_decay_rate(a, 1.0, 1, 2))
        rates_0001.append(qdyn.coherence_decay_rate(a, 1.0, 0, 1))
    assert min(rates_0110) == pytest.approx(8.0)
    assert min(rates_0001) == pytest.approx(2.0)
    assert min(rates_0110) > min(rates_0001)


def test_validate_pure_state():
    with pytest.raises(ValueError):
        qdyn.validate_pure_state(np.array([1.0, 1.0, 0.0, 0.0]))
    qdyn.validate_pure_state(qdyn.basis_superposition(0, 2))


def test_validate_density_matrix():
    with pytest.raises(ValueError):
        qdyn.validate_density_matrix(np.eye(4) / 2.0)
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        qdyn.validate_density_matrix(bad)
    qubit = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    assert np.array_equal(qdyn.validate_density_matrix(qubit, dim=2), qubit)
    with pytest.raises(ValueError, match="Hermitian"):
        qdyn.validate_density_matrix(np.array([[0.5, 0.25], [0.0, 0.5]]), dim=2)
    with pytest.raises(ValueError, match="trace"):
        qdyn.validate_density_matrix(np.eye(2), dim=2)
    # real and imaginary parts of the trace each within 1e-10, its distance from 1 not
    with pytest.raises(ValueError, match="trace"):
        qdyn.validate_density_matrix(np.diag([0.5 + 8e-11 + 4e-11j, 0.5 + 4e-11j]), dim=2)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        qdyn.validate_density_matrix(np.diag([1.5, -0.5]), dim=2)
    with pytest.raises(ValueError, match="must be 4x4"):
        qdyn.validate_density_matrix(qubit)
    with pytest.raises(ValueError, match="must be 2x2"):
        qdyn.validate_density_matrix(np.eye(4) / 4.0, dim=2)
