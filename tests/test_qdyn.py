"""Collapse dynamics: analytic decay oracles, trajectory statistics, guards."""

import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from dyadlab import model, optimizer, qdyn
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


@pytest.mark.parametrize(
    "values", [optimizer.EigenAssignment(6.0, 4.0, 0.0, 2.0), (6, 4, 0, 2), [6.0, 4.0, 0.0, 2.0]]
)
def test_build_collapse_operator_takes_any_four_numbers(values):
    a = qdyn.build_collapse_operator(values)
    assert a.dtype == float and a.tolist() == [6.0, 4.0, 0.0, 2.0]


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


def test_named_states_are_the_arrays_they_replaced_bitwise():
    # the arrays qdyn and the CLI built before model held the named states
    def as_array(amplitudes):
        return np.array(amplitudes, dtype=complex)

    plus0 = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    assert as_array(model.NAMED_STATES["plus0"]).tobytes() == plus0.tobytes()
    assert qdyn.prepare_dyad_superposition().tobytes() == plus0.tobytes()
    uniform = np.ones(4, dtype=complex) / 2.0
    assert as_array(model.NAMED_STATES["uniform"]).tobytes() == uniform.tobytes()
    for i, k in itertools.permutations(range(4), 2):
        pair = np.zeros(4, dtype=complex)
        pair[i] = pair[k] = 1.0 / math.sqrt(2.0)
        assert qdyn.basis_superposition(i, k).tobytes() == pair.tobytes()
    assert model.NAMED_STATES["0plus"] == model.pair_state(0, 1)
    for i, label in enumerate(model.STATE_LABELS):
        assert model.NAMED_STATES[label] == tuple(np.eye(4)[i].tolist())
    for i, k in [(1, 1), (0, 4), (-1, 2)]:
        with pytest.raises(ValueError, match="two distinct basis indices"):
            qdyn.basis_superposition(i, k)


def test_swap_hamiltonian_generates_the_swap_gate():
    from scipy.linalg import expm

    # |a b> -> |b a>: exchanges |01> and |10>, fixes |00> and |11>
    swap_gate = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    for s in model.ALL_STATES:
        assert swap_gate[model.swap().apply(s).index, s.index] == 1.0
    h = qdyn.swap_hamiltonian()
    assert h.dtype == np.float64
    assert np.allclose(expm(-1j * h), swap_gate, atol=1e-12)


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


def test_superoperator_is_the_kron_formula_bitwise(rng):
    # _generator writes the master equation's matrix entry by entry; the
    # reference builds it from np.kron, where X (x) I - I (x) X^T is the matrix
    # of rho -> [X, rho] on the row-major rho.reshape(16)
    eye = np.eye(4)

    def ad(x):
        return np.kron(x, eye) - np.kron(eye, x.T)

    hamiltonians = [np.zeros((4, 4), dtype=complex), qdyn.swap_hamiltonian().astype(complex)]
    hamiltonians += [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(50)]
    for h in hamiltonians:
        for a, lam in [(np.array(A_REF), 1.0), (rng.uniform(0.0, 10.0, size=4), 0.37), (np.zeros(4), 0.0)]:
            ad_a = ad(np.diag(a))
            expected = -0.5 * lam * (ad_a @ ad_a) - 1j * ad(h)
            got = qdyn._generator(h, a, lam)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


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
    # without collapse (lam = 0) A drops out, so a gap whose square overflows runs
    _, states = qdyn.lindblad_path(rho0, None, (0.0, 1e300, 0.0, 0.0), 0.0, 1e-3, [0.0, 0.5, 1.0])
    assert len(states) == 3 and all(np.array_equal(s, rho0) for s in states)


def test_lindblad_refuses_a_step_just_past_the_stability_edge():
    # with a = (0, 1, 0, 0) and lam = 2 the fastest coherences decay at rate 1,
    # so the RK4 step scales them by R(-dt); bisect for R(-dt) = 1 + 1e-6.  One
    # step keeps the drift under the invariant guard, so only the spectral
    # radius check can refuse it
    def excess(dt):
        z = -dt
        return 1.0 + z + z * z / 2 + z**3 / 6 + z**4 / 24 - (1.0 + 1e-6)

    lo, hi = 2.5, 3.0  # excess < 0 at lo, > 0 at hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
    dt = hi
    assert abs(dt - 2.7853) < 1e-3
    rho0 = _projector(np.ones(4, dtype=complex) / 2.0)
    with pytest.raises(StepTooLarge, match="spectral radius"):
        qdyn.lindblad_path(rho0, None, (0.0, 1.0, 0.0, 0.0), 2.0, dt, [0.0, dt])


def test_lindblad_of_zero_steps_returns_the_initial_state_for_any_dt():
    # dt = 3 is far outside RK4's stability region, but t = 1 rounds to no step
    rho0 = _projector(np.ones(4, dtype=complex) / 2.0)
    times, states = qdyn.lindblad_path(rho0, None, A_REF, 1.0, 3.0, [1.0])
    assert times.tolist() == [0.0]
    assert np.array_equal(states[0], rho0)
    with pytest.raises(StepTooLarge, match="spectral radius"):
        qdyn.lindblad_path(rho0, None, A_REF, 1.0, 3.0, [2.0])
    # a split-step run of no step likewise returns psi0, undecided from the uniform state
    psi = np.ones(4, dtype=complex) / 2.0
    rec = qdyn.sde_trajectory(psi, qdyn.swap_hamiltonian(), A_REF, 1.0, 3.0, 1.0, seed=1)
    assert rec.times.tolist() == [0.0]
    assert rec.states.tolist() == [psi.tolist()]
    assert rec.outcome is None


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


def _finite_and_normalised(records):
    states = np.stack([r.states for r in records])
    return np.isfinite(states).all() and np.allclose(
        np.linalg.norm(states, axis=2), 1.0, rtol=0.0, atol=1e-12
    )


def test_sde_split_step_takes_steps_with_large_collapse_exponents():
    # (lam/2) dt gap^2 passes 1 at gap sqrt(2000) ~ 44.72 for lam = 1, dt = 1e-3,
    # where a first-order drift factor 1 - (lam/2) dt gap^2 would turn negative;
    # the split step's collapse factor is an exponential, positive for any step,
    # with a zero Hamiltonian as without one
    psi = qdyn.basis_superposition(0, 1)
    zero_h = np.zeros((4, 4))
    for a in ((0.0, 44.7, 0.0, 0.0), (0.0, 44.73, 0.0, 0.0), (0.0, 200.0, 0.0, 0.0)):
        for h in (zero_h, None):
            rec = qdyn.sde_trajectory(psi, h, a, 1.0, 1e-3, 0.05, seed=1)
            assert _finite_and_normalised([rec])
            records = qdyn.simulate_ensemble(psi, h, a, 1.0, 1e-3, 0.05, n_trajectories=3)
            assert _finite_and_normalised(records)
    # without collapse (lam = 0) A drops out, so a gap whose square overflows runs
    uniform = np.ones(4, dtype=complex) / 2.0
    big = (0.0, 1e300, 0.0, 0.0)
    rec = qdyn.sde_trajectory(uniform, None, big, 0.0, 1e-3, 0.05, seed=1, sample_times=[0.0, 0.02, 0.05])
    assert rec.eigenvalues == big
    assert len(rec.states) == 3 and all(np.array_equal(s, uniform) for s in rec.states)


def test_sde_split_step_takes_steps_with_dt_times_hamiltonian_norm_past_1():
    # |swap_hamiltonian()| = pi, so dt |H| = 1 at dt = 1/pi ~ 0.3183; U = exp(-iH dt)
    # is exact for any step, and at dt = 1 it is the swap gate
    psi = qdyn.basis_superposition(0, 1)
    h = qdyn.swap_hamiltonian()
    for a, scale, dt in ((np.zeros(4), 1.0, 0.318), (np.zeros(4), 1.0, 0.3184), (A_REF, 1e300, 1e-3)):
        rec = qdyn.sde_trajectory(psi, scale * h, a, 1.0, dt, 10 * dt, seed=1)
        assert _finite_and_normalised([rec])
        records = qdyn.simulate_ensemble(psi, scale * h, a, 1.0, dt, 10 * dt, n_trajectories=3)
        assert _finite_and_normalised(records)
    rec = qdyn.sde_trajectory(psi, h, np.zeros(4), 1.0, 1.0, 1.0, seed=1)
    assert np.allclose(rec.final_state, qdyn.basis_superposition(0, 2), rtol=0.0, atol=1e-12)


# Inside RK4's stability region, yet the unequal RK4 factors of the six
# coherences leave the uniform state with a negative eigenvalue after one step.
DRIFT_A = (0.0, 0.0, 2.0, 6.0)
DRIFT_DT = 0.1519088319088319
DRIFT_MESSAGE = (
    "state invariants drifted at t=0.151909 (trace 0.00e+00, hermiticity 0.00e+00, "
    "min eigenvalue -1.51e-02); reduce dt"
)


@pytest.mark.parametrize("block", [None, 1, 2])
def test_lindblad_invariant_guard_reports_first_drifted_sample(block, monkeypatch):
    # only the sample at step 1 drifts (the coherences then decay); with blocks
    # of 1 it lies in the second block, with blocks of 2 at the end of the first
    if block is not None:
        monkeypatch.setattr(qdyn, "_GUARD_BLOCK", block)
    uniform = np.full((4, 4), 0.25, dtype=complex)
    sample_times = [k * DRIFT_DT for k in range(6)]
    with pytest.raises(StepTooLarge) as err:
        qdyn.lindblad_path(uniform, None, DRIFT_A, 1.0, DRIFT_DT, sample_times)
    assert str(err.value) == DRIFT_MESSAGE


def test_guard_reports_the_earlier_of_two_drifted_samples():
    states = np.tile(np.eye(4, dtype=complex) / 4.0, (5, 1, 1))
    states[1, 0, 1] = 1e-3  # Hermiticity drift
    states[3, 0, 0] += 1e-3  # trace drift
    states[4] = np.nan  # would stop a stacked eigensolver
    with pytest.raises(StepTooLarge, match=r"at t=2 \(trace 0.00e\+00, hermiticity 1.00e-03"):
        qdyn._check_guard(states, [0, 2, 4, 6, 8], 1.0)
    qdyn._check_guard(states[[0, 2]], [0, 4], 1.0)


def _guard_reference(rhos, steps, dt):
    """The guard's message for the first drifted state, one matrix at a time."""
    for rho, step in zip(rhos, steps):
        trace_drift = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
        herm_drift = float(np.max(np.abs(rho - rho.conj().T)))
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
        if max(trace_drift, herm_drift, -min_eig) > 1e-6:
            return (
                f"state invariants drifted at t={step * dt:g} "
                f"(trace {trace_drift:.2e}, hermiticity {herm_drift:.2e}, "
                f"min eigenvalue {min_eig:.2e}); reduce dt"
            )
    return None


def test_stacked_guard_matches_per_state_reference(rng):
    # states near the 1e-6 tolerance, on either side of it
    for _ in range(200):
        n = int(rng.integers(1, 8))
        psis = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        psis /= np.linalg.norm(psis, axis=1, keepdims=True)
        rhos = np.einsum("ni,nj->nij", psis, psis.conj())
        noise = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
        rhos += noise * rng.choice([0.0, 1e-8, 3e-7, 1e-6], size=(n, 1, 1))
        steps = sorted(rng.choice(10**6, size=n, replace=False).tolist())
        dt = float(rng.uniform(1e-4, 1.0))
        expected = _guard_reference(rhos, steps, dt)
        if expected is None:
            qdyn._check_guard(rhos, steps, dt)
        else:
            with pytest.raises(StepTooLarge) as err:
                qdyn._check_guard(rhos, steps, dt)
            assert str(err.value) == expected


def test_lindblad_refuses_a_step_power_that_overflows():
    # the coherences' RK4 factor R(-dt/2) = 1 + 5e-11 passes the stability
    # check, and 1e14 steps then overflow them; a numpy warning would fail here
    dt = 5.570587126876889
    uniform = np.full((4, 4), 0.25, dtype=complex)
    with pytest.raises(StepTooLarge, match="raised to 100000000000000 steps overflows"):
        qdyn.lindblad_path(uniform, None, (0.0, 0.0, 0.0, 1.0), 1.0, dt, [1e14 * dt])


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_hamiltonian_is_refused_by_name(bad):
    h = qdyn.swap_hamiltonian()
    h[0, 0] = bad
    psi = qdyn.basis_superposition(0, 1)
    with pytest.raises(ValueError, match="Hamiltonian has a non-finite entry"):
        qdyn.sde_trajectory(psi, h, A_REF, 1.0, 1e-3, 0.1, seed=1)
    with pytest.raises(ValueError, match="Hamiltonian has a non-finite entry"):
        qdyn.lindblad_path(_projector(psi), h, A_REF, 1.0, 1e-3, [0.1])


def test_empty_sample_times_are_refused():
    psi = qdyn.basis_superposition(0, 1)
    for sample_times in ([], np.array([])):
        with pytest.raises(ValueError, match="sample_times must hold at least one time"):
            qdyn.lindblad_path(_projector(psi), None, A_REF, 1.0, 1e-3, sample_times)
        with pytest.raises(ValueError, match="sample_times must hold at least one time"):
            qdyn.sde_trajectory(psi, None, A_REF, 1.0, 1e-3, 0.1, seed=1, sample_times=sample_times)
        with pytest.raises(ValueError, match="sample_times must hold at least one time"):
            qdyn.simulate_ensemble(
                psi, None, A_REF, 1.0, 1e-3, 0.1, n_trajectories=2, sample_times=sample_times
            )


def test_trajectory_key_is_seed_low_word_and_index_high_word():
    top = 2**64 - 1
    for master in (0, 1, top):
        for index in (0, 1, top):
            assert qdyn.derive_trajectory_seed(master, index) == master + index * 2**64
    assert qdyn.derive_trajectory_seed(np.uint64(top), np.int64(3)) == top + 3 * 2**64
    assert qdyn.derive_trajectory_seed(top, top) == 2**128 - 1
    for bad in (-1, 2**64, 2**70, 1.0, 0.5, "1", None, np.array([1, 2]), np.array([0], dtype=np.uint64)):
        with pytest.raises(ValueError):
            qdyn.derive_trajectory_seed(bad, 0)
        with pytest.raises(ValueError):
            qdyn.derive_trajectory_seed(0, bad)


def test_ensemble_members_run_on_the_key_layout():
    # member 0 of master seed m is sde_trajectory(seed=m); the others follow m + i * 2**64
    psi = np.ones(4, dtype=complex) / 2.0
    h = qdyn.swap_hamiltonian()
    master = 2**64 - 1
    n = qdyn._BATCH + 1
    records = qdyn.simulate_ensemble(psi, h, A_REF, 1.0, 1e-3, 0.01, n_trajectories=n, seed=master)
    for i in (0, qdyn._BATCH - 1, qdyn._BATCH):
        assert records[i].seed == master + i * 2**64
    solo = qdyn.sde_trajectory(psi, h, A_REF, 1.0, 1e-3, 0.01, seed=master)
    assert np.array_equal(records[0].states, solo.states)
    with pytest.raises(ValueError, match="seed"):
        qdyn.simulate_ensemble(psi, h, A_REF, 1.0, 1e-3, 0.01, n_trajectories=2, seed=2**64)
    # a fractional key is refused, not truncated to the stream of its integer part
    for bad in (1.5, 1.0, np.float64(1), "1"):
        with pytest.raises(ValueError, match="must be an integer"):
            qdyn.sde_trajectory(psi, h, A_REF, 1.0, 1e-3, 0.01, seed=bad)
    for bad in (-1, 2**128):
        with pytest.raises(ValueError, match=r"not in \[0, 2\*\*128\)"):
            qdyn.sde_trajectory(psi, h, A_REF, 1.0, 1e-3, 0.01, seed=bad)
    # a numpy integer key runs the same stream; the record keeps the seed as given
    rec = qdyn.sde_trajectory(psi, h, A_REF, 1.0, 1e-3, 0.01, seed=np.uint64(master))
    assert rec.states.tobytes() == solo.states.tobytes()
    assert type(rec.seed) is np.uint64


def test_chunked_noise_equals_one_shot_philox_draws(monkeypatch):
    # a split-step run of 2500 steps is bitwise the same however its noise is
    # chunked, and follows the reference, which draws all 2500 normals of
    # Philox(key=key) at once
    psi = np.ones(4, dtype=complex) / 2.0
    h = qdyn.swap_hamiltonian()
    sample_steps = list(range(0, 2501, 250))
    sample_times = [s * 1e-3 for s in sample_steps]

    def run(key):
        return qdyn.sde_trajectory(psi, h, A_REF, 1.0, 1e-3, 2.5, seed=key, sample_times=sample_times).states

    ref = {key: run(key) for key in (0, 7, 2**64 - 1, 2**64, 2**128 - 1)}
    for key, states in ref.items():
        want = _split_step_reference(psi, h, A_REF, 1.0, 1e-3, 2500, sample_steps, key)
        assert np.allclose(states, want, rtol=0.0, atol=1e-12), key
    for chunk in (1, 777, 1000, 2500):
        monkeypatch.setattr(qdyn, "_NOISE_CHUNK", chunk)
        for key, states in ref.items():
            assert run(key).tobytes() == states.tobytes(), (key, chunk)


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
    # 1000 x 5000 steps would be a 40 MB noise array; the chunk keeps it at 8 MB.
    # Only the split step draws per step, so the run passes a (zero) Hamiltonian
    psi = qdyn.basis_superposition(0, 1)
    tracemalloc.start()
    try:
        records = qdyn.simulate_ensemble(
            psi, np.zeros((4, 4)), A_REF, 1.0, 1e-3, 5.0, n_trajectories=1000, seed=1
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 1000
    assert peak < 16 * 2**20


def _split_step_reference(psi0, h, a, lam, dt, n_steps, sample_steps, key):
    """One trajectory of the split step, in complex form, row by row.

    ``psi <- exp(sqrt(lam) a dY - lam a^2 dt) psi`` with
    ``dY = sqrt(dt) z + 2 sqrt(lam) <A> dt``, then ``psi <- U psi / |psi|`` with
    ``U = expm(-iH dt)``; the noise is one draw from ``Philox(key=key)``.
    """
    from scipy.linalg import expm

    u = expm(-1j * dt * np.asarray(h, dtype=complex))
    a = np.asarray(a, dtype=float) - min(a) if lam else np.zeros(4)
    noise = np.random.Generator(np.random.Philox(key=key)).standard_normal(n_steps)
    psi = np.array(psi0, dtype=complex)
    states = {0: psi}
    for step, z in enumerate(noise, 1):
        p = np.abs(psi) ** 2
        d_y = math.sqrt(dt) * z + 2.0 * math.sqrt(lam) * (p @ a) / p.sum() * dt
        psi = np.exp(math.sqrt(lam) * a * d_y - lam * a**2 * dt) * psi
        psi = u @ (psi / np.linalg.norm(psi))
        states[step] = psi
    return np.stack([states[s] for s in sample_steps])


def _oracle_states():
    tiny = np.array([1.0, 1e-200, 0.0, 0.0], dtype=complex)
    random = np.array([1.0, 1j]) @ np.random.default_rng(17).normal(size=(2, 4))
    return {
        "pair_00_01": qdyn.basis_superposition(0, 1),
        "pair_00_10": qdyn.basis_superposition(0, 2),
        "basis_11": np.eye(4, dtype=complex)[3],
        "uniform": np.ones(4, dtype=complex) / 2.0,
        "random": random / np.linalg.norm(random),
        "tiny_amplitude": tiny / np.linalg.norm(tiny),
    }


@pytest.mark.parametrize("lam", [0.0, 1.3])
@pytest.mark.parametrize("with_h", [False, True], ids=["H_none", "H_swap"])
@pytest.mark.parametrize("state", sorted(_oracle_states()))
def test_sde_kernel_matches_complex_reference_bitwise(state, with_h, lam, monkeypatch):
    # every member is within 1e-12 of the row-by-row complex reference, and
    # bitwise the same in batches of 1, 2, 5 and _BATCH + 1.  11 steps are noise
    # chunks of 4, 4 and 3; samples at step 0, mid-chunk and the end.  H_none
    # passes the zero matrix, which keeps the run on split steps (without a
    # matrix the engine samples exactly)
    psi = _oracle_states()[state]
    h = qdyn.swap_hamiltonian() if with_h else np.zeros((4, 4))
    monkeypatch.setattr(qdyn, "_NOISE_CHUNK", 4)
    args = (psi, h, A_REF, lam, 2e-3, 0.022)
    kw = dict(seed=5, sample_times=[0.0, 0.012, 0.022], collapse_threshold=0.5)
    first = None
    for n in (qdyn._BATCH + 1, 5, 2, 1):
        records = qdyn.simulate_ensemble(*args, n_trajectories=n, **kw)
        for i in {0, n - 1}:
            want = _split_step_reference(psi, h, A_REF, lam, 2e-3, 11, [0, 6, 11], records[i].seed)
            assert np.allclose(records[i].states, want, rtol=0.0, atol=1e-12)
        head = np.stack([r.states for r in records[:5]])
        if first is None:
            first = head
        assert head.tobytes() == first[:n].tobytes()


def _exact_reference(psi0, a, lam, dt, n_steps, sample_steps, key, threshold):
    """One member of an ``H = None`` ensemble from the sampler's documented
    contract alone, in plain Python: ``(states at sample_steps, outcome)``.

    With ``w`` the words of ``Philox(key=key)`` and ``v(x) = (x >> 11) 2**-53``,
    the uniform ``v(w[0])`` picks ``j`` with Born weight ``|psi0_j|^2``.  Each
    later pair of words gives two normals by Box-Muller,
    ``r cos(theta)`` and ``r sin(theta)`` with ``r = sqrt(-2 log(1 - v(w[2i + 1])))``
    and ``theta = 2 pi v(w[2i + 2])``: one per positive step of the grid (the
    sample steps and the last), whose running sum, each scaled by the square
    root of its time since the one before, is ``W`` there.  At time ``t``,
    ``psi_k`` is proportional to ``psi0_k exp(D_k (sqrt(lam) W - lam t D_k))``
    with ``D_k = a_k - a_j``.  The outcome is the label whose population at
    the last step reaches ``threshold``, else None.
    """
    steps = sorted({s for s in sample_steps if s > 0} | {n_steps})
    pairs = (len(steps) + 1) // 2
    v = [(w >> 11) * 2.0**-53 for w in np.random.Philox(key=key).random_raw(1 + 2 * pairs).tolist()]
    normals = []
    for v1, v2 in zip(v[1::2], v[2::2]):
        r = math.sqrt(-2.0 * math.log(1.0 - v1))
        normals += [r * math.cos(2.0 * math.pi * v2), r * math.sin(2.0 * math.pi * v2)]
    born = list(itertools.accumulate(abs(c) ** 2 for c in psi0))
    j = next(m for m in range(4) if born[m] > v[0] * born[-1])
    w, previous, states = 0.0, 0, {0: [complex(c) for c in psi0]}
    for step, z in zip(steps, normals):
        w += z * math.sqrt((step - previous) * dt)
        previous, t = step, step * dt
        exponents = {k: (a[k] - a[j]) * (math.sqrt(lam) * w - lam * t * (a[k] - a[j]))
                     for k in range(4) if psi0[k] != 0}
        top = max(exponents.values())
        psi = [complex(psi0[k]) * math.exp(exponents[k] - top) if k in exponents else 0j
               for k in range(4)]
        norm = math.sqrt(sum(abs(c) ** 2 for c in psi))
        states[step] = [c / norm for c in psi]
    pops = [abs(c) ** 2 for c in states[n_steps]]
    winner = max(range(4), key=pops.__getitem__)
    return np.array([states[s] for s in sample_steps]), winner if pops[winner] >= threshold else None


def test_philox_words_are_numpy_raw_words_for_every_key():
    # the extreme words of both key halves, all rows of one batch at once, over
    # one to four blocks; the first word's uniform is numpy's random()
    keys = [0, 1, 2**64 - 1, 2**64 + 7, 2**128 - 1]
    for blocks in (1, 2, 3, 4):
        words = qdyn._philox_words(keys, blocks)
        assert words.dtype == np.uint64 and words.shape == (len(keys), 4 * blocks)
        for key, row in zip(keys, words):
            assert np.array_equal(row, np.random.Philox(key=key).random_raw(4 * blocks)), (key, blocks)
    u, z = qdyn._exact_draws(keys, 5)
    assert u.tolist() == [np.random.Generator(np.random.Philox(key=k)).random() for k in keys]
    assert z.shape == (len(keys), 5)


@pytest.mark.parametrize("state", sorted(_oracle_states()))
def test_exact_sampler_replays_its_contract_member_by_member(state):
    # every member of ensembles of 1, 2 and _BATCH + 1 against _exact_reference:
    # the outcome exactly, the states within 1e-12.  A Born pick biased by 1%
    # moves at least 0.5% of the members of a two-amplitude state
    psi = _oracle_states()[state]
    a, lam, dt, threshold = A_REF, 1.3, 2e-3, 0.75
    kw = dict(seed=5, sample_times=[0.0, 0.012, 0.022], collapse_threshold=threshold)
    outcomes = set()
    for n in (1, 2, qdyn._BATCH + 1):
        records = qdyn.simulate_ensemble(psi, None, a, lam, dt, 0.022, n_trajectories=n, **kw)
        for rec in records:
            want, outcome = _exact_reference(psi, a, lam, dt, 11, [0, 6, 11], rec.seed, threshold)
            assert np.allclose(rec.states, want, rtol=0.0, atol=1e-12), rec.seed
            assert rec.outcome == outcome, rec.seed
            outcomes.add(outcome)
    assert len(outcomes) > 1 or state in ("basis_11", "tiny_amplitude")


def _mean_and_se(values):
    """Mean over axis 0, and its standard error from the sample's own spread."""
    return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(len(values))


@pytest.mark.parametrize("state", ["pair_00_01", "uniform", "random"])
def test_exact_collapse_follows_born_weights(state):
    """Detects a shift of a Born weight of 7 binomial sigma (the 5-sigma band
    plus 2) in 98% of runs: 0.055 at weight 1/2, 0.048 at 1/4, plus the
    undecided share."""
    # every trajectory decides by t = 6 (the smallest gap, 2, leaves the others
    # about exp(-24) of the population), so each count is binomial(n, |psi0_k|^2):
    # within 5 sigma, plus the undecided trajectories
    psi = _oracle_states()[state]
    n = 4000
    records = qdyn.simulate_ensemble(psi, None, A_REF, 1.0, 1e-3, 6.0, n_trajectories=n, seed=11)
    outcomes = [r.outcome for r in records]
    undecided = outcomes.count(None)
    assert undecided <= n // 100
    for k, p in enumerate(qdyn.state_populations(psi)):
        assert abs(outcomes.count(k) - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p)) + undecided


def _normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _interval_below(f, level):
    """``(a, b)`` with ``f <= level`` on exactly [a, b] within [-40, 40], for a
    convex ``f``; ``None`` when that set is empty.  An end at -40 or 40 reads
    as -inf or inf: a standard normal puts under 1e-300 beyond 40."""
    lo, hi, iterations = -40.0, 40.0, 200
    left, right = lo, hi
    for _ in range(iterations):  # golden-section search for the minimum
        m1, m2 = left + 0.382 * (right - left), right - 0.382 * (right - left)
        left, right = (left, m2) if f(m1) <= f(m2) else (m1, right)
    x_min = 0.5 * (left + right)
    if f(x_min) > level:
        return None

    def crossing(inside, outside):  # bisection between a point below level and one above
        for _ in range(iterations):
            mid = 0.5 * (inside + outside)
            inside, outside = (mid, outside) if f(mid) <= level else (inside, mid)
        return inside

    a = -math.inf if f(lo) <= level else crossing(x_min, lo)
    b = math.inf if f(hi) <= level else crossing(x_min, hi)
    return a, b


def _outcome_law(psi0, a, lam, t, threshold):
    """Exact probability of each outcome label of an ``H = None`` run at time
    ``t``, ``None`` (undecided) included, in plain Python.

    Given the Born-drawn outcome ``j`` and ``xi = W_t / sqrt(t) ~ N(0, 1)``,
    the final populations are ``p_k ~ w_k exp(2 y_k (xi - y_k))`` with
    ``w = |psi0|^2`` and ``y_k = (a_k - a_j) sqrt(lam t)``.  ``log(1 / p_k)``
    is a log-sum-exp of affine functions of ``xi``, so convex, and
    ``p_k >= threshold`` holds on one interval of ``xi``; the label's
    probability is the Born-weighted sum of its normal mass.  A threshold
    above 1/2 lets at most one label hold it.
    """
    assert threshold > 0.5
    w = [abs(complex(c)) ** 2 for c in psi0]
    support = [m for m in range(4) if w[m] > 0.0]
    law = dict.fromkeys([*range(4), None], 0.0)
    for j in support:
        y = {m: (a[m] - a[j]) * math.sqrt(lam * t) for m in support}
        decided = 0.0
        for k in support:
            def log_inverse_population(xi, k=k):
                e = [math.log(w[m] / w[k]) + 2.0 * (y[m] * (xi - y[m]) - y[k] * (xi - y[k]))
                     for m in support]
                top = max(e)
                return top + math.log(sum(math.exp(v - top) for v in e))

            ends = _interval_below(log_inverse_population, -math.log(threshold))
            if ends is not None:
                mass = _normal_cdf(ends[1]) - _normal_cdf(ends[0])
                law[k] += w[j] * mass
                decided += mass
        law[None] += w[j] * (1.0 - decided)
    return law


@pytest.mark.parametrize(
    "state, a, lam, t, threshold",
    [
        # the two middle eigenvalues cannot reach 0.99 by t = 0.3: probability exactly 0
        ("uniform", (0.0, 2.0, 6.0, 4.0), 1.0, 0.3, 0.99),
        ("uniform", (0.0, 2.0, 6.0, 4.0), 1.0, 1.0, 0.9),
        ("pair_00_01", A_REF, 1.0, 0.5, 0.99),
        ("pair_00_10", (0.0, 2.0, 6.0, 4.0), 1.0, 0.05, 0.75),
        ("random", A_REF, 1.3, 0.2, 0.6),
    ],
)
def test_exact_outcome_counts_follow_their_law(state, a, lam, t, threshold):
    """Detects a shift of a label's probability of 7 binomial sigma (the
    5-sigma band plus 2) in 98% of runs, at most 0.055; a label of probability
    0 fails on one count, so a shift of 0.001 from 0 fails 98% of runs."""
    # each label's count is binomial(n, p) with p from _outcome_law: within
    # 5 sigma, and exactly 0 where p is 0
    psi = _oracle_states()[state]
    n = 4000
    records = qdyn.simulate_ensemble(
        psi, None, a, lam, 1e-3, t, n_trajectories=n, seed=23, collapse_threshold=threshold
    )
    outcomes = [r.outcome for r in records]
    law = _outcome_law(psi, a, lam, t, threshold)
    assert math.isclose(sum(law.values()), 1.0, abs_tol=1e-12)
    if state == "uniform" and t == 0.3:
        assert law[1] == law[3] == 0.0 < min(law[0], law[2], law[None])
    for label, p in law.items():
        assert abs(outcomes.count(label) - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p)), label


@pytest.mark.parametrize("state", ["uniform", "random"])
def test_exact_ensemble_average_matches_lindblad_within_5_standard_errors(state):
    """Detects a shift of one entry of the mean projector of 7 standard errors
    (the 5-error band plus 2) in 98% of runs: at most 0.025, as an entry's
    standard deviation is at most 1/2."""
    # entrywise, real and imaginary parts, at three times; the standard error of
    # each entry is the sample standard deviation of psi_i psi_k^* over sqrt(n),
    # and RK4 at dt = 1e-4 is within 1e-13 of the exact state
    psi = _oracle_states()[state]
    times = [0.1, 0.3, 1.0]
    n = 20_000
    records = qdyn.simulate_ensemble(
        psi, None, A_REF, 1.0, 1e-3, 1.0, n_trajectories=n, seed=5, sample_times=times
    )
    _, exact = qdyn.lindblad_path(_projector(psi), None, A_REF, 1.0, 1e-4, times)
    for idx, rho in enumerate(exact):
        finals = np.stack([r.states[idx] for r in records])
        projectors = np.einsum("ni,nj->nij", finals, finals.conj())
        for part in (np.real, np.imag):
            mean, se = _mean_and_se(part(projectors))
            assert np.all(np.abs(mean - part(rho)) <= 5.0 * se + 1e-12)
        assert np.allclose(qdyn.ensemble_average(records, at=times[idx]), np.mean(projectors, axis=0))


def test_exact_member_replays_bitwise_across_batches_and_sizes(monkeypatch):
    # member _BATCH runs alone in the second batch; with batches of 2 every
    # member sits elsewhere in its batch, and an ensemble of 3 holds the first 3
    psi = _oracle_states()["random"]
    args = (psi, None, A_REF, 1.3, 1e-3, 0.1)
    kw = dict(sample_times=[0.0, 0.004, 0.05, 0.1], collapse_threshold=0.5)
    n = qdyn._BATCH + 1
    records = qdyn.simulate_ensemble(*args, n_trajectories=n, seed=42, **kw)
    assert any(r.outcome is not None for r in records)
    for i in (0, 1, 2, qdyn._BATCH - 1, qdyn._BATCH):
        solo = qdyn.sde_trajectory(*args, seed=qdyn.derive_trajectory_seed(42, i), **kw)
        assert records[i].seed == solo.seed
        assert records[i].states.tobytes() == solo.states.tobytes()
        assert records[i].outcome == solo.outcome
    few = qdyn.simulate_ensemble(*args, n_trajectories=3, seed=42, **kw)
    assert all(f.states.tobytes() == r.states.tobytes() for f, r in zip(few, records))
    monkeypatch.setattr(qdyn, "_BATCH", 2)
    pairs = qdyn.simulate_ensemble(*args, n_trajectories=n, seed=42, **kw)
    assert all(p.states.tobytes() == r.states.tobytes() for p, r in zip(pairs, records))
    assert [p.outcome for p in pairs] == [r.outcome for r in records]


def test_exact_fixed_points_zero_amplitudes_and_phases():
    sample_times = np.linspace(0.0, 0.5, 11)
    # without collapse every sample is psi0 up to the normalisation's rounding
    psi = _oracle_states()["random"]
    for rec in qdyn.simulate_ensemble(psi, None, A_REF, 0.0, 1e-3, 0.5, n_trajectories=5,
                                      sample_times=sample_times):
        assert rec.states[0].tobytes() == psi.tobytes()
        assert np.allclose(rec.states, psi, rtol=0.0, atol=1e-15)
    # a basis state is an eigenstate of A: it stays put exactly
    for k in range(4):
        basis = np.eye(4, dtype=complex)[k]
        for rec in qdyn.simulate_ensemble(basis, None, A_REF, 1.0, 1e-3, 0.5, n_trajectories=5,
                                          sample_times=sample_times):
            assert np.array_equal(rec.states, np.tile(basis, (11, 1)))
            assert rec.outcome == k
    # amplitudes zero at the start stay exactly zero; the others keep their phases
    psi = np.array([0.6 * np.exp(0.4j), 0.0, 0.8 * np.exp(-2.1j), 0.0])
    for rec in qdyn.simulate_ensemble(psi, None, A_REF, 1.3, 1e-3, 0.5, n_trajectories=50,
                                      sample_times=sample_times):
        assert not rec.states[:, [1, 3]].any()
        for k in (0, 2):
            ratio = rec.states[:, k] / psi[k]
            assert np.all(ratio.real >= 0.0)
            assert np.all(np.abs(ratio.imag) <= 1e-15 * np.abs(ratio))


@pytest.mark.parametrize(
    "a, lam, dt, t",
    [
        ((0.0, 1e300, 0.0, 0.0), 1.0, 1e-3, 1.0),
        ((0.0, 1e300, 0.0, 0.0), 1e308, 1e-3, 1e6),  # MAX_SDE_STEPS steps
        ((1e300, 0.0, 5e299, 1e300), 1e308, 1e299, 1e308),  # sqrt(lam) W_t overflows
        (A_REF, 1e308, 1e-3, 0.01),
        (A_REF, 5e-324, 1e-3, 0.01),
        ((7.0, 7.0, 7.0, 7.0), 1e308, 1e299, 1e308),
    ],
)
def test_exact_collapse_of_extreme_inputs_is_finite_and_normalised(a, lam, dt, t):
    psi = _oracle_states()["uniform"]
    assert qdyn.step_count(t, dt) <= qdyn.MAX_SDE_STEPS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = qdyn.simulate_ensemble(
            psi, None, a, lam, dt, t, n_trajectories=20, seed=3, sample_times=[0.0, dt, t / 2, t]
        )
    states = np.stack([r.states for r in records])
    assert np.isfinite(states).all()
    assert np.allclose(np.linalg.norm(states, axis=2), 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "state, a, lam, dt, t, scale",
    [
        ("uniform", (0.0, 1e150, 0.0, 0.0), 1.0, 1e-3, 1.0, 1.0),  # lam dt gap^2 = 1e297
        ("uniform", (0.0, 1e300, 0.0, 0.0), 1e-300, 1e-3, 1.0, 1.0),
        ("uniform", (0.0, 1e300, 0.0, 0.0), 0.0, 1e-3, 1.0, 1e300),
        ("uniform", A_REF, 1e308, 1e-3, 0.01, 1.0),
        ("uniform", A_REF, 5e-324, 1e-3, 0.01, 1.0),
        ("uniform", (7.0, 7.0, 7.0, 7.0), 1e308, 1.0, 10.0, 1.0),
        ("uniform", A_REF, 1.0, 1.0, 10.0, 1.0),
        ("uniform", A_REF, 1.0, 1e-3, 0.01, 1e300),
        ("random", A_REF, 1e308, 1e-3, 0.01, 1e300),
        # the swap never populates |11>, whose exponent is then far the largest
        ("pair_00_01", (0.0, 2e140, 0.0, 1e140), 1.0, 1e-3, 1.0, 1.0),
    ],
)
def test_split_step_of_extreme_inputs_is_finite_and_normalised(state, a, lam, dt, t, scale):
    psi = _oracle_states()[state]
    h = scale * qdyn.swap_hamiltonian()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = qdyn.simulate_ensemble(
            psi, h, a, lam, dt, t, n_trajectories=20, seed=3, sample_times=[0.0, dt, t / 2, t]
        )
    assert _finite_and_normalised(records)
    if state == "pair_00_01":
        assert not any(r.states[:, 3].any() for r in records)


@pytest.mark.parametrize(
    "a, lam, dt, scale, message",
    [
        ((0.0, 1e300, 0.0, 0.0), 1.0, 1e-3, 1.0, "collapse exponents overflow"),
        (A_REF, 1e308, 1.0, 1.0, "collapse exponents overflow"),
        (A_REF, 1.0, 1e10, 1e300, r"dt\*\|H\| overflow"),
    ],
)
def test_split_step_refuses_overflowing_exponents_before_any_noise(
    a, lam, dt, scale, message, monkeypatch
):
    def no_noise(*args, **kwargs):
        raise AssertionError("noise was drawn for a refused run")

    monkeypatch.setattr(np.random, "Philox", no_noise)
    psi = _oracle_states()["uniform"]
    h = scale * qdyn.swap_hamiltonian()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooLarge, match=message):
            qdyn.sde_trajectory(psi, h, a, lam, dt, dt, seed=1)
        with pytest.raises(StepTooLarge, match=message):
            qdyn.simulate_ensemble(psi, h, a, lam, dt, dt, n_trajectories=3)


@pytest.mark.parametrize("state", ["pair_00_01", "uniform", "random"])
def test_split_step_without_collapse_is_the_exact_unitary(state):
    # with lam = 0 each step is U = exp(-iH dt) alone, so every sample is
    # exp(-iHt) psi0 up to round-off, however coarse the step
    psi = _oracle_states()[state]
    rng = np.random.default_rng(8)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sample_times = np.linspace(0.0, 1.0, 11)
    for h in (qdyn.swap_hamiltonian(), m + m.conj().T):
        w, v = np.linalg.eigh(h)
        exact = [v @ (np.exp(-1j * w * t) * (v.conj().T @ psi)) for t in sample_times]
        for dt in (1e-3, 0.1):
            rec = qdyn.sde_trajectory(psi, h, A_REF, 0.0, dt, 1.0, seed=2, sample_times=sample_times)
            assert np.allclose(rec.states, exact, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("state", ["uniform", "pair_00_01"])
@pytest.mark.parametrize("dt", [1e-2, 1e-3])
def test_split_step_ensemble_converges_weakly_to_lindblad(state, dt):
    """Detects a shift of one entry of the mean projector of 7 standard errors
    plus c dt in 98% of runs: at most 0.081 at dt = 1e-2 and 0.040 at 1e-3."""
    # the split step is weak order 1: entrywise, real and imaginary parts, the
    # ensemble average at t = 1 is within 5 standard errors of the exact state
    # plus c dt, with c = 0.1 (lam (max gap)^2 + |H|^2) t, about 4.6 here
    psi = _oracle_states()[state]
    h = qdyn.swap_hamiltonian()
    lam, t, n = 1.0, 1.0, 10_000
    c = 0.1 * (lam * (max(A_REF) - min(A_REF)) ** 2 + math.pi**2) * t
    records = qdyn.simulate_ensemble(psi, h, A_REF, lam, dt, t, n_trajectories=n, seed=21)
    _, (exact,) = qdyn.lindblad_path(_projector(psi), h, A_REF, lam, 1e-4, [t])
    finals = np.stack([r.final_state for r in records])
    projectors = np.einsum("ni,nj->nij", finals, finals.conj())
    for part in (np.real, np.imag):
        mean, se = _mean_and_se(part(projectors))
        assert np.all(np.abs(mean - part(exact)) <= 5.0 * se + c * dt + 1e-12)


def test_split_step_with_zero_hamiltonian_agrees_with_exact_sampling():
    # a zero matrix runs split steps, which are weak order 1: allow a bias of
    # lam (max gap)^2 dt t on each entry of the mean projector, plus 5 standard
    # errors of the difference of two independent means
    psi = _oracle_states()["uniform"]
    lam, dt, t, n = 1.0, 1e-4, 0.3, 2000
    bias = lam * (max(A_REF) - min(A_REF)) ** 2 * dt * t
    runs = []
    for h in (None, np.zeros((4, 4))):
        records = qdyn.simulate_ensemble(psi, h, A_REF, lam, dt, t, n_trajectories=n, seed=9)
        finals = np.stack([r.final_state for r in records])
        runs.append(np.einsum("ni,nj->nij", finals, finals.conj()))
    for part in (np.real, np.imag):
        (exact, exact_se), (split, split_se) = (_mean_and_se(part(p)) for p in runs)
        band = 5.0 * np.sqrt(exact_se**2 + split_se**2) + bias + 1e-12
        assert np.all(np.abs(exact - split) <= band)


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


def _ensemble_average_reference(records, at):
    """Reference average: one ``np.stack`` of the states nearest ``at``, then the einsum."""
    idx = int(np.argmin(np.abs(records[0].times - at)))
    stacked = np.stack([r.states[idx] for r in records])
    return np.einsum("ni,nj->ij", stacked, stacked.conj()) / len(records)


def test_ensemble_average_equals_the_stacked_einsum_bitwise():
    # three batches of one run, sampled at four times, and records mixed from two runs
    psi = np.ones(4, dtype=complex) / 2.0
    sample_times = [0.0, 0.005, 0.013, 0.02]
    run = [
        qdyn.simulate_ensemble(
            psi, None, A_REF, 1.0, 1e-3, 0.02, n_trajectories=n, seed=seed, sample_times=sample_times
        )
        for n, seed in ((2 * qdyn._BATCH + 500, 1), (300, 2))
    ]
    mixed = [r for pair in zip(run[1], run[0]) for r in pair] + run[0][-7:]
    for records in (run[0], mixed, run[1][:1]):
        for at in sample_times:
            got = qdyn.ensemble_average(iter(records), at=at)
            assert got.tobytes() == _ensemble_average_reference(records, at).tobytes()
    odd = dataclasses.replace(run[1][0], dt=2e-3)
    for where in (0, 150, 300):
        records = run[1][:where] + [odd] + run[1][where:]
        with pytest.raises(GridMismatch, match="do not share"):
            qdyn.ensemble_average(records, at=0.02)


def test_member_keys_are_the_derived_keys():
    top = 2**64 - 1
    for seed in (0, 5, top, np.uint64(top)):
        for n in (1, 2, 1001):
            keys = list(qdyn._member_keys(seed, n))
            assert keys == [qdyn.derive_trajectory_seed(seed, i) for i in range(n)]
            assert all(type(k) is int for k in keys)
    # the last index a seed has; the keys are derived as they are drawn
    first = list(itertools.islice(qdyn._member_keys(3, 2**64), 3))
    assert first == [3, 3 + 2**64, 3 + 2**65]
    keys = qdyn._member_keys(2**64, 3)  # refused when first drawn
    with pytest.raises(ValueError, match="seed"):
        next(keys)


@pytest.mark.parametrize("count", [1.5, 2.0, np.float64(2), "3", None, 0, -1, 2**64 + 1, 2**70])
def test_ensemble_count_is_a_positive_integer_up_to_the_member_indices(count, monkeypatch):
    def no_seeds(master, index):
        raise AssertionError("a seed was derived for a refused count")

    def no_batches(*args):
        raise AssertionError("a batch was integrated for a refused count")

    monkeypatch.setattr(qdyn, "derive_trajectory_seed", no_seeds)
    monkeypatch.setattr(qdyn, "_evolve_sde_batch", no_batches)
    monkeypatch.setattr(qdyn, "_collapse_exactly", no_batches)
    psi = qdyn.basis_superposition(0, 1)
    with pytest.raises(ValueError, match=rf"n_trajectories {re.escape(repr(count))}"):
        qdyn.simulate_ensemble(psi, None, A_REF, 1.0, 1e-3, 0.01, n_trajectories=count)


def test_trajectory_seeds_do_not_depend_on_count():
    assert qdyn.derive_trajectory_seed(0, 5) == qdyn.derive_trajectory_seed(0, 5)
    assert qdyn.derive_trajectory_seed(0, 5) != qdyn.derive_trajectory_seed(0, 6)
    assert qdyn.derive_trajectory_seed(1, 5) != qdyn.derive_trajectory_seed(0, 5)


def test_born_statistics_smoke():
    """Detects a shift of the |00> probability of 0.15 in 98% of runs: the 0.1 band plus 2 sigma."""
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
    """Detects a shift of the |01> probability of 0.12 in 98% of runs: the 4-sigma band, 0.082, plus 2 sigma."""
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
    with pytest.raises(ValueError, match="need at least one trajectory"):
        qdyn.ensemble_average([], at=0.0)


def test_ensemble_average_takes_the_nearest_sample():
    # at dt = 1e-10 every sample from t = 1e-9 on lies within 1e-9 of the last one
    dt = 1e-10
    psi = qdyn.basis_superposition(0, 1)
    rec = qdyn.sde_trajectory(psi, None, A_REF, 1e8, dt, 20 * dt, seed=3, sample_times=np.arange(21) * dt)
    assert len(rec.times) == 21
    last = _projector(rec.states[20])
    assert np.allclose(qdyn.ensemble_average([rec], at=20 * dt), last, rtol=0.0, atol=1e-15)
    assert np.max(np.abs(_projector(rec.states[10]) - last)) > 0.1
    with pytest.raises(GridMismatch):
        qdyn.ensemble_average([rec], at=20 * dt + 1.1e-9)


def test_ensemble_average_matches_lindblad_smoke():
    """Detects a shift of a population of 0.10, or of a coherence of 0.073, in
    98% of runs: the 0.06 band plus 2 sigma of that entry's mean (0.018 and
    0.0063 at n = 600)."""
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
    with pytest.raises(ValueError, match="exactly 4 amplitudes"):
        qdyn.validate_pure_state([1.0, 0.0, 0.0])


def test_pure_state_norm_is_held_to_1e_10():
    # |psi| - 1 is 1e-8: far past 1e-10, inside 1e-7
    with pytest.raises(ValueError, match="not normalized"):
        qdyn.validate_pure_state([1.0 + 1e-8, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_validate_pure_state_refuses_non_finite_amplitudes(bad):
    psi = np.array([1.0, 0.0, 0.0, bad])
    with pytest.raises(ValueError, match="amplitude 3 is not finite"):
        qdyn.validate_pure_state(psi)
    with pytest.raises(ValueError, match="amplitude 3 is not finite"):
        qdyn.sde_trajectory(psi, None, A_REF, 1.0, 1e-3, 0.1, seed=1)


@pytest.mark.parametrize(
    "rho",
    [np.diag([math.nan, 1.0, 0.0, 0.0]), np.full((4, 4), math.nan), np.diag([math.inf, 1.0, 0.0, 0.0])],
    ids=["nan_population", "all_nan", "inf_population"],
)
def test_validate_density_matrix_refuses_non_finite_entries(rho):
    # named before the eigensolver, which fails on them with a LinAlgError
    with pytest.raises(ValueError, match="density matrix has a non-finite entry"):
        qdyn.validate_density_matrix(rho)
    with pytest.raises(ValueError, match="density matrix has a non-finite entry"):
        qdyn.lindblad_evolve(rho, None, A_REF, 1.0, 0.1, 1e-3)


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
