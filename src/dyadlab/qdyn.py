"""Collapse dynamics of the quantum dyad.

Two complementary pictures of the same process:

* Ensemble picture.  The density matrix follows
  ``d(rho)/dt = -i[H, rho] - (lam/2) [A, [A, rho]]``
  for a diagonal collapse operator ``A`` with eigenvalues ``a_i``.  In the
  eigenbasis the double commutator acts entrywise,
  ``[A, [A, rho]]_ik = rho_ik (a_i - a_k)^2``, so with ``H = 0`` every
  off-diagonal element decays exponentially at rate
  ``(lam/2) (a_i - a_k)^2`` while populations stay put.  Integration is
  fixed-step classical Runge-Kutta (RK4).  The equation is linear, so one
  RK4 step is a fixed 16x16 matrix, built once per run and raised to the
  number of steps between samples.  A step outside RK4's stability region
  is refused before integrating, with :class:`StepTooLarge`.

* Trajectory picture.  A pure state follows the stochastic equation
  ``d(psi) = [-iH dt + sqrt(lam) (A - <A>) dW - (lam/2) (A - <A>)^2 dt] psi``
  with a standard Wiener increment ``dW ~ Normal(0, dt)``, integrated by
  Euler-Maruyama with renormalization after every step.  A step with
  ``(lam/2) dt (max a - min a)^2 >= 1`` is refused before any noise is drawn,
  with :class:`StepTooLarge`.  Averaging the projectors of many trajectories
  reproduces the ensemble picture.

Randomness is counter-based: a single master seed splits into independent
per-trajectory streams.  Member ``i`` of an ensemble draws its normals from
the Philox stream keyed by ``SeedSequence(entropy=master, spawn_key=(i,))``,
a hash that :func:`derive_trajectory_seed` evaluates over a whole batch of
indices at once.  Single runs and ensembles share one engine: it integrates
up to ``_BATCH`` trajectories together, re-keys one Philox generator per
trajectory instead of building one, and draws the noise ``_NOISE_CHUNK``
steps at a time, so noise memory is ``_BATCH x _NOISE_CHUNK`` floats however
long the run.  Its arithmetic does not depend on the batch or the chunking,
so trajectory ``i`` is reproducible bitwise regardless of how many
trajectories are run.  An SDE run of more than ``MAX_SDE_STEPS`` steps is
refused with ValueError.  Ensemble averaging is an order-independent
reduction over immutable records.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, StepTooLarge
from .model import Tpm2
from .model import swap as _swap_rule
from .optimizer import EigenAssignment

DIM = 4
COHERENCE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Trajectories integrated together, and steps of noise drawn per trajectory at
# a time: the noise block holds _BATCH x _NOISE_CHUNK floats (8 MB).
_BATCH = 1000
_NOISE_CHUNK = 1024
# Steps per SDE trajectory; one trajectory of this many takes hours.
MAX_SDE_STEPS = 10**9

_STATE_ATOL = 1e-10
_PSD_ATOL = 1e-8
_GUARD_ATOL = 1e-6
# R(0) = 1 exactly on the conserved modes, so a stable RK4 step has spectral
# radius at most 1 up to the eigenvalue solver's round-off.
_STABILITY_ATOL = 1e-10


def validate_pure_state(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (DIM,):
        raise ValueError(f"pure state must have {DIM} amplitudes, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > _STATE_ATOL:
        raise ValueError(f"pure state norm is {norm!r}, not 1")
    return psi


def validate_density_matrix(rho, dim: int = DIM) -> np.ndarray:
    """``rho`` as a complex ``dim`` x ``dim`` density matrix, or ValueError."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix must be {dim}x{dim}, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > _STATE_ATOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > _STATE_ATOL:
        raise ValueError("density matrix trace is not 1 within tolerance")
    if np.min(np.linalg.eigvalsh(rho)) < -_PSD_ATOL:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return rho


def build_collapse_operator(assignment) -> np.ndarray:
    """Diagonal of the collapse operator, in canonical state order."""
    if isinstance(assignment, EigenAssignment):
        values = assignment.as_array()
    else:
        values = np.asarray(assignment, dtype=float)
    if values.shape != (DIM,):
        raise ValueError("a collapse operator needs exactly 4 eigenvalues")
    if not np.all(np.isfinite(values)):
        raise ValueError("eigenvalues must be finite")
    if np.any(values < 0):
        raise ValueError("eigenvalues must be non-negative")
    return values.astype(float)


def coherence_decay_rate(a, lam: float, i: int, k: int) -> float:
    """Analytic damping exponent of rho_ik with H = 0: (lam/2)(a_i - a_k)^2."""
    a = np.asarray(a, dtype=float)
    if i == k:
        raise ValueError("decay rate is defined for distinct indices only")
    return 0.5 * lam * float(a[i] - a[k]) ** 2


def prepare_dyad_superposition() -> np.ndarray:
    """(|00> + |10>)/sqrt(2): channel A in the balanced state, B in 0."""
    return np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def basis_superposition(i: int, k: int) -> np.ndarray:
    """Equal-weight superposition of two computational basis states."""
    if i == k or not (0 <= i < DIM and 0 <= k < DIM):
        raise ValueError("need two distinct basis indices in 0..3")
    psi = np.zeros(DIM, dtype=complex)
    psi[i] = psi[k] = 1.0 / math.sqrt(2.0)
    return psi


def permutation_unitary(tpm: Tpm2) -> np.ndarray:
    """Unitary ``|s> -> |tpm(s)>`` of a bijective rule on the computational basis."""
    if not tpm.is_bijective:
        raise ValueError("only bijective rules define a permutation unitary")
    u = np.zeros((DIM, DIM), dtype=complex)
    for idx in range(DIM):
        u[tpm.outputs[idx], idx] = 1.0
    return u


def swap_hamiltonian() -> np.ndarray:
    """Hermitian generator whose unit-time evolution is exactly the swap gate."""
    return 0.5 * math.pi * (np.eye(DIM) - permutation_unitary(_swap_rule()).real)


def state_populations(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return (psi.real**2 + psi.imag**2).astype(float)


def coherence_magnitudes(rho) -> dict:
    """|rho_ik| for the six upper-triangle index pairs, keyed 'ik'."""
    rho = np.asarray(rho, dtype=complex)
    return {f"{i}{k}": float(abs(rho[i, k])) for i, k in COHERENCE_PAIRS}


def trace_distance(rho, sigma) -> float:
    """Half the sum of singular values of rho - sigma."""
    delta = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))


def _check_guard(rho, where: str):
    trace_drift = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
    herm_drift = float(np.max(np.abs(rho - rho.conj().T)))
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if trace_drift > _GUARD_ATOL or herm_drift > _GUARD_ATOL or min_eig < -_GUARD_ATOL:
        raise StepTooLarge(
            f"state invariants drifted at {where} "
            f"(trace {trace_drift:.2e}, hermiticity {herm_drift:.2e}, "
            f"min eigenvalue {min_eig:.2e}); reduce dt"
        )


def _check_rate(lam: float) -> None:
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be finite and non-negative")


def _check_hamiltonian(h) -> np.ndarray | None:
    """``h`` as a complex Hermitian 4x4 matrix; None stands for no Hamiltonian."""
    if h is None:
        return None
    h = np.asarray(h, dtype=complex)
    if h.shape != (DIM, DIM) or np.max(np.abs(h - h.conj().T)) > 1e-10:
        raise ValueError("Hamiltonian must be a Hermitian 4x4 matrix")
    return h


def _time_grid(
    t: float, dt: float, sample_times, max_steps: int | None = None
) -> tuple[int, list[int], np.ndarray]:
    t, dt = float(t), float(dt)  # Python floats overflow t / dt to inf without a warning
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("duration must be finite and non-negative")
    if not math.isfinite(t / dt):
        raise ValueError(f"duration {t!r} is too many steps of dt={dt!r}")
    n_steps = int(round(t / dt))
    if max_steps is not None and n_steps > max_steps:  # before snapping any sample time
        raise ValueError(
            f"duration {t!r} is {n_steps:.3g} steps of dt={dt!r}, more than the "
            f"{max_steps:.0e} allowed"
        )
    if sample_times is None:
        sample_times = [0.0, t] if n_steps > 0 else [0.0]
    # np.rint rounds half to even, as round() does
    with np.errstate(over="ignore"):  # a time far past t clips to the last step
        snapped = np.rint(np.asarray(sample_times, dtype=float) / dt)
    snapped = np.unique(np.clip(snapped, 0, n_steps))
    if not np.all(np.isfinite(snapped)):
        raise ValueError("sample times must be finite")
    steps = [int(s) for s in snapped.tolist()]
    return n_steps, steps, snapped * dt


def _superoperator(x: np.ndarray) -> np.ndarray:
    """Matrix of rho -> [x, rho] acting on the row-major ``rho.reshape(16)``."""
    eye = np.eye(DIM)
    return np.kron(x, eye) - np.kron(eye, x.T)


def _rk4_step_increment(h: np.ndarray, a: np.ndarray, lam: float, dt: float) -> np.ndarray:
    """``S = T - I`` for the RK4 step ``T = sum_{k<=4} (dt L)^k / k!``.

    ``L`` is the generator of the master equation on the row-major
    ``rho.reshape(16)``.  Raises ``StepTooLarge`` when the spectral radius of
    ``T`` exceeds 1 by more than round-off: repeated steps would then amplify
    some mode of rho.
    """
    ad_a = _superoperator(np.diag(a))
    eye = np.eye(DIM * DIM)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as radius inf
        m = dt * (-0.5 * lam * (ad_a @ ad_a) - 1j * _superoperator(h))
        inc = m @ (eye + m @ (eye + m @ (eye + m / 4.0) / 3.0) / 2.0)
    radius = np.inf
    if np.all(np.isfinite(inc)):
        radius = float(np.max(np.abs(1.0 + np.linalg.eigvals(inc))))
    if radius > 1.0 + _STABILITY_ATOL:
        raise StepTooLarge(
            f"RK4 step dt={dt:g} has spectral radius {radius:.6g} > 1, outside the "
            "stability region for these eigenvalue gaps; reduce dt"
        )
    return inc


def _increment_power(inc: np.ndarray, n: int) -> np.ndarray:
    """``S_n`` with ``(I + S)^n = I + S_n``, by binary powering.

    ``np.linalg.matrix_power(I + S, n)`` would round S against the identity
    and repeat that error n times (about 1e-12 after 1e5 steps); carrying
    ``S`` keeps the result to round-off.
    """
    out = np.zeros_like(inc)
    while n:
        if n & 1:
            out = out + inc + out @ inc
        n >>= 1
        if n:
            inc = 2.0 * inc + inc @ inc
    return out


def lindblad_path(rho0, h, a, lam: float, dt: float, sample_times) -> tuple[np.ndarray, list]:
    """Integrate the master equation, returning states at the sample times.

    RK4 is applied as one precomputed 16x16 step matrix, raised to the number
    of steps between consecutive samples (one power per distinct gap).
    Sample times snap to the nearest step of the fixed grid.  Raises
    ``StepTooLarge`` before integrating when the step lies outside RK4's
    stability region (|dt lambda| <= ~2.785 on the negative real axis), and
    at a sample when trace, Hermiticity, or positivity drift past 1e-6.
    """
    rho = validate_density_matrix(rho0)
    a = build_collapse_operator(a)
    _check_rate(lam)
    h = _check_hamiltonian(h)
    if h is None:
        h = np.zeros((DIM, DIM), dtype=complex)
    _, steps, times = _time_grid(max(sample_times), dt, sample_times)
    inc = _rk4_step_increment(h, a, lam, dt)
    powers = {}
    vec = rho.reshape(DIM * DIM)
    out = []
    done = 0
    for target in steps:
        gap = target - done
        if gap:
            if gap not in powers:
                powers[gap] = _increment_power(inc, gap)
            vec = vec + powers[gap] @ vec
            _check_guard(vec.reshape(DIM, DIM), where=f"t={target * dt:g}")
        out.append(vec.reshape(DIM, DIM).copy())
        done = target
    return times, out


def lindblad_evolve(rho0, h, a, lam: float, t: float, dt: float) -> np.ndarray:
    """State of the ensemble after time ``t``; see :func:`lindblad_path`."""
    times, states = lindblad_path(rho0, h, a, lam, dt, [t])
    return states[-1]


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One stochastic trajectory: sampled states plus its collapse outcome.

    ``outcome`` is the basis-state index holding at least the threshold
    population at the end of the run, or None if no state dominates yet.
    """

    seed: int
    times: np.ndarray
    states: np.ndarray
    outcome: int | None
    eigenvalues: tuple
    lam: float
    dt: float
    hamiltonian: np.ndarray | None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# numpy's SeedSequence (pool of four 32-bit words) as integer arithmetic, so
# that one hash serves a Python int index and a uint64 index array alike.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """(xor, multiplier) pairs of ``n`` successive hash calls; they depend on no data."""
    out = []
    for _ in range(n):
        nxt = (init * mult) & _MASK32
        out.append((init, nxt))
        init = nxt
    return out


_OUTPUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2)


def _hashmix(value, xor: int, mult: int):
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> 16)


def _mix_into(pool: list, word, consts, skip: int = -1) -> None:
    """Mix the hash of ``word`` into every pool entry but ``skip``."""
    for dst in range(_POOL_SIZE):
        if dst != skip:
            v = _hashmix(word, *next(consts))
            r = (((_MIX_MULT_L * pool[dst]) & _MASK32) - ((_MIX_MULT_R * v) & _MASK32)) & _MASK32
            pool[dst] = r ^ (r >> 16)


@functools.lru_cache(maxsize=64)
def _entropy_pool(master: int) -> tuple[tuple[int, ...], tuple]:
    """Pool once the run entropy ``master`` is mixed in, and the hash constants
    of the two spawn-key words that may follow."""
    words = []
    while True:
        words.append(master & _MASK32)
        master >>= 32
        if not master:
            break
    words += [0] * (_POOL_SIZE - len(words))  # zero-padded because a spawn key follows
    n_calls = _POOL_SIZE * len(words)  # 4 words, 12 pairs, then 4 per word past the pool
    consts = _hash_constants(_INIT_A, _MULT_A, n_calls + 2 * _POOL_SIZE)
    it = iter(consts)
    pool = [_hashmix(w, *next(it)) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        _mix_into(pool, pool[src], it, skip=src)
    for w in words[_POOL_SIZE:]:
        _mix_into(pool, w, it)
    return tuple(pool), tuple(consts[n_calls:])


def _seed_hash(master: int, index):
    """``SeedSequence(master, spawn_key=(index,)).generate_state(1, uint64)[0]``.

    ``index`` is a Python int or a uint64 array; every product and difference
    is masked to 32 bits, so both take the same arithmetic.
    """
    base, spawn = _entropy_pool(master)
    pool = list(base)
    _mix_into(pool, index & _MASK32, iter(spawn[:_POOL_SIZE]))
    high = index >> 32  # a spawn-key index of 2**32 or more takes a second word
    if isinstance(index, np.ndarray):
        wide = high != 0
        if wide.any():
            pool2 = list(pool)
            _mix_into(pool2, high, iter(spawn[_POOL_SIZE:]))
            pool = [np.where(wide, p2, p) for p, p2 in zip(pool, pool2)]
    elif high:
        _mix_into(pool, high, iter(spawn[_POOL_SIZE:]))
    lo, hi = (_hashmix(w, *c) for w, c in zip(pool, _OUTPUT_CONSTANTS))
    return lo | (hi << 32)


def derive_trajectory_seed(master_seed: int, index):
    """Per-trajectory stream key for ensemble member ``index``.

    Equals ``SeedSequence(entropy=master_seed, spawn_key=(index,))``'s first
    uint64.  ``index`` may be an int or an integer array (one key per entry,
    as a uint64 array).  Feeding a returned key to :func:`sde_trajectory`
    reproduces the member exactly, independent of batching or total
    trajectory count.  Raises ValueError for a negative seed or index, or an
    int index of 2**64 or more, which no uint64 array can hold.
    """
    master = operator.index(master_seed)
    if master < 0:
        raise ValueError("master seed must be a non-negative integer")
    if isinstance(index, np.ndarray):
        if index.dtype.kind not in "iu":
            raise TypeError("trajectory indices must be integers")
        if index.dtype.kind == "i" and np.any(index < 0):
            raise ValueError("trajectory index must be a non-negative integer")
        return _seed_hash(master, index.astype(np.uint64, copy=False))
    index = operator.index(index)
    if not 0 <= index < 1 << 64:  # the hash takes an index of at most two 32-bit words
        raise ValueError(f"trajectory index {index} is not in [0, 2**64)")
    return _seed_hash(master, index)


def _fresh_philox_state(key) -> dict:
    """State of ``np.random.Philox(key=key)`` as just constructed."""
    key = int(key)
    if not 0 <= key < 1 << 128:
        raise ValueError(f"trajectory seed {key} is not in [0, 2**128)")
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [key & 0xFFFFFFFFFFFFFFFF, key >> 64]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw_noise(gen: np.random.Generator, streams: list, block: np.ndarray, width: int, keep: bool):
    """Fill ``block[row, :width]`` with the next normals of stream ``row``.

    ``streams`` holds each row's Philox state; with ``keep`` the state after
    the draw replaces it, so the next chunk continues the same stream.
    """
    bg = gen.bit_generator
    for row, state in enumerate(streams):
        bg.state = state
        gen.standard_normal(out=block[row, :width])
        if keep:
            streams[row] = bg.state


def _evolve_sde_batch(psi0, h, a, lam, dt, n_steps, keys, sample_steps, gen):
    """Advance one trajectory per stream key; returns (samples, final states).

    Row ``r`` draws its Wiener increments from the Philox stream keyed by
    ``keys[r]``, ``_NOISE_CHUNK`` steps at a time into one reused
    (rows, chunk) block, by re-keying ``gen``'s bit generator.  The draws
    equal one ``standard_normal(n_steps)`` of ``Philox(key=keys[r])``, and
    the arithmetic is identical for any batch size, so single runs and
    ensemble members agree bitwise.
    """
    batch = len(keys)
    if batch == 1:
        # numpy rounds a one-row ``p @ a`` differently from the same row in a larger batch.
        samples, psi = _evolve_sde_batch(
            psi0, h, a, lam, dt, n_steps, [keys[0], keys[0]], sample_steps, gen
        )
        return samples[:1], psi[:1]
    psi = np.tile(psi0, (batch, 1)).astype(complex)
    h_t = None if h is None else h.T
    sqrt_dt = math.sqrt(dt)
    sqrt_lam = math.sqrt(lam)
    out = np.empty((batch, len(sample_steps), DIM), dtype=complex)
    pos = 0
    if sample_steps and sample_steps[0] == 0:
        out[:, 0, :] = psi
        pos = 1
    streams = [_fresh_philox_state(k) for k in keys]
    block = np.empty((batch, min(_NOISE_CHUNK, n_steps)))
    for step in range(n_steps):
        col = step % _NOISE_CHUNK
        if col == 0:
            width = min(_NOISE_CHUNK, n_steps - step)
            _draw_noise(gen, streams, block, width, keep=step + width < n_steps)
        p = psi.real**2 + psi.imag**2
        centered = a[None, :] - (p @ a)[:, None]
        dw = block[:, col] * sqrt_dt
        gain = sqrt_lam * centered * dw[:, None] - 0.5 * lam * dt * centered**2
        dpsi = gain * psi
        if h_t is not None:
            dpsi = dpsi + (-1j * dt) * (psi @ h_t)
        psi = psi + dpsi
        norm = np.sqrt((psi.real**2 + psi.imag**2).sum(axis=1))
        psi = psi / norm[:, None]
        if pos < len(sample_steps) and sample_steps[pos] == step + 1:
            out[:, pos, :] = psi
            pos += 1
    return out, psi


def _collapse_outcomes(finals: np.ndarray, threshold: float) -> list[int | None]:
    """Per row: the basis index holding at least ``threshold`` population, else None."""
    pops = finals.real**2 + finals.imag**2
    winners = np.argmax(pops, axis=1)
    decided = pops[np.arange(len(pops)), winners] >= threshold
    return [w if d else None for w, d in zip(winners.tolist(), decided.tolist())]


def _trajectories(
    psi0, h, a, lam, dt, t, n_trajectories, stream_keys, sample_times, collapse_threshold
) -> list[TrajectoryRecord]:
    """Integrate ``n_trajectories`` trajectories, ``_BATCH`` at a time.

    ``stream_keys(start, stop)`` returns the stream keys of members
    ``start .. stop - 1``.  Every input is validated, and the step checked,
    before it is first called, so a refused run derives no key.
    """
    psi0 = validate_pure_state(psi0)
    a = build_collapse_operator(a)
    h = _check_hamiltonian(h)
    _check_rate(lam)
    if not (math.isfinite(collapse_threshold) and 0.0 < collapse_threshold <= 1.0):
        raise ValueError("collapse threshold must be finite and in (0, 1]")
    n_steps, steps, times = _time_grid(t, dt, sample_times, max_steps=MAX_SDE_STEPS)
    # |a_i - <A>| <= gap, so the drift factor 1 - (lam/2) dt (a_i - <A>)^2 stays
    # positive below this bound; past it a step flips the sign of amplitudes
    gap = float(a.max() - a.min())
    margin = 0.5 * lam * dt * (gap * gap)
    if margin >= 1.0:
        raise StepTooLarge(
            f"Euler-Maruyama step dt={dt:g} makes (lam/2) dt gap^2 = {margin:.6g} >= 1 "
            f"for eigenvalue gap {gap:g}, so the drift factor is not positive; reduce dt"
        )
    eigenvalues = tuple(a.tolist())
    gen = np.random.Generator(np.random.Philox(0))
    records: list[TrajectoryRecord] = []
    for start in range(0, n_trajectories, _BATCH):
        keys = stream_keys(start, min(start + _BATCH, n_trajectories))
        samples, finals = _evolve_sde_batch(psi0, h, a, lam, dt, n_steps, keys, steps, gen)
        records.extend(
            TrajectoryRecord(
                seed=key,
                times=times,
                states=states,
                outcome=outcome,
                eigenvalues=eigenvalues,
                lam=float(lam),
                dt=float(dt),
                hamiltonian=h,
            )
            for key, states, outcome in zip(
                keys, samples, _collapse_outcomes(finals, collapse_threshold)
            )
        )
    return records


def sde_trajectory(
    psi0,
    h,
    a,
    lam: float,
    dt: float,
    t: float,
    seed: int,
    sample_times=None,
    collapse_threshold: float = 0.99,
) -> TrajectoryRecord:
    """Integrate one stochastic trajectory with its own noise stream.

    Deterministic given (seed, dt): rerunning with the same arguments
    reproduces every sampled state bitwise.
    """
    return _trajectories(
        psi0, h, a, lam, dt, t, 1, lambda start, stop: [seed], sample_times, collapse_threshold
    )[0]


def simulate_ensemble(
    psi0,
    h,
    a,
    lam: float,
    dt: float,
    t: float,
    n_trajectories: int,
    seed: int = 0,
    sample_times=None,
    collapse_threshold: float = 0.99,
) -> list[TrajectoryRecord]:
    """Run many independent trajectories from one master seed.

    Trajectory ``i`` uses the stream ``derive_trajectory_seed(seed, i)``, so
    its record does not depend on ``n_trajectories`` and equals
    ``sde_trajectory`` run with that key, bitwise.
    """
    if n_trajectories <= 0:
        raise ValueError("n_trajectories must be positive")

    def stream_keys(start: int, stop: int) -> list[int]:
        return derive_trajectory_seed(seed, np.arange(start, stop, dtype=np.uint64)).tolist()

    return _trajectories(
        psi0, h, a, lam, dt, t, n_trajectories, stream_keys, sample_times, collapse_threshold
    )


def _same_grid(r1: TrajectoryRecord, r2: TrajectoryRecord) -> bool:
    # records of one run share their arrays, so identity settles most comparisons;
    # array_equal of None and a matrix is False (their shapes differ)
    return (
        r1.eigenvalues == r2.eigenvalues
        and r1.lam == r2.lam
        and r1.dt == r2.dt
        and (r1.times is r2.times or np.array_equal(r1.times, r2.times))
        and (r1.hamiltonian is r2.hamiltonian or np.array_equal(r1.hamiltonian, r2.hamiltonian))
    )


def ensemble_average(trajectories, at: float) -> np.ndarray:
    """Mean projector over the trajectories at sample time ``at``."""
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    first = trajectories[0]
    for other in trajectories[1:]:
        if not _same_grid(first, other):
            raise GridMismatch("trajectories do not share grid and parameters")
    matches = np.nonzero(np.abs(first.times - at) <= 1e-9)[0]
    if len(matches) == 0:
        raise GridMismatch(f"time {at!r} is not on the shared sample grid")
    idx = int(matches[0])
    stacked = np.stack([r.states[idx] for r in trajectories])
    return np.einsum("ni,nj->ij", stacked, stacked.conj()) / len(trajectories)
