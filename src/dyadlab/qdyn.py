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
  is refused before integrating, with :class:`StepTooLarge`, unless the run
  takes no step at all; one that passed that check by round-off is refused
  when its power overflows.  The samples are integrated into one array,
  ``_GUARD_BLOCK`` at a time, and each block is checked in one pass for
  drift of trace, Hermiticity and positivity; the first drifted sample
  raises :class:`StepTooLarge`.

* Trajectory picture.  A pure state follows the stochastic equation
  ``d(psi) = [-iH dt + sqrt(lam) (A - <A>) dW - (lam/2) (A - <A>)^2 dt] psi``
  with a standard Wiener increment ``dW ~ Normal(0, dt)``.  Without ``H`` it
  has a closed-form solution (Adler & Brun, J. Phys. A 34, 4797 (2001);
  Jacobs & Steck, Contemp. Phys. 47, 279 (2006)): outcome ``j`` occurs with
  Born weight ``|psi0_j|^2``, and then ``psi_k(t)`` is proportional to
  ``psi0_k exp(D_k (sqrt(lam) W_t - lam t D_k))`` with ``D_k = a_k - a_j``.
  The engine samples that exactly, at the sample times and the final time
  only (:func:`_collapse_exactly`), so ``dt`` sets the sample grid and no
  step is too large.  With ``H``, including a zero matrix, it takes Lie-Trotter
  split steps (:func:`_evolve_sde_batch`): each multiplies amplitude ``k``
  by the collapse factor ``exp(sqrt(lam) a_k dY - lam a_k^2 dt)``, with
  ``dY = dW + 2 sqrt(lam) <A> dt``, the exact solution over the step of the
  linear form of the equation with ``<A>`` held (Jacobs & Steck), then
  applies ``U = exp(-iH dt)``, built once per run from ``np.linalg.eigh``.
  Both parts are exact and the factor is positive for any ``dt``, so no step
  is refused for its size; the splitting is weak order 1.  A step whose
  exponents would leave the float range (``lam dt (max a - min a)^2`` past
  ``_EXPONENT_LIMIT``, or an infinite ``dt ||H||``) is refused before any
  noise is drawn, with :class:`StepTooLarge`.  Averaging the projectors of
  many trajectories reproduces the ensemble picture.

Both pictures see ``A`` only through ``lam``, so with ``lam = 0`` they
integrate with ``A = 0`` and no eigenvalue gap, however large, trips a guard.

Randomness is counter-based: Philox4x64-10 gives an independent stream for
every distinct 128-bit key (Salmon et al., SC'11), so member ``i`` of an
ensemble with master seed ``m`` draws from the stream keyed ``m + i * 2**64``
(:func:`derive_trajectory_seed`), the seed in the low 64-bit word and the
index in the high one.  An ensemble's keys are therefore one range,
``m, m + 2**64, ...``; checking the last member's key checks them all, once,
when the engine draws the first.  Single runs and ensembles share one engine:
it runs up to ``_BATCH`` trajectories together.  The exact sampler computes
the Philox words of every key of a batch in one numpy pass
(:func:`_philox_words`) and forms its draws from them itself
(:func:`_exact_draws`): a uniform that is numpy's ``random()`` of the stream
bit for bit, then Box-Muller normals.  Only correctly rounded arithmetic,
``math.log`` and numpy's complex ``exp`` (libm's ``exp``, ``cos`` and
``sin``) shape its output, never a loop numpy picks for the CPU, so its bytes
depend only on the inputs and the libm.  Those words cost about 0.2 us per
normal, against about 16 ns for numpy's ziggurat (2-core AVX-512 x86-64,
numpy 2.4), and the split step draws one normal per trajectory per step
(about 4.5e6 in one ``sde_long`` benchmark pass), so it keeps numpy's
generator: it re-keys one Philox generator per trajectory instead of building
one.  A stream is fixed by its key alone, so re-keying writes the key's two
words into one reused state dict; a trajectory's own state is saved only when
more noise follows.  Its bytes depend on numpy's generator and on BLAS, so
they are fixed within one CPU class only.
The split step draws the noise ``_NOISE_CHUNK`` steps at a time, so noise
memory is ``_BATCH x _NOISE_CHUNK`` floats however long the run.  Neither
method's arithmetic depends on the batch or the chunking, so trajectory ``i``
is reproducible bitwise regardless of how many trajectories are run.  The
split step holds a batch as real and imaginary planes, component-major, and
updates all rows with one array call per operation, 14 a step; its real
matrix products keep the batch in their last axis, where BLAS rounds each
trajectory alike in any batch of two or more (one is run as two).  An SDE
run of more than ``MAX_SDE_STEPS`` steps is refused with ValueError.
Ensemble averaging is an order-independent reduction over immutable records.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, StepTooLarge
from .model import COHERENCE_PAIRS, MAX_SDE_STEPS, NAMED_STATES, check_collapse_threshold
from .model import check_rate, collapse_eigenvalues, derive_trajectory_seed, pair_state, pure_state
from .model import step_count, unsigned, validate_density_matrix
from .model import swap as _swap_rule

DIM = 4
# Trajectories integrated together, and steps of noise drawn per trajectory at
# a time: the noise block holds _BATCH x _NOISE_CHUNK floats (8 MB).
_BATCH = 1000
_NOISE_CHUNK = 1024
# Largest lam dt (max a - min a)^2 a split step takes: every exponent it forms
# then stays below 6 times this, inside the float range.
_EXPONENT_LIMIT = 1e307
# exp of a larger argument overflows.
_EXP_ARG_MAX = 709.0
# Philox4x64-10's round multipliers and key increments (Salmon et al., SC'11).
_PHILOX_MULTIPLIER = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_BUMP = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_HALF, _LOW_HALF = np.uint64(32), np.uint64(0xFFFFFFFF)

_STATE_ATOL = 1e-10
_GUARD_ATOL = 1e-6
# Lindblad samples integrated between two guard checks: bounds the guard's
# temporaries, and how far integration runs past a drifted sample.
_GUARD_BLOCK = 1024
# R(0) = 1 exactly on the conserved modes, so a stable RK4 step has spectral
# radius at most 1 up to the eigenvalue solver's round-off.
_STABILITY_ATOL = 1e-10


def validate_pure_state(psi) -> np.ndarray:
    """``psi`` as a complex array, if :func:`model.pure_state` accepts it."""
    return np.array(pure_state(psi, _STATE_ATOL)[0], dtype=complex)


def build_collapse_operator(assignment) -> np.ndarray:
    """:func:`model.collapse_eigenvalues` of any four numbers (an
    ``optimizer.EigenAssignment`` among them), as a float array."""
    return np.array(collapse_eigenvalues(assignment))


def coherence_decay_rate(a, lam: float, i: int, k: int) -> float:
    """Analytic damping exponent of rho_ik with H = 0: (lam/2)(a_i - a_k)^2."""
    a = np.asarray(a, dtype=float)
    if i == k:
        raise ValueError("decay rate is defined for distinct indices only")
    return 0.5 * lam * float(a[i] - a[k]) ** 2


def prepare_dyad_superposition() -> np.ndarray:
    """(|00> + |10>)/sqrt(2): channel A in the balanced state, B in 0."""
    return np.array(NAMED_STATES["plus0"], dtype=complex)


def basis_superposition(i: int, k: int) -> np.ndarray:
    """Equal-weight superposition of two computational basis states."""
    return np.array(pair_state(i, k), dtype=complex)


def swap_hamiltonian() -> np.ndarray:
    """Hermitian generator whose unit-time evolution is exactly the swap gate."""
    # column s of the permutation matrix is the basis vector of swap(s)
    return 0.5 * math.pi * (np.eye(DIM) - np.eye(DIM)[:, list(_swap_rule().outputs)])


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


def _check_guard(rhos: np.ndarray, steps, dt) -> None:
    """Raise StepTooLarge at the first of the ``(n, 4, 4)`` states ``rhos``,
    sampled at ``steps`` of ``dt``, whose trace, Hermiticity or positivity
    drifted past ``_GUARD_ATOL``.

    One array pass over the stack: a state with a non-finite entry fails
    with a NaN minimum eigenvalue instead of stopping the eigensolver.
    """
    tr = np.trace(rhos, axis1=1, axis2=2)
    trace_drift = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    adjoint = rhos.conj().transpose(0, 2, 1)
    herm_drift = np.max(np.abs(rhos - adjoint), axis=(1, 2))
    herm = 0.5 * (rhos + adjoint)
    finite = np.isfinite(herm).all(axis=(1, 2))
    herm[~finite] = 0.0
    min_eig = np.where(finite, np.min(np.linalg.eigvalsh(herm), axis=1), np.nan)
    ok = (trace_drift <= _GUARD_ATOL) & (herm_drift <= _GUARD_ATOL) & (min_eig >= -_GUARD_ATOL)
    if not ok.all():
        i = int(np.argmin(ok))
        raise StepTooLarge(
            f"state invariants drifted at t={steps[i] * dt:g} "
            f"(trace {trace_drift[i]:.2e}, hermiticity {herm_drift[i]:.2e}, "
            f"min eigenvalue {min_eig[i]:.2e}); reduce dt"
        )


def _check_hamiltonian(h) -> np.ndarray | None:
    """``h`` as a complex Hermitian 4x4 matrix; None stands for no Hamiltonian."""
    if h is None:
        return None
    h = np.asarray(h, dtype=complex)
    if not np.isfinite(h).all():
        raise ValueError("Hamiltonian has a non-finite entry")
    if h.shape != (DIM, DIM) or not np.max(np.abs(h - h.conj().T)) <= 1e-10:
        raise ValueError("Hamiltonian must be a Hermitian 4x4 matrix")
    return h


def _time_grid(
    t: float, dt: float, sample_times, max_steps: int | None = None
) -> tuple[int, list[int], np.ndarray]:
    n_steps = step_count(t, dt, max_steps)  # before snapping any sample time
    dt = float(dt)
    if sample_times is None:
        sample_times = [0.0, t] if n_steps > 0 else [0.0]
    elif np.size(sample_times) == 0:
        raise ValueError("sample_times must hold at least one time")
    # np.rint rounds half to even, as round() does
    with np.errstate(over="ignore"):  # a time far past t clips to the last step
        snapped = np.rint(np.asarray(sample_times, dtype=float) / dt)
    snapped = np.unique(np.clip(snapped, 0, n_steps))
    if not np.all(np.isfinite(snapped)):
        raise ValueError("sample times must be finite")
    steps = [int(s) for s in snapped.tolist()]
    return n_steps, steps, snapped * dt


def _generator(h: np.ndarray, a: np.ndarray, lam: float) -> np.ndarray:
    """Matrix ``L`` of ``-i[H, rho] - (lam/2)[A, [A, rho]]`` on the row-major
    ``rho.reshape(16)``, entry by entry: entry ``(DIM i + k, DIM j + l)`` of
    the commutator is ``H_ij delta_kl - delta_ij H_lk`` (one broadcast over
    the axes ``(i, k, j, l)``), and a diagonal ``A`` makes the double
    commutator the diagonal ``(a_i - a_k)^2``."""
    eye, n = np.eye(DIM), DIM * DIM
    commutator = h[:, None, :, None] * eye[None, :, None, :] - eye[:, None, :, None] * h.T[None, :, None, :]
    gap = (a[:, None] - a[None, :]).reshape(n)
    return -0.5 * lam * np.diag(gap * gap) - 1j * commutator.reshape(n, n)


def _rk4_step_increment(h: np.ndarray, a: np.ndarray, lam: float, dt: float) -> np.ndarray:
    """``S = T - I`` for the RK4 step ``T = sum_{k<=4} (dt L)^k / k!``, with
    ``L`` from :func:`_generator`.

    Raises ``StepTooLarge`` when the spectral radius of ``T`` exceeds 1 by
    more than round-off: repeated steps would then amplify some mode of rho.
    """
    eye = np.eye(DIM * DIM)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as radius inf
        m = dt * _generator(h, a, lam)
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
    ``S`` keeps the result to round-off.  Raises ``StepTooLarge`` when
    ``S_n`` overflows: a spectral radius that passed the stability check by
    round-off, raised to n, can still leave the float range.
    """
    out = np.zeros_like(inc)
    steps = n
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        while n:
            if n & 1:
                out = out + inc + out @ inc
            n >>= 1
            if n:
                inc = 2.0 * inc + inc @ inc
    if not np.isfinite(out).all():
        raise StepTooLarge(
            f"the RK4 step raised to {steps} steps overflows, so some mode of rho "
            "grows past the float range; reduce dt"
        )
    return out


def lindblad_path(rho0, h, a, lam: float, dt: float, sample_times) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the master equation; returns the sample times and the
    ``(n, 4, 4)`` array of states at them.

    RK4 is applied as one precomputed 16x16 step matrix, raised to the number
    of steps between consecutive samples (one power per distinct gap).
    Sample times snap to the nearest step of the fixed grid; when every one
    snaps to step 0, no step is taken and each sample is ``rho0``.  Raises
    ``StepTooLarge`` before integrating when the step lies outside RK4's
    stability region (|dt lambda| <= ~2.785 on the negative real axis), when
    its power for a gap between samples overflows, and when trace,
    Hermiticity, or positivity drift past 1e-6 at a sample.  That
    guard checks ``_GUARD_BLOCK`` samples at a time in one array pass, after
    integrating them, and reports the first drifted sample in time order.
    """
    rho = np.array(validate_density_matrix(rho0), dtype=complex)
    a = build_collapse_operator(a)
    check_rate(lam)
    h = _check_hamiltonian(h)
    if h is None:
        h = np.zeros((DIM, DIM), dtype=complex)
    # an empty sample_times is refused by _time_grid
    _, steps, times = _time_grid(max(sample_times, default=0.0), dt, sample_times)
    if steps[-1]:  # a run of zero steps has no step to refuse
        inc = _rk4_step_increment(h, a if lam else np.zeros(DIM), lam, dt)
    powers = {}
    vec = rho.reshape(DIM * DIM)
    states = np.empty((len(steps), DIM * DIM), dtype=complex)
    done = 0
    for start in range(0, len(steps), _GUARD_BLOCK):
        block = slice(start, start + _GUARD_BLOCK)
        for i, target in enumerate(steps[block], start):
            gap = target - done
            if gap:
                if gap not in powers:
                    powers[gap] = _increment_power(inc, gap)
                vec = vec + powers[gap] @ vec
            states[i] = vec
            done = target
        _check_guard(states[block].reshape(-1, DIM, DIM), steps[block], dt)
    return times, states.reshape(-1, DIM, DIM)


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


def _rekeyed(gen: np.random.Generator, streams):
    """Yield the index of each entry of ``streams`` with ``gen`` set to that stream.

    An entry is a Philox key, an ``int`` in [0, 2**128), or a saved Philox
    state.  A Philox stream is fixed by its key alone, so a key re-keys the
    generator to the start of its stream, as ``Philox(key=key)`` is built, by
    writing the key's two 64-bit words into one reused state dict.
    """
    bg = gen.bit_generator
    words = [0, 0]
    start = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": words},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, stream in enumerate(streams):
        if type(stream) is int:
            words[0] = stream & 0xFFFFFFFFFFFFFFFF
            words[1] = stream >> 64
            stream = start
        bg.state = stream
        yield row


def _draw_noise(gen: np.random.Generator, streams: list, block: np.ndarray, width: int, keep: bool):
    """Fill ``block[row, :width]`` with the next normals of stream ``row``.

    ``streams[row]`` is the row's Philox key before its first draw, and its
    saved Philox state after it (see :func:`_rekeyed`).  With ``keep`` the
    state after the draw replaces the entry, so the next chunk continues the
    same stream.
    """
    for row, out in zip(_rekeyed(gen, streams), block[:, :width]):
        gen.standard_normal(out=out)
        if keep:
            streams[row] = gen.bit_generator.state


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``m x``, the high
    one by long multiplication of 32-bit halves (Warren, *Hacker's Delight*,
    2nd ed., 8-2), no partial sum of which passes 64 bits."""
    m_lo, m_hi = m & _LOW_HALF, m >> _HALF
    x_lo, x_hi = x & _LOW_HALF, x >> _HALF
    t = m_hi * x_lo + ((m_lo * x_lo) >> _HALF)
    mid = m_lo * x_hi + (t & _LOW_HALF)
    return m_hi * x_hi + (t >> _HALF) + (mid >> _HALF), m * x


def _philox_words(keys, blocks: int) -> np.ndarray:
    """The first ``4 * blocks`` words of the Philox4x64-10 stream of each key
    (Salmon et al., SC'11), as a ``(len(keys), 4 * blocks)`` uint64 array.

    Key ``k`` is the word pair ``(k & (2**64 - 1), k >> 64)`` and block ``b``
    has the counter ``(b + 1, 0, 0, 0)``, as in numpy's ``Philox(key=k)``, so
    row ``r`` equals ``Philox(key=keys[r]).random_raw(4 * blocks)``.  All rows
    and blocks go through the ten rounds together, and the first round
    computes the products only once per block, since every row shares the
    counters.
    """
    # the 16 little-endian bytes of k are its two words
    key = np.frombuffer(b"".join([int(k).to_bytes(16, "little") for k in keys]), dtype="<u8")
    k0, k1 = key.reshape(-1, 2, 1).transpose(1, 0, 2)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_BUMP[0], k1 + _PHILOX_BUMP[1]
        hi0, lo0 = _mulhilo(_PHILOX_MULTIPLIER[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_MULTIPLIER[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)
    return words.reshape(len(keys), 4 * blocks)


def _exact_draws(keys, normals: int) -> tuple[np.ndarray, np.ndarray]:
    """Row ``r``'s uniform and its ``normals`` standard normals, from the
    Philox words ``w`` of ``keys[r]`` (:func:`_philox_words`).

    With ``v(w) = (w >> 11) 2**-53``, the uniform is ``v(w[0])``, which is
    numpy's ``random()`` of that stream, bit for bit.  Normals ``2i`` and
    ``2i + 1`` are ``r cos(theta)`` and ``r sin(theta)`` by Box-Muller (Ann.
    Math. Stat. 29, 610 (1958)), with ``r = sqrt(-2 log(1 - v(w[2i + 1])))``
    and ``theta = 2 pi v(w[2i + 2])``.  Only correctly rounded arithmetic,
    ``math.log`` and the complex ``np.exp`` (``cos`` and ``sin`` from libm)
    touch them, so their bits do not depend on numpy's CPU dispatch.
    """
    pairs = -(-normals // 2)
    words = _philox_words(keys, (2 * pairs + 4) // 4)  # 1 + 2 pairs words, whole blocks
    units = (words[:, : 1 + 2 * pairs] >> np.uint64(11)) * 2.0**-53
    logs = list(map(math.log, (1.0 - units[:, 1::2]).ravel().tolist()))
    radius = np.sqrt(-2.0 * np.array(logs).reshape(len(keys), pairs))
    turn = np.exp(1j * (math.tau * units[:, 2::2]))
    z = np.empty((len(keys), 2 * pairs))
    z[:, 0::2] = radius * turn.real
    z[:, 1::2] = radius * turn.imag
    return units[:, 0], z[:, :normals]


def _collapse_exactly(psi0, a, lam, dt, n_steps, sample_steps, keys):
    """Sample one trajectory without a Hamiltonian per stream key; returns
    (samples, final states) as :func:`_evolve_sde_batch` does.

    Row ``r`` takes from the stream of ``keys[r]`` (:func:`_exact_draws`)
    one uniform, which picks the outcome ``j`` with Born weight
    ``|psi0_j|^2``, then one normal per positive step of the grid (the
    sample steps and the last step), whose scaled running sum is ``W``
    there.  With
    ``y = D sqrt(t) sqrt(lam)`` and ``xi = W_t / sqrt(t)`` the exponent
    ``D (sqrt(lam) W_t - lam t D)`` of the closed form is ``y (xi - y)``:
    a product that overflows reads as ``-inf``, and a zero ``D`` keeps the
    exponent at 0 however large ``lam`` and ``t``.  The exponents are
    reduced by their largest over the amplitudes ``psi0`` populates before
    ``exp``, so the others underflow to zero instead of overflowing; an
    amplitude that is zero in ``psi0`` stays exactly zero, and each keeps
    its phase.  That ``exp`` is the real part of the complex one, which is
    libm's ``exp`` whatever the CPU.  The step-0 sample is ``psi0`` itself.
    The draws depend only on the key and the grid, and every operation is
    per row, so a trajectory does not depend on the batch.
    """
    steps = np.union1d(sample_steps, [n_steps])
    steps = steps[steps > 0]  # W_0 = 0 needs no draw
    support = np.flatnonzero(psi0)
    pops = state_populations(psi0)
    born = np.cumsum(pops)
    u, z = _exact_draws(keys, len(steps))
    # a uniform that rounds onto the total weight picks the last populated amplitude
    j = np.minimum(np.searchsorted(born, u * born[-1], side="right"), support[-1])
    root_t = np.sqrt(steps * dt)
    xi = np.cumsum(z * np.sqrt(np.diff(steps, prepend=0) * dt), axis=1) / root_t
    with np.errstate(over="ignore"):
        y = (a[support, None] - a[j])[..., None] * root_t * math.sqrt(lam)
        d = y * (xi - y)  # (amplitude, row, time)
    d -= d.max(axis=0)
    amps = np.exp(d + 0j).real
    amps /= np.sqrt(np.add.reduce(pops[support, None, None] * amps**2, axis=0))
    states = np.zeros((len(keys), len(steps) + 1, DIM), dtype=complex)
    states[:, 0] = psi0
    states[:, 1:, support] = psi0[support] * np.moveaxis(amps, 0, -1)
    return states[:, np.searchsorted(steps, sample_steps, side="right")], states[:, -1]


def _split_step_tables(h, a, lam, dt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, moments, exponents)`` of the split step of :func:`_evolve_sde_batch`.

    With ``b = sqrt(lam dt) a`` (``a`` shifted to start at 0):

    * ``u`` is ``U = exp(-iH dt)`` as the real 8x8 matrix that maps the parts
      ``[Re psi; Im psi]`` to those of ``U psi``, built from ``np.linalg.eigh(h)``;
    * ``moments`` maps the squared parts to the populations ``p_k``, then
      ``sum b_k p_k`` and ``s = sum p_k``, then two zeros;
    * ``exponents`` maps ``[beta, z, 1]``, with ``beta = sqrt(lam dt) <A>`` and
      ``z`` the step's standard normal, to the collapse exponent
      ``b_k z + 2 b_k beta - b_k^2``, which is
      ``sqrt(lam) a_k dY - lam a_k^2 dt`` for ``dY = dW + 2 sqrt(lam) <A> dt``,
      twice over (for the real and the imaginary parts), then to twice it.

    With ``lam dt (max a)^2`` at most ``_EXPONENT_LIMIT``, every entry and
    every exponent a step forms from them is finite.  Raises StepTooLarge,
    before any noise is drawn, when ``lam dt (max a)^2`` passes that limit
    or ``dt ||H||`` overflows.
    """
    w, v = np.linalg.eigh(h)
    # Python floats: dt times a huge norm overflows to inf without a warning
    h_step = float(dt) * float(np.max(np.abs(w)))
    if not math.isfinite(h_step):
        raise StepTooLarge(
            f"split step dt={dt:g} makes dt*|H| overflow, so exp(-iH dt) has no phase; reduce dt"
        )
    u = (v * np.exp(-1j * (dt * w))) @ v.conj().T
    root = math.sqrt(lam) * math.sqrt(dt)
    gap = float(a.max())
    spread = (root * gap) * (root * gap)  # Python floats: inf on overflow, without a warning
    if not spread <= _EXPONENT_LIMIT:
        raise StepTooLarge(
            f"split step dt={dt:g} makes lam dt gap^2 = {spread:.6g}, past {_EXPONENT_LIMIT:g}, "
            f"for eigenvalue gap {gap:g}, so its collapse exponents overflow; reduce dt"
        )
    b = root * a
    # 8 rows, not the 6 used: OpenBLAS's SSE kernels (Prescott to Barcelona) round
    # a 6-row product by the batch it sits in, and every kernel tried rounds an
    # 8x8 or a 12x3 one alike in any batch of two or more
    moments = np.zeros((2 * DIM, 2 * DIM))
    moments[:DIM, :DIM] = moments[:DIM, DIM:] = np.eye(DIM)
    moments[DIM] = np.tile(b, 2)
    moments[DIM + 1] = 1.0
    exponent = np.stack((2.0 * b, b, -(b * b)), axis=1)
    return (
        np.block([[u.real, -u.imag], [u.imag, u.real]]),
        moments,
        np.concatenate((exponent, exponent, 2.0 * exponent)),
    )


def _evolve_sde_batch(psi0, u, moments, exponents, n_steps, sample_steps, keys):
    """Advance one trajectory per stream key by Lie-Trotter split steps;
    returns the ``(rows, samples, 4)`` states at ``sample_steps`` and the
    ``(rows, 4)`` states after ``n_steps``.

    A step multiplies each amplitude by the exact solution, over the step, of
    the linear collapse equation ``d(psi) = [sqrt(lam) A dY - (lam/2) A^2 dt] psi``
    with ``dY = dW + 2 sqrt(lam) <A> dt`` and ``<A>`` held at its value at the
    start of the step (Jacobs & Steck, Contemp. Phys. 47, 279 (2006)): the
    factor ``exp(sqrt(lam) a_k dY - lam a_k^2 dt)``.  It then applies
    ``U = exp(-iH dt)``.  Both are exact for any ``dt``, and the factor is
    positive, so no step is too large; the splitting is first order.  The
    tables come from :func:`_split_step_tables`.

    The batch is held as real planes, component-major: ``planes[j]`` and
    ``planes[4 + j]`` are the real and imaginary parts of amplitude ``j``
    across the rows, and every update is one array call over all rows, 14 a
    step.  The state is not normalised between samples.  Instead each row's
    exponents are reduced by ``max_k(exponent_k + log|psi_k|)`` over its
    populated amplitudes, so that the largest amplitude after the factor has
    modulus 1 and no exponent overflows; an amplitude that is zero stays
    zero.  Samples and final states are normalised.

    Row ``r`` draws its Wiener increments from the Philox stream keyed by
    ``keys[r]``, ``_NOISE_CHUNK`` steps at a time into one reused
    (rows, chunk) block, by re-keying one Philox bit generator.  The draws
    equal one ``standard_normal(n_steps)`` of ``Philox(key=keys[r])``, and
    each row's arithmetic does not depend on the others or on their number,
    so single runs and ensemble members agree bitwise.
    """
    batch = len(keys)
    if batch == 1:
        # numpy rounds a product with one row differently from the same row in a larger batch
        samples, final = _evolve_sde_batch(
            psi0, u, moments, exponents, n_steps, sample_steps, [keys[0], keys[0]]
        )
        return samples[:1], final[:1]
    planes = np.empty((2 * DIM, batch))
    planes[:DIM] = psi0.real[:, None]
    planes[DIM:] = psi0.imag[:, None]
    stepped = np.empty_like(planes)
    squares = np.empty_like(planes)
    moment = np.empty((len(moments), batch))
    pops, weighted, total = moment[:DIM], moment[DIM], moment[DIM + 1]
    x = np.ones((3, batch))  # beta, z, 1
    beta, z = x[0], x[1]
    exponent = np.empty((len(exponents), batch))
    factor, double = exponent[: 2 * DIM], exponent[2 * DIM :]
    top = np.empty((DIM, batch))
    top_row = np.empty(batch)
    # the states at the sample steps, then the final state, as they are and their
    # norms; psi0 keeps norm 1
    states = np.empty((batch, len(sample_steps) + 1, DIM), dtype=complex)
    parts = states.view(np.float64).reshape(batch, -1, DIM, 2)
    norms = np.ones((len(sample_steps) + 1, batch))
    due = iter(sample_steps + [-1])  # the sample steps, ascending; -1 comes up after the last
    pos, next_sample = 0, next(due)
    if next_sample == 0:
        states[:, 0] = psi0
        pos, next_sample = 1, next(due)
    gen = np.random.Generator(np.random.Philox(0))
    streams = list(map(int, keys))  # _draw_noise tells a key from a saved state by type
    block = np.empty((batch, min(_NOISE_CHUNK, n_steps)))
    # the loop is bound by call overhead for small batches: look the functions up once
    # (np.dot costs less per call than np.matmul, and rounds alike)
    square, dot, divide, log, add = np.square, np.dot, np.divide, np.log, np.add
    peak, multiply, subtract = np.maximum.reduce, np.multiply, np.subtract
    minimum, exp = np.minimum, np.exp
    with np.errstate(divide="ignore"):  # log(0) = -inf keeps a zero amplitude out of the max
        for start in range(0, n_steps, _NOISE_CHUNK):
            width = min(_NOISE_CHUNK, n_steps - start)
            _draw_noise(gen, streams, block, width, keep=start + width < n_steps)
            for step, noise in enumerate(block.T[:width], start + 1):  # step: steps done after it
                square(planes, out=squares)
                dot(moments, squares, out=moment)
                divide(weighted, total, out=beta)
                z[:] = noise
                dot(exponents, x, out=exponent)
                # twice max_k(exponent_k + log|psi_k|), then the exponents reduced by half of it
                log(pops, out=top)
                add(top, double, out=top)
                peak(top, axis=0, out=top_row)
                multiply(top_row, 0.5, out=top_row)
                subtract(factor, top_row, out=factor)
                # caps only amplitudes below exp(-709), zero ones among them
                minimum(factor, _EXP_ARG_MAX, out=factor)
                exp(factor, out=factor)
                multiply(planes, factor, out=planes)
                dot(u, planes, out=stepped)
                planes, stepped = stepped, planes
                if step == next_sample:
                    parts[:, pos] = planes.reshape(2, DIM, batch).T
                    np.add.reduce(square(planes, out=squares), axis=0, out=norms[pos])
                    pos, next_sample = pos + 1, next(due)
    if n_steps:
        parts[:, -1] = planes.reshape(2, DIM, batch).T
        np.add.reduce(square(planes, out=squares), axis=0, out=norms[-1])
    else:
        states[:, -1] = psi0
    parts /= np.sqrt(norms).T[:, :, None, None]
    return states[:, :-1], states[:, -1]


def _collapse_outcomes(finals: np.ndarray, threshold: float) -> list[int | None]:
    """Per row: the basis index holding at least ``threshold`` population, else None."""
    pops = finals.real**2 + finals.imag**2
    winners = np.argmax(pops, axis=1)
    decided = pops[np.arange(len(pops)), winners] >= threshold
    return [w if d else None for w, d in zip(winners.tolist(), decided.tolist())]


def _trajectories(
    psi0, h, a, lam, dt, t, keys, sample_times, collapse_threshold
) -> list[TrajectoryRecord]:
    """Run one trajectory per stream key, ``_BATCH`` at a time: sampled
    exactly without a Hamiltonian, integrated by split steps with one.

    ``keys`` is consumed lazily, after every input is validated and the step
    checked, so a refused run derives no key.
    """
    psi0 = validate_pure_state(psi0)
    a = build_collapse_operator(a)
    h = _check_hamiltonian(h)
    check_rate(lam)
    check_collapse_threshold(collapse_threshold)
    n_steps, steps, times = _time_grid(t, dt, sample_times, max_steps=MAX_SDE_STEPS)
    # A - <A> is unchanged by shifting A by a multiple of the identity; from the
    # smallest eigenvalue every a_i - <A> stays within the gap instead of
    # cancelling two large numbers, which overflows for huge equal eigenvalues
    shifted = a - a.min() if lam else np.zeros(DIM)
    if h is None:
        kernel, args = _collapse_exactly, (psi0, shifted, lam, dt, n_steps, steps)
    else:
        tables = _split_step_tables(h, shifted, lam, dt)
        kernel, args = _evolve_sde_batch, (psi0, *tables, n_steps, steps)
    eigenvalues, record_lam, record_dt = tuple(a.tolist()), float(lam), float(dt)
    records: list[TrajectoryRecord] = []
    keys = iter(keys)
    for batch in iter(lambda: list(itertools.islice(keys, _BATCH)), []):
        samples, finals = kernel(*args, batch)
        outcomes = _collapse_outcomes(finals, collapse_threshold)
        records += [
            TrajectoryRecord(key, times, states, outcome, eigenvalues, record_lam, record_dt, h)
            for key, states, outcome in zip(batch, samples, outcomes)
        ]
    return records


def _trajectory_key(seed):
    """Yield ``seed`` once, after checking that it is a Philox key: an integer
    in [0, 2**128).  The check runs when the engine draws the key, after every
    other input is validated."""
    unsigned(seed, "trajectory seed", 128)
    yield seed


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
    key = _trajectory_key(seed)
    return _trajectories(psi0, h, a, lam, dt, t, key, sample_times, collapse_threshold)[0]


def _member_keys(seed, n: int):
    """Yield the Philox keys of members ``0..n-1`` of master seed ``seed``.

    ``derive_trajectory_seed(seed, i)`` is ``seed + i * 2**64``, so checking
    the last member's key checks every one, and the keys are one range.  The
    check runs when the engine draws the first key, after every input is
    validated.
    """
    last = derive_trajectory_seed(seed, n - 1)
    yield from range(last & 0xFFFFFFFFFFFFFFFF, last + 1, 1 << 64)


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
    ``sde_trajectory`` run with that key, bitwise; member 0 is
    ``sde_trajectory(seed=seed)``.  Raises ValueError unless
    ``n_trajectories`` is an integer in [1, 2**64], the member indices a
    seed has.
    """
    try:
        n = operator.index(n_trajectories)
    except TypeError:
        raise ValueError(f"n_trajectories {n_trajectories!r} must be an integer") from None
    if n <= 0:
        raise ValueError(f"n_trajectories {n} must be positive")
    if n > 1 << 64:
        raise ValueError(f"n_trajectories {n} is more than 2**64, the member indices of a seed")
    return _trajectories(
        psi0, h, a, lam, dt, t, _member_keys(seed, n), sample_times, collapse_threshold
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
    """Mean projector over the trajectories at the sample time nearest ``at``,
    which must lie within 1e-9 of it."""
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    first = trajectories[0]
    if not all(map(_same_grid, itertools.repeat(first), itertools.islice(trajectories, 1, None))):
        raise GridMismatch("trajectories do not share grid and parameters")
    offsets = np.abs(first.times - at)
    idx = int(np.argmin(offsets))
    if not offsets[idx] <= 1e-9:
        raise GridMismatch(f"time {at!r} is not on the shared sample grid")
    stacked = np.array([r.states[idx] for r in trajectories])
    return np.einsum("ni,nj->ij", stacked, stacked.conj()) / len(trajectories)
