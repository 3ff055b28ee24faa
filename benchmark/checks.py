"""Independent references and tolerance bands for the benchmark's checks.

Nothing here calls the dyadlab function whose output it judges.  Each
statistical band states its error bar:

* ``K_SE`` standard errors of the Monte-Carlo mean, taken from the largest
  variance the sampled quantity can have given its exact mean, plus
* a discretisation allowance for Euler-Maruyama of ``EM_BIAS * rate * dt *
  max(t, 1)`` where ``rate = lam * (max gap)^2 + ||H||^2`` (weak order 1), plus,
  for outcome counts, every undecided trajectory and the ``1 - threshold``
  population a decided trajectory may leave behind.

Deterministic results are compared against closed forms: RK4 applied to
``d rho_ik/dt = -(lam/2)(a_i - a_k)^2 rho_ik`` multiplies the coherence by
the polynomial ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` per step, so the
tolerance against ``exp(-(lam/2)(a_i - a_k)^2 t)`` is exactly the RK4
truncation ``|R(z)^n - exp(n z)|`` plus round-off.
"""

from __future__ import annotations

import math

import numpy as np

K_SE = 5.0
EM_BIAS = 0.1
ROUNDOFF = 1e-10

# RK4 is stable on the negative real axis for |z| <= 2.785, but its damping
# factor R(z)^n differs per coherence from exp(n z), and for z beyond about 1
# that can leave the state with a negative eigenvalue past the guard's 1e-6
# tolerance (seen from z = 1.1 in a scan of random eigenvalues and states;
# none from z = 0.8).  Every stable Lindblad setting the generator draws keeps
# z = (lam/2) * (max gap)^2 * dt at or below STABLE_Z, and every unstable one
# at or above UNSTABLE_Z, where |R(z)| >= 5 makes the coherences grow.
STABLE_Z = 0.8
UNSTABLE_Z = 4.0
# Euler-Maruyama keeps the drift factor 1 - (lam/2) c^2 dt of every amplitude
# positive when lam * (max gap)^2 * dt stays below 2; the generator keeps it
# at or below this bound.
SDE_STEP_BOUND = 0.5


def liouvillian(h, a, lam: float) -> np.ndarray:
    """16x16 generator of d(rho)/dt = -i[H, rho] - (lam/2)[A, [A, rho]], row-major vec."""
    eye = np.eye(4)
    amat = np.diag(np.asarray(a, dtype=float)).astype(complex)
    a2 = amat @ amat
    gen = -0.5 * lam * (np.kron(a2, eye) - 2.0 * np.kron(amat, amat.T) + np.kron(eye, a2.T))
    if h is not None:
        hm = np.asarray(h, dtype=complex)
        gen = gen - 1j * (np.kron(hm, eye) - np.kron(eye, hm.T))
    return gen


def lindblad_reference(rho0, h, a, lam: float, t: float) -> np.ndarray:
    """Exact ensemble state at time t, by the matrix exponential of the generator."""
    from scipy.linalg import expm  # here, so that set-up probes import only dyadlab's own modules

    vec = expm(liouvillian(h, a, lam) * t) @ np.asarray(rho0, dtype=complex).reshape(16)
    return vec.reshape(4, 4)


def rk4_decay(rate: float, dt: float, n: int) -> tuple[float, float]:
    """exp(-rate n dt), and the RK4 truncation |R(-rate dt)^n - exp(-rate n dt)|."""
    z = -rate * dt
    exact = math.exp(z * n)
    return exact, abs((1.0 + z + z * z / 2.0 + z**3 / 6.0 + z**4 / 24.0) ** n - exact)


def lindblad_closed_form_problems(rho0, a, lam, dt, times, states) -> list[str]:
    """Populations constant and coherences decaying at (lam/2)(a_i - a_k)^2 with H = None."""
    problems = []
    a = np.asarray(a, dtype=float)
    for t, rho in zip(times, states):
        n = int(round(t / dt))
        for i in range(4):
            for k in range(4):
                decay, tol = rk4_decay(0.5 * lam * (a[i] - a[k]) ** 2, dt, n)
                band = abs(rho0[i, k]) * tol + ROUNDOFF
                if abs(rho[i, k] - rho0[i, k] * decay) > band:
                    problems.append(
                        f"lindblad rho[{i},{k}] at t={t:g}: {rho[i, k]:.3e} "
                        f"vs {rho0[i, k] * decay:.3e} (band {band:.1e})"
                    )
    return problems


def coherence_magnitude_problems(rho0, a, lam, dt, t, pops, cohs, pairs) -> list[str]:
    """The same closed form for populations and |rho_ik| as the CLI prints them."""
    n = int(round(t / dt))
    problems = []
    if np.max(np.abs(np.asarray(pops) - np.diag(rho0).real)) > ROUNDOFF:
        problems.append(f"populations moved at t={t:g}")
    for (i, k), c in zip(pairs, cohs):
        decay, tol = rk4_decay(0.5 * lam * (a[i] - a[k]) ** 2, dt, n)
        if abs(c - abs(rho0[i, k]) * decay) > abs(rho0[i, k]) * tol + ROUNDOFF:
            problems.append(f"|rho_{i}{k}| at t={t:g}: {c:.6e} vs {abs(rho0[i, k]) * decay:.6e}")
    return problems


def em_bias(h, a, lam, dt, t) -> float:
    a = np.asarray(a, dtype=float)
    rate = lam * float(a.max() - a.min()) ** 2
    if h is not None:
        rate += float(np.linalg.norm(np.asarray(h), 2)) ** 2
    return EM_BIAS * rate * dt * max(t, 1.0)


def outcome_count_problems(counts, n_none, weights, threshold, bias) -> list[str]:
    """Decided outcomes against Born weights (Lindblad populations at the final time)."""
    n = sum(counts) + n_none
    problems = []
    for i, (c, w) in enumerate(zip(counts, weights)):
        w = min(max(float(w), 0.0), 1.0)
        band = (
            K_SE * math.sqrt(n * w * (1.0 - w))
            + n_none
            + (1.0 - threshold) / threshold * n
            + bias * n
            + 1e-9
        )
        if abs(c - n * w) > band:
            problems.append(f"outcome {i}: {c} of {n} vs Born {n * w:.1f} (band {band:.1f})")
    return problems


def ensemble_average_problems(avg, states, reference, bias) -> list[str]:
    """Mean projector of ``states`` against the exact state, entrywise within K_SE standard errors.

    The standard error uses the largest variance an entry can have given the
    exact state, so the band holds for any number of trajectories: a
    population p_i in [0, 1] with mean rho_ii has variance at most
    rho_ii (1 - rho_ii) (Bhatia-Davis), and the real and imaginary parts of
    psi_i psi_k^* have second moment at most E[p_i p_k], which is below both
    rho_ii (1 - rho_ii) and rho_kk (1 - rho_kk).
    """
    psi = np.asarray(states)
    n = psi.shape[0]
    pops = np.clip(np.diag(reference).real, 0.0, 1.0)
    var = pops * (1.0 - pops)
    band = K_SE * np.sqrt(np.minimum.outer(var, var) / n) + bias + ROUNDOFF
    diff = np.asarray(avg) - reference
    problems = []
    for i, k in zip(*np.nonzero((np.abs(diff.real) > band) | (np.abs(diff.imag) > band))):
        problems.append(
            f"ensemble average [{i},{k}] off by {abs(diff[i, k]):.2e} (band {band[i, k]:.2e})"
        )
    mean = np.einsum("ni,nj->ij", psi, psi.conj()) / n
    if np.max(np.abs(mean - avg)) > 1e-12:
        problems.append("ensemble average differs from the mean of the projectors")
    return problems


def unit_qid_bits(rho_unit) -> float:
    """QID of a qubit state against I/2: max_i p_i (log2 p_i + 1) over its spectrum."""
    w = np.linalg.eigvalsh(rho_unit)
    return max(float(p * (math.log2(p) + 1.0)) for p in w if p > 1e-12)


def tv_rows(p_rows, q_rows) -> float:
    return float(sum(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum() for p, q in zip(p_rows, q_rows)))


def kl_undefined(p_rows, q_rows) -> bool:
    return any(np.any((np.asarray(p) > 0) & (np.asarray(q) == 0)) for p, q in zip(p_rows, q_rows))


def qshape_rows(outputs, state: int) -> np.ndarray:
    """Q-shape rows (A effect, A cause, B effect, B cause) of a rule given as successor indices.

    Each part keeps its own bit and replaces the partner's by an equiprobable
    bit; the effect row is where those states go, the cause row the uniform
    mixture of their predecessors.
    """
    rows = np.zeros((4, 4))
    bits = (state >> 1, state & 1)
    for r, (unit, effect) in enumerate(((0, True), (0, False), (1, True), (1, False))):
        for partner in (0, 1):
            member = 2 * bits[0] + partner if unit == 0 else 2 * partner + bits[1]
            if effect:
                rows[r, outputs[member]] += 0.5
            else:
                preds = [s for s in range(4) if outputs[s] == member]
                for p in preds:
                    rows[r, p] += 0.5 / len(preds)
    return rows
