"""Density-operator integrated information for the quantum dyad.

Distributions become density operators and the pointwise information measure
becomes its quantum extension: given spectral ensembles
``rho = sum_i p_i |psi_i><psi_i|`` and ``sigma = sum_j q_j |phi_j><phi_j|``
with overlaps ``P_ij = |<psi_i|phi_j>|^2``,

* relative entropy:  ``S(rho||sigma) = sum_i p_i (log2 p_i - sum_j P_ij log2 q_j)``
* intrinsic difference:  ``QID(rho||sigma) = max_i p_i (log2 p_i - sum_j P_ij log2 q_j)``

For pure ``rho`` the two coincide.  Partition noise is the maximally mixed
qubit, so under the swap rule a unit's cause and effect repertoires both
equal its own reduced state: both directions are the one quantity
``QID(rho_unit || I/2)``, evaluated once per unit.  The whole-system term
vanishes for the dyad because a partition cutting a unit's absent self-link
removes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfiniteDivergence, NotUnitary, UnsupportedState
from .model import UNIT_A, UNIT_B, UNITS
from .model import swap as _swap_rule
from .qdyn import DIM, permutation_unitary, validate_density_matrix

_EIG_TOL = 1e-12
_SUPPORT_ATOL = 1e-10
_PRODUCT_ATOL = 1e-10
# einsum of rho.reshape(2, 2, 2, 2) that traces out the other channel
_REDUCE = {UNIT_A: "abcb->ac", UNIT_B: "abad->bd"}


def maximally_mixed(dim: int = 2) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


@dataclass(frozen=True, eq=False)
class SpectralEnsemble:
    """Eigenvalues above tolerance with their eigenstates (one per row)."""

    probs: np.ndarray
    states: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return np.einsum("i,ij,ik->jk", self.probs, self.states, self.states.conj())


def spectral_ensemble(rho) -> SpectralEnsemble:
    """Spectral decomposition of a qubit or dyad density operator, zero modes dropped."""
    rho = validate_density_matrix(rho, dim=2 if np.shape(rho) == (2, 2) else DIM)
    w, v = np.linalg.eigh(rho)
    keep = w > _EIG_TOL
    return SpectralEnsemble(probs=w[keep], states=v[:, keep].T.copy())


def _information_terms(p_probs, p_states, q_probs, q_states) -> np.ndarray:
    """Per-eigenstate terms p_i (log2 p_i - sum_j P_ij log2 q_j).

    Raises when mass of the first ensemble escapes the second's support.
    """
    p_probs = np.asarray(p_probs, dtype=float)
    q_probs = np.asarray(q_probs, dtype=float)
    p_states = np.asarray(p_states, dtype=complex)
    q_states = np.asarray(q_states, dtype=complex)
    overlaps = np.abs(p_states.conj() @ q_states.T) ** 2
    coverage = overlaps.sum(axis=1)
    if np.any((p_probs > _EIG_TOL) & (coverage < 1.0 - _SUPPORT_ATOL)):
        raise InfiniteDivergence("support of the first state exceeds the second's")
    cross = overlaps @ np.log2(q_probs)
    return p_probs * (np.log2(p_probs) - cross)


def relative_entropy_from_ensembles(p_probs, p_states, q_probs, q_states) -> float:
    return float(np.sum(_information_terms(p_probs, p_states, q_probs, q_states)))


def qid_from_ensembles(p_probs, p_states, q_probs, q_states) -> float:
    return float(np.max(_information_terms(p_probs, p_states, q_probs, q_states)))


def quantum_relative_entropy(rho, sigma) -> float:
    """S(rho || sigma) in bits, via spectral ensembles."""
    ens_p = spectral_ensemble(rho)
    ens_q = spectral_ensemble(sigma)
    return relative_entropy_from_ensembles(ens_p.probs, ens_p.states, ens_q.probs, ens_q.states)


def qid(rho, sigma) -> float:
    """Quantum intrinsic difference in bits; equals S(rho||sigma) for pure rho."""
    ens_p = spectral_ensemble(rho)
    ens_q = spectral_ensemble(sigma)
    return qid_from_ensembles(ens_p.probs, ens_p.states, ens_q.probs, ens_q.states)


def swap_unitary() -> np.ndarray:
    """Permutation unitary of the swap rule on the computational basis."""
    return permutation_unitary(_swap_rule())


def unitary_step(rho, u) -> np.ndarray:
    """One step of unitary evolution, U rho U^dagger."""
    rho = validate_density_matrix(rho)
    u = np.asarray(u, dtype=complex)
    if u.shape != rho.shape:
        raise ValueError("unitary and state dimensions differ")
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > 1e-10:
        raise NotUnitary("matrix is not unitary within tolerance")
    return u @ rho @ u.conj().T


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduced state of one channel; index convention |a,b> = |a> x |b>."""
    rho = validate_density_matrix(rho)
    if keep not in _REDUCE:
        raise ValueError(f"unknown unit {keep!r}")
    return np.einsum(_REDUCE[keep], rho.reshape(2, 2, 2, 2))


def _product_marginals(state) -> dict[str, np.ndarray]:
    """Both channels' reduced states of a product state, keyed by unit.

    Validates ``state`` once and raises ``UnsupportedState`` when it is not
    the product of its two reduced states.
    """
    rho = validate_density_matrix(state)
    r = rho.reshape(2, 2, 2, 2)
    marginals = {unit: np.einsum(spec, r) for unit, spec in _REDUCE.items()}
    residual = np.max(np.abs(rho - np.kron(marginals[UNIT_A], marginals[UNIT_B])))
    if not residual <= _PRODUCT_ATOL:  # a NaN residual is no product either
        raise UnsupportedState(
            "integrated information is only defined here for product states "
            "of the two channels; entangled inputs are rejected"
        )
    return marginals


def quantum_phi_unit(unit: str, state, direction: str) -> float:
    """Integrated cause or effect information of one channel, in bits.

    Under the swap rule the partner's constrained repertoire in either
    direction is the unit's own reduced state, and the partitioned
    repertoire is the maximally mixed qubit, so both directions evaluate
    QID(rho_unit || I/2).
    """
    if direction not in ("cause", "effect"):
        raise ValueError("direction must be 'cause' or 'effect'")
    if unit not in UNITS:
        raise ValueError(f"unknown unit {unit!r}")
    return qid(_product_marginals(state)[unit], maximally_mixed(2))


@dataclass(frozen=True)
class QuantumPhiReport:
    """Subsystem breakdown of the quantum integrated information."""

    phi_a: float
    phi_b: float
    phi_ab: float
    big_phi: float

    def to_json(self) -> dict:
        return {
            "phi_A": self.phi_a,
            "phi_B": self.phi_b,
            "phi_AB": self.phi_ab,
            "big_phi": self.big_phi,
        }


def quantum_big_phi(state) -> QuantumPhiReport:
    """Total integrated information phi(A) + phi(B) + phi(AB) of the dyad.

    A unit's phi is min(cause, effect), and under the swap rule both
    directions are the one QID(rho_unit || I/2) of :func:`quantum_phi_unit`,
    so each unit takes one QID of its reduced state.  phi(AB) is identically
    zero: the whole system admits a partition across a unit's absent
    self-link, which removes no information.
    """
    marginals = _product_marginals(state)
    phi_a, phi_b = (qid(marginals[unit], maximally_mixed(2)) for unit in UNITS)
    phi_ab = 0.0
    return QuantumPhiReport(
        phi_a=phi_a, phi_b=phi_b, phi_ab=phi_ab, big_phi=phi_a + phi_b + phi_ab
    )
