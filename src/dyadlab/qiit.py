"""Density-operator integrated information for the quantum dyad.

Distributions become density operators and the pointwise information measure
becomes its quantum extension: given spectral ensembles
``rho = sum_i p_i |psi_i><psi_i|`` and ``sigma = sum_j q_j |phi_j><phi_j|``
with overlaps ``P_ij = |<psi_i|phi_j>|^2``,

* relative entropy:  ``S(rho||sigma) = sum_i p_i (log2 p_i - sum_j P_ij log2 q_j)``
* intrinsic difference:  ``QID(rho||sigma) = max_i p_i (log2 p_i - sum_j P_ij log2 q_j)``

For pure ``rho`` the two coincide.  Partition noise is the maximally mixed
qubit, so under the swap rule a unit's cause and effect repertoires both
equal its own reduced state and its integrated information is
``QID(rho_unit || I/2)``.  The whole-system term vanishes for the dyad
because a partition cutting a unit's absent self-link removes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfiniteDivergence, NotUnitary, UnsupportedState
from .model import UNIT_A, UNIT_B
from .model import swap as _swap_rule
from .qdyn import DIM, permutation_unitary, validate_density_matrix

_EIG_TOL = 1e-12
_SUPPORT_ATOL = 1e-10


def maximally_mixed(dim: int = 2) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


@dataclass(frozen=True, eq=False)
class SpectralEnsemble:
    """Eigenvalues above tolerance with their eigenstates (one per row)."""

    probs: np.ndarray
    states: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return np.einsum("i,ij,ik->jk", self.probs, self.states, self.states.conj())


def spectral_ensemble(rho, tol: float = _EIG_TOL) -> SpectralEnsemble:
    """Spectral decomposition of a qubit or dyad density operator, zero modes dropped."""
    rho = validate_density_matrix(rho, dim=2 if np.shape(rho) == (2, 2) else DIM)
    w, v = np.linalg.eigh(rho)
    keep = w > tol
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
    r = rho.reshape(2, 2, 2, 2)
    if keep == UNIT_A:
        return np.einsum("abcb->ac", r)
    if keep == UNIT_B:
        return np.einsum("abad->bd", r)
    raise ValueError(f"unknown unit {keep!r}")


def is_product_state(rho, atol: float = 1e-10) -> bool:
    rho = validate_density_matrix(rho)
    rho_a = partial_trace(rho, UNIT_A)
    rho_b = partial_trace(rho, UNIT_B)
    return bool(np.max(np.abs(rho - np.kron(rho_a, rho_b))) <= atol)


def _unit_state(state, unit: str) -> np.ndarray:
    if not is_product_state(state):
        raise UnsupportedState(
            "integrated information is only defined here for product states "
            "of the two channels; entangled inputs are rejected"
        )
    return partial_trace(state, unit)


def quantum_phi_unit(unit: str, state, direction: str) -> float:
    """Integrated cause or effect information of one channel, in bits.

    Under the swap rule the partner's constrained repertoire in either
    direction is the unit's own reduced state, and the partitioned
    repertoire is the maximally mixed qubit, so both directions evaluate
    QID(rho_unit || I/2).
    """
    if direction not in ("cause", "effect"):
        raise ValueError("direction must be 'cause' or 'effect'")
    if unit not in (UNIT_A, UNIT_B):
        raise ValueError(f"unknown unit {unit!r}")
    rho_unit = _unit_state(state, unit)
    return qid(rho_unit, maximally_mixed(2))


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

    phi(AB) is identically zero: the whole system admits a partition across
    a unit's absent self-link, which removes no information.
    """
    phi_a = min(
        quantum_phi_unit(UNIT_A, state, "cause"),
        quantum_phi_unit(UNIT_A, state, "effect"),
    )
    phi_b = min(
        quantum_phi_unit(UNIT_B, state, "cause"),
        quantum_phi_unit(UNIT_B, state, "effect"),
    )
    phi_ab = 0.0
    return QuantumPhiReport(
        phi_a=phi_a, phi_b=phi_b, phi_ab=phi_ab, big_phi=phi_a + phi_b + phi_ab
    )
