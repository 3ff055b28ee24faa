"""Density-operator integrated information: frozen values, reductions, and a
general spectral QID as the oracle for the closed form."""

import math

import numpy as np
import pytest
from scipy.linalg import logm

from conftest import random_density, random_pure
from dyadlab import model, phi, qiit
from dyadlab.errors import UnsupportedState

ATOL = 1e-12

KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def _proj(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def _basis_projector(index):
    psi = np.zeros(4, dtype=complex)
    psi[index] = 1.0
    return _proj(psi)


PLUS0 = _proj(np.kron(KET_PLUS, KET_0))
ZEROPLUS = _proj(np.kron(KET_0, KET_PLUS))
MM2 = np.eye(2, dtype=complex) / 2.0
MM4 = np.kron(MM2, MM2)


def _ensemble(rho):
    """Eigenvalues above 1e-12 of ``rho`` and their eigenstates, one per row."""
    w, v = np.linalg.eigh(rho)
    keep = w > 1e-12
    return w[keep], v[:, keep].T


def _qid_terms(p_probs, p_states, q_probs, q_states):
    """Per-eigenstate terms p_i (log2 p_i - sum_j |<psi_i|phi_j>|^2 log2 q_j)."""
    overlaps = np.abs(p_states.conj() @ q_states.T) ** 2
    return p_probs * (np.log2(p_probs) - overlaps @ np.log2(q_probs))


def spectral_qid(rho, sigma):
    """QID(rho || sigma) in bits for any full-support ``sigma``: the largest
    per-eigenstate term of the two spectral ensembles."""
    return float(np.max(_qid_terms(*_ensemble(rho), *_ensemble(sigma))))


def _random_product_parts(rng, mixed):
    return [random_density(rng, 2) if mixed else _proj(random_pure(rng, 2)) for _ in range(2)]


def test_swap_unitary_is_the_basis_permutation():
    # |a b> -> |b a>: column s holds the basis vector of swap(s)
    u = np.zeros((4, 4))
    for s in model.ALL_STATES:
        u[model.swap().apply(s).index, s.index] = 1.0
    assert np.array_equal(u, u.conj().T)
    assert np.array_equal(u @ u, np.eye(4))
    psi = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
    swapped = u @ psi
    assert swapped.tolist() == [0.1, 0.3, 0.2, 0.4]


def test_non_finite_states_are_refused_by_name():
    rho = np.diag([math.nan, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="density matrix has a non-finite entry"):
        qiit.quantum_big_phi(rho)


def test_qid_equals_relative_entropy_for_pure_states(rng):
    # checks the oracle: for pure rho = |psi><psi|, S(rho||sigma) = -<psi|log2 sigma|psi>
    for _ in range(10):
        psi = random_pure(rng, 2)
        # keep sigma full rank so the divergence is finite
        sigma = 0.9 * random_density(rng, 2) + 0.1 * MM2
        relative_entropy = -(psi.conj() @ logm(sigma) @ psi).real / math.log(2.0)
        assert spectral_qid(_proj(psi), sigma) == pytest.approx(relative_entropy, abs=1e-10)


def test_qid_frozen_values():
    assert spectral_qid(_proj(KET_PLUS), MM2) == pytest.approx(1.0, abs=ATOL)
    assert spectral_qid(_proj(KET_PLUS), _proj(KET_PLUS)) == pytest.approx(0.0, abs=ATOL)
    assert spectral_qid(MM2, MM2) == pytest.approx(0.0, abs=ATOL)
    report = qiit.quantum_big_phi(np.kron(_proj(KET_PLUS), MM2))
    assert (report.phi_a, report.phi_b) == (pytest.approx(1.0, abs=ATOL), 0.0)


def test_qid_is_basis_independent_within_degenerate_subspaces():
    # I/2 is degenerate: any orthonormal basis is an eigenbasis of it
    probs = np.array([0.5, 0.5])
    basis_comp = np.stack([KET_0, KET_1])
    basis_diag = np.stack(
        [
            np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
            np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
        ]
    )
    p_probs, p_states = _ensemble(_proj(KET_PLUS))
    terms_comp = _qid_terms(p_probs, p_states, probs, basis_comp)
    terms_diag = _qid_terms(p_probs, p_states, probs, basis_diag)
    assert terms_comp.max() == pytest.approx(terms_diag.max(), abs=ATOL)
    assert terms_comp.sum() == pytest.approx(terms_diag.sum(), abs=ATOL)
    assert qiit.quantum_big_phi(PLUS0).phi_a == pytest.approx(terms_comp.max(), abs=1e-14)


def test_spectral_ensemble_round_trip(rng):
    # checks the oracle's ensembles
    for dim in (2, 4):
        for _ in range(5):
            rho = random_density(rng, dim)
            probs, states = _ensemble(rho)
            assert np.all(probs > 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)
            gram = states.conj() @ states.T
            assert np.allclose(gram, np.eye(len(probs)), atol=1e-10)
            reconstructed = np.einsum("i,ij,ik->jk", probs, states, states.conj())
            assert np.allclose(reconstructed, rho, atol=1e-10)


def test_partial_traces_of_product_states():
    marginals = qiit._product_marginals(PLUS0)
    assert np.allclose(marginals["A"], _proj(KET_PLUS), atol=ATOL)
    assert np.allclose(marginals["B"], _proj(KET_0), atol=ATOL)
    assert np.allclose(qiit._product_marginals(MM4)["A"], MM2, atol=ATOL)


def test_quantum_phi_unit_frozen_values():
    report = qiit.quantum_big_phi(ZEROPLUS)
    # with B in the balanced pure state its term is one full bit
    assert report.phi_b == pytest.approx(1.0, abs=ATOL)
    # with A in the definite 0 state its term is also one bit
    assert report.phi_a == pytest.approx(1.0, abs=ATOL)


def test_quantum_phi_matches_classical_on_basis_states():
    s = model.swap()
    for st in model.ALL_STATES:
        rho = _basis_projector(st.index)
        quantum = qiit.quantum_big_phi(rho)
        classical = phi.big_phi(s, st)
        assert quantum.phi_a == pytest.approx(classical.phi_a, abs=ATOL)
        assert quantum.phi_b == pytest.approx(classical.phi_b, abs=ATOL)
        for unit, part in qiit._product_marginals(rho).items():
            assert spectral_qid(part, MM2) == pytest.approx(
                classical.phi_a if unit == "A" else classical.phi_b, abs=ATOL
            )


def test_quantum_big_phi_superposed_state():
    report = qiit.quantum_big_phi(PLUS0)
    assert report.phi_a == pytest.approx(1.0, abs=ATOL)
    assert report.phi_b == pytest.approx(1.0, abs=ATOL)
    assert report.phi_ab == 0.0
    assert report.big_phi == pytest.approx(2.0, abs=ATOL)


def test_quantum_big_phi_reduces_to_classical_on_basis_states():
    s = model.swap()
    for st in model.ALL_STATES:
        quantum = qiit.quantum_big_phi(_basis_projector(st.index)).big_phi
        classical = phi.big_phi(s, st).big_phi
        assert quantum == pytest.approx(classical, abs=ATOL)


def test_quantum_big_phi_of_maximally_mixed_state_vanishes():
    report = qiit.quantum_big_phi(MM4)
    assert report.phi_a == pytest.approx(0.0, abs=ATOL)
    assert report.phi_b == pytest.approx(0.0, abs=ATOL)
    assert report.big_phi == pytest.approx(0.0, abs=ATOL)
    assert spectral_qid(MM2, MM2) == pytest.approx(0.0, abs=ATOL)


def test_entangled_states_are_rejected():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    with pytest.raises(UnsupportedState):
        qiit.quantum_big_phi(_proj(bell))


def test_a_small_entangled_admixture_is_no_product_state():
    # mixing 4e-8 of |Phi+> into a product state leaves a residual of 2.9e-8
    # against the product of its marginals: far past 1e-10, inside 1e-6
    qubit = _proj([0.6, 0.8])
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    eps = 4e-8
    with pytest.raises(UnsupportedState):
        qiit.quantum_big_phi((1.0 - eps) * np.kron(qubit, qubit) + eps * _proj(bell))


def test_quantum_big_phi_is_min_over_directions_of_each_unit(rng):
    # under the swap rule a unit's cause and effect terms are both
    # QID(rho_unit || I/2), so their minimum is that one divergence
    for mixed in (False, True):
        for _ in range(10):
            parts = _random_product_parts(rng, mixed)
            report = qiit.quantum_big_phi(np.kron(*parts))
            for value, part in ((report.phi_a, parts[0]), (report.phi_b, parts[1])):
                assert value == pytest.approx(spectral_qid(part, MM2), abs=1e-9)
            assert report.big_phi == report.phi_a + report.phi_b
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1.0 / math.sqrt(2.0)
    with pytest.raises(UnsupportedState):
        qiit.quantum_big_phi(_proj(bell))
    with pytest.raises(ValueError, match="trace"):
        qiit.quantum_big_phi(2.0 * MM4)


def test_closed_form_matches_spectral_qid_on_random_product_states(rng):
    for mixed in (False, True):
        for _ in range(1000):
            parts = _random_product_parts(rng, mixed)
            report = qiit.quantum_big_phi(np.kron(*parts))
            assert abs(report.phi_a - spectral_qid(parts[0], MM2)) <= 1e-14
            assert abs(report.phi_b - spectral_qid(parts[1], MM2)) <= 1e-14


def _numpy_unit_phis(rho):
    """(phi_A, phi_B) from numpy's reductions of ``rho``: ``einsum`` partial
    traces, the ``kron`` residual and the closed form on ndarray marginals."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    m_a, m_b = np.einsum("abcb->ac", r), np.einsum("abad->bd", r)
    assert np.max(np.abs(r.reshape(4, 4) - np.kron(m_a, m_b))) <= 1e-10
    phis = []
    for m in (m_a, m_b):
        p = (1.0 + math.hypot(m[0, 0].real - m[1, 1].real, 2.0 * abs(m[0, 1]))) / 2.0
        phis.append(p * (math.log2(p) + 1.0))
    return tuple(phis)


def test_quantum_big_phi_equals_the_numpy_reductions_bitwise(rng):
    for mixed in (False, True):
        for _ in range(500):
            rho = np.kron(*_random_product_parts(rng, mixed))
            expected = _numpy_unit_phis(rho)
            for state in (rho, rho.tolist()):
                report = qiit.quantum_big_phi(state)
                assert (report.phi_a, report.phi_b) == expected


def test_report_json_field_names():
    data = qiit.quantum_big_phi(PLUS0).to_json()
    assert set(data) == {"phi_A", "phi_B", "phi_AB", "big_phi"}
