"""Density-operator integrated information: frozen values and reductions."""

import math

import numpy as np
import pytest

from conftest import random_density, random_pure
from dyadlab import model, phi, qdyn, qiit
from dyadlab.errors import InfiniteDivergence, NotUnitary, UnsupportedState

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
MM2 = qiit.maximally_mixed(2)
MM4 = np.kron(MM2, MM2)


def test_swap_unitary_is_the_basis_permutation():
    u = qiit.swap_unitary()
    assert np.array_equal(u, u.conj().T)
    assert np.array_equal(u @ u, np.eye(4))
    psi = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
    swapped = u @ psi
    assert swapped.tolist() == [0.1, 0.3, 0.2, 0.4]


def test_unitary_step_frozen_examples():
    u = qiit.swap_unitary()
    assert np.allclose(qiit.unitary_step(ZEROPLUS, u), PLUS0, atol=ATOL)
    assert np.allclose(qiit.unitary_step(MM4, u), MM4, atol=ATOL)
    assert np.allclose(
        qiit.unitary_step(_basis_projector(1), u), _basis_projector(2), atol=ATOL
    )


def test_unitary_step_preserves_density_invariants(rng):
    u = qiit.swap_unitary()
    for _ in range(5):
        rho = random_density(rng, 4)
        out = qiit.unitary_step(rho, u)
        qdyn.validate_density_matrix(out)


def test_unitary_step_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        qiit.unitary_step(MM4, 2.0 * np.eye(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_unitary_step_refuses_non_finite_entries(bad):
    with pytest.raises(ValueError, match="unitary has a non-finite entry"):
        qiit.unitary_step(MM4, np.diag([bad, 1.0, 1.0, 1.0]))


def test_non_finite_states_are_refused_by_name():
    rho = np.diag([math.nan, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="density matrix has a non-finite entry"):
        qiit.quantum_big_phi(rho)
    with pytest.raises(ValueError, match="density matrix has a non-finite entry"):
        qiit.qid(np.diag([math.nan, 1.0]), MM2)


def test_relative_entropy_frozen_values():
    assert qiit.quantum_relative_entropy(_proj(KET_0), MM2) == pytest.approx(1.0, abs=ATOL)
    assert qiit.quantum_relative_entropy(_proj(KET_PLUS), MM2) == pytest.approx(
        1.0, abs=ATOL
    )


def test_relative_entropy_of_state_with_itself_is_zero(rng):
    for dim in (2, 4):
        for _ in range(5):
            rho = random_density(rng, dim)
            assert qiit.quantum_relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)


def test_relative_entropy_support_guard():
    with pytest.raises(InfiniteDivergence):
        qiit.quantum_relative_entropy(_proj(KET_0), _proj(KET_1))
    with pytest.raises(InfiniteDivergence):
        qiit.quantum_relative_entropy(MM2, _proj(KET_PLUS))


def test_qid_equals_relative_entropy_for_pure_states(rng):
    for _ in range(10):
        psi = random_pure(rng, 2)
        sigma = random_density(rng, 2)
        # keep sigma full rank so the divergence is finite
        sigma = 0.9 * sigma + 0.1 * MM2
        assert qiit.qid(_proj(psi), sigma) == pytest.approx(
            qiit.quantum_relative_entropy(_proj(psi), sigma), abs=1e-10
        )


def test_qid_frozen_values():
    assert qiit.qid(_proj(KET_PLUS), MM2) == pytest.approx(1.0, abs=ATOL)
    assert qiit.qid(_proj(KET_PLUS), _proj(KET_PLUS)) == pytest.approx(0.0, abs=ATOL)
    assert qiit.qid(MM2, MM2) == pytest.approx(0.0, abs=ATOL)


def test_qid_is_basis_independent_within_degenerate_subspaces():
    probs = np.array([0.5, 0.5])
    basis_comp = np.stack([KET_0, KET_1])
    basis_diag = np.stack(
        [
            np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
            np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
        ]
    )
    p_probs, p_states = qiit.spectral_ensemble(_proj(KET_PLUS))
    terms_comp = qiit._information_terms(p_probs, p_states, probs, basis_comp)
    terms_diag = qiit._information_terms(p_probs, p_states, probs, basis_diag)
    assert terms_comp.max() == pytest.approx(terms_diag.max(), abs=ATOL)
    assert terms_comp.sum() == pytest.approx(terms_diag.sum(), abs=ATOL)


def test_spectral_ensemble_round_trip(rng):
    for dim in (2, 4):
        for _ in range(5):
            rho = random_density(rng, dim)
            probs, states = qiit.spectral_ensemble(rho)
            assert np.all(probs > 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)
            gram = states.conj() @ states.T
            assert np.allclose(gram, np.eye(len(probs)), atol=1e-10)
            reconstructed = np.einsum("i,ij,ik->jk", probs, states, states.conj())
            assert np.allclose(reconstructed, rho, atol=1e-10)


def test_partial_traces_of_product_states():
    assert np.allclose(qiit.partial_trace(PLUS0, "A"), _proj(KET_PLUS), atol=ATOL)
    assert np.allclose(qiit.partial_trace(PLUS0, "B"), _proj(KET_0), atol=ATOL)
    assert np.allclose(qiit.partial_trace(MM4, "A"), MM2, atol=ATOL)


def test_quantum_phi_unit_frozen_values():
    # with B in the balanced pure state its effect term is one full bit
    assert qiit.quantum_phi_unit("B", ZEROPLUS, "effect") == pytest.approx(1.0, abs=ATOL)
    # with A in the definite 0 state its cause term is also one bit
    assert qiit.quantum_phi_unit("A", ZEROPLUS, "cause") == pytest.approx(1.0, abs=ATOL)


def test_quantum_phi_matches_classical_on_basis_states():
    s = model.swap()
    for st in model.ALL_STATES:
        rho = _basis_projector(st.index)
        for unit in ("A", "B"):
            classical = phi.phi_unit(s, unit, st)
            for direction in ("cause", "effect"):
                assert qiit.quantum_phi_unit(unit, rho, direction) == pytest.approx(
                    classical, abs=ATOL
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


def test_entangled_states_are_rejected():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    with pytest.raises(UnsupportedState):
        qiit.quantum_phi_unit("A", _proj(bell), "effect")
    with pytest.raises(UnsupportedState):
        qiit.quantum_big_phi(_proj(bell))


def test_quantum_big_phi_is_min_over_directions_of_each_unit(rng):
    for mixed in (False, True):
        for _ in range(10):
            parts = [
                random_density(rng, 2) if mixed else _proj(random_pure(rng, 2)) for _ in range(2)
            ]
            rho = np.kron(*parts)
            report = qiit.quantum_big_phi(rho)
            for unit, value, part in (("A", report.phi_a, parts[0]), ("B", report.phi_b, parts[1])):
                directions = [qiit.quantum_phi_unit(unit, rho, d) for d in ("cause", "effect")]
                assert value == min(directions)
                assert value == pytest.approx(qiit.qid(part, MM2), abs=1e-9)
            assert report.big_phi == report.phi_a + report.phi_b
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1.0 / math.sqrt(2.0)
    with pytest.raises(UnsupportedState):
        qiit.quantum_big_phi(_proj(bell))
    with pytest.raises(ValueError, match="trace"):
        qiit.quantum_big_phi(2.0 * MM4)


def test_report_json_field_names():
    data = qiit.quantum_big_phi(PLUS0).to_json()
    assert set(data) == {"phi_A", "phi_B", "phi_AB", "big_phi"}
