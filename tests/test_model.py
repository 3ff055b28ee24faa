import itertools

import numpy as np
import pytest

from dyadlab import model
from dyadlab.model import ALL_STATES, DyadState, Tpm2


def test_state_index_is_lexicographic():
    assert [s.index for s in ALL_STATES] == [0, 1, 2, 3]
    assert ALL_STATES[2] == DyadState(1, 0)


def test_index_round_trip():
    for i in range(4):
        assert DyadState.from_index(i).index == i


def test_state_validation():
    with pytest.raises(ValueError):
        DyadState(2, 0)
    with pytest.raises(ValueError):
        DyadState.from_index(4)


def test_swap_examples():
    s = model.swap()
    assert s.apply(DyadState(0, 1)) == DyadState(1, 0)
    assert s.apply(DyadState(0, 0)) == DyadState(0, 0)


def test_identity_example():
    assert model.identity_tpm().apply(DyadState(1, 0)) == DyadState(1, 0)


def test_swap_has_period_two():
    s = model.swap()
    for st in ALL_STATES:
        assert s.apply(s.apply(st)) == st


def test_predecessors_of_swap():
    s = model.swap()
    assert s.predecessors(DyadState(1, 0)) == frozenset({DyadState(0, 1)})
    assert s.predecessors(DyadState(1, 1)) == frozenset({DyadState(1, 1)})


def test_predecessors_of_constant_rule():
    const = Tpm2([0, 0, 0, 0])
    assert const.predecessors(DyadState(0, 0)) == frozenset(ALL_STATES)
    assert const.predecessors(DyadState(1, 0)) == frozenset()


def _single_reader_bijections():
    rules = []
    for outputs in itertools.permutations(range(4)):
        try:
            rules.append(Tpm2(outputs))
        except ValueError:
            continue
    return rules


def test_bijective_rules_invert_through_predecessors():
    rules = _single_reader_bijections()
    assert rules, "expected at least one bijective single-reader rule"
    for tpm in rules:
        assert tpm.is_bijective
        for st in ALL_STATES:
            preds = tpm.predecessors(st)
            assert len(preds) == 1
            (pred,) = preds
            assert tpm.apply(pred) == st
            assert tpm.predecessors(tpm.apply(st)) == frozenset({st})


def test_dependencies_of_builtin_rules():
    assert model.swap().dependency("A") == "B"
    assert model.swap().dependency("B") == "A"
    assert model.swap().is_cross_coupled
    assert model.not_swap().is_cross_coupled
    ident = model.identity_tpm()
    assert ident.dependency("A") == "A"
    assert ident.dependency("B") == "B"
    assert not ident.is_cross_coupled
    assert Tpm2([0, 0, 0, 0]).dependency("A") is None


def test_two_input_reader_is_rejected():
    # next a = a AND b makes output A read both inputs
    outputs = [DyadState(s.a & s.b, s.b).index for s in ALL_STATES]
    with pytest.raises(ValueError, match="reads both"):
        Tpm2(outputs)


def test_json_round_trips():
    st = DyadState(1, 0)
    assert st.to_json() == [1, 0]
    assert DyadState.from_json(st.to_json()) == st
    s = model.swap()
    assert s.to_json() == [0, 2, 1, 3]
    assert Tpm2.from_json(s.to_json()) == s


def test_tpm_validation():
    with pytest.raises(ValueError):
        Tpm2([0, 1, 2])
    with pytest.raises(ValueError):
        Tpm2([0, 1, 2, 7])


def _density_with_smallest_eigenvalue(rng, dim, rank, smallest):
    """A Hermitian ``dim`` x ``dim`` matrix of trace 1 from ``rank`` random
    positive eigenvalues, the smallest of its eigenvalues set to ``smallest``."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    w = np.zeros(dim)
    w[:rank] = rng.random(rank) + 0.05
    w /= w.sum()
    w[np.argmin(w)] = smallest
    w[np.argmax(w)] += 1.0 - w.sum()
    rho = (q * w) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("dim", [2, 4])
def test_positivity_check_agrees_with_eigvalsh_at_the_tolerance(dim):
    # smallest eigenvalues around -1e-8, the tolerance: each is refused iff
    # eigvalsh's smallest eigenvalue is below it
    rng = np.random.default_rng(36)
    cases = {-1.2e-8: False, -1e-8 - 1e-14: False, -1e-8 + 1e-14: True, -0.8e-8: True, 0.0: True,
             -1e-6: False}
    for rank in range(1, dim + 1):
        for smallest, accepted in cases.items():
            for n in range(60):
                rho = _density_with_smallest_eigenvalue(rng, dim, rank, smallest)
                if n % 2:
                    # Hermitian within 1e-10 but not exactly: eigvalsh reads the
                    # lower triangle, and so must the check
                    noise = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
                    rho = rho + np.triu(noise, 1) * 2e-11
                assert bool(np.linalg.eigvalsh(rho).min() >= -1e-8) is accepted  # the oracle
                try:
                    model.validate_density_matrix(rho, dim=dim)
                except ValueError as exc:
                    assert not accepted and "negative eigenvalue" in str(exc), (rank, smallest)
                else:
                    assert accepted, (rank, smallest, rho.tolist())


def test_density_matrix_check_takes_nested_sequences_and_returns_complex_rows():
    rows = model.validate_density_matrix([[0.75, 0.25j], [-0.25j, 0.25]], dim=2)
    assert rows == [[0.75, 0.25j], [-0.25j, 0.25]]
    assert all(type(v) is complex for row in rows for v in row)
    # a row given as a string of digits is one value, as numpy reads it, not one entry per digit
    for bad in (0.5, [0.5, 0.5], [[1.0, 0.0], [0.0]], [[[1.0]]], ["10", "00"]):
        with pytest.raises(ValueError, match="must be 2x2"):
            model.validate_density_matrix(bad, dim=2)
