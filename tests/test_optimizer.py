"""Eigenvalue optimization: frozen reference results and lattice cross-checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import optimizer
from dyadlab.optimizer import EigenAssignment, SWAP_TABLE

ATOL = 1e-9


def _ea(*values):
    return EigenAssignment.from_values(values)


def _tuples(result):
    return [m.as_tuple() for m in result.minimizers]


def table_from_upper(entries):
    table = np.zeros((4, 4))
    idx = 0
    for i in range(4):
        for j in range(i + 1, 4):
            table[i, j] = table[j, i] = entries[idx]
            idx += 1
    return table


def test_feasible_frozen_examples():
    assert optimizer.feasible(_ea(2, 0, 4, 6), SWAP_TABLE)
    assert not optimizer.feasible(_ea(0, 0, 0, 0), SWAP_TABLE)
    assert not optimizer.feasible(_ea(2, 0, 4, 5), SWAP_TABLE)


def test_feasible_rejects_negative_values():
    assert not optimizer.feasible(_ea(-1, 3, 7, 9), np.zeros((4, 4)))


def test_solve_swap_table():
    result = optimizer.solve(SWAP_TABLE)
    assert len(result.minimizers) == 12
    assert result.optimal_sum == pytest.approx(12.0, abs=ATOL)
    expected = {
        perm
        for perm in itertools.permutations((0.0, 2.0, 4.0, 6.0))
        if abs(perm[1] - perm[2]) >= 4.0
    }
    assert set(_tuples(result)) == expected
    # named instances from the reference solution set
    assert (2.0, 0.0, 4.0, 6.0) in set(_tuples(result))
    assert (6.0, 4.0, 0.0, 2.0) in set(_tuples(result))
    assert (2.0, 0.0, 6.0, 4.0) in set(_tuples(result))


def test_solve_zero_table():
    result = optimizer.solve(np.zeros((4, 4)))
    assert _tuples(result) == [(0.0, 0.0, 0.0, 0.0)]
    assert result.optimal_sum == 0.0


def test_solve_unit_distance_table():
    table = table_from_upper([1, 1, 1, 1, 1, 1])
    result = optimizer.solve(table)
    assert set(_tuples(result)) == set(itertools.permutations((0.0, 1.0, 2.0, 3.0)))
    assert result.optimal_sum == pytest.approx(6.0, abs=ATOL)
    oracle = optimizer.grid_oracle(table, granularity=1.0)
    assert _tuples(oracle) == _tuples(result)


def test_minimizers_sorted_lexicographically_and_default_pick():
    result = optimizer.solve(SWAP_TABLE)
    tuples = _tuples(result)
    assert tuples == sorted(tuples)
    assert result.default_pick.as_tuple() == (0.0, 2.0, 6.0, 4.0)


def test_all_minimizers_feasible_and_zero_anchored():
    result = optimizer.solve(SWAP_TABLE)
    for m in result.minimizers:
        assert optimizer.feasible(m, SWAP_TABLE)
        assert min(m.as_tuple()) <= ATOL


def test_pairwise_rate_sum_frozen_values():
    assert optimizer.pairwise_rate_sum(_ea(2, 0, 4, 6)) == pytest.approx(20.0, abs=ATOL)
    assert optimizer.pairwise_rate_sum(_ea(0, 0, 0, 0)) == 0.0
    assert optimizer.pairwise_rate_sum(_ea(2, 0, 6, 4)) == pytest.approx(20.0, abs=ATOL)


def test_minimizers_share_pairwise_rate_sum_twenty():
    result = optimizer.solve(SWAP_TABLE)
    assert all(v == pytest.approx(20.0, abs=ATOL) for v in result.pairwise_rate_sums)


def test_minimizers_also_minimize_pairwise_rate_sum_over_lattice():
    # among zero-anchored feasible lattice points, no point beats the
    # minimizers' total pairwise gap
    axis = np.arange(0.0, 12.5, 1.0)
    best = None
    winners = set()
    for point in itertools.product(axis, repeat=4):
        if min(point) > 0.0:
            continue
        assignment = EigenAssignment.from_values(point)
        if not optimizer.feasible(assignment, SWAP_TABLE):
            continue
        rate = optimizer.pairwise_rate_sum(assignment)
        if best is None or rate < best - ATOL:
            best, winners = rate, {point}
        elif rate <= best + ATOL:
            winners.add(point)
    assert best == pytest.approx(20.0, abs=ATOL)
    minimizer_tuples = set(_tuples(optimizer.solve(SWAP_TABLE)))
    assert minimizer_tuples <= winners


def test_over_satisfaction_of_one_gap():
    # the (2,0,4,6) minimizer separates the 01/11 pair by 6 even though the
    # table only demands 2
    m = _ea(2, 0, 4, 6)
    assert optimizer.feasible(m, SWAP_TABLE)
    assert abs(m.lambda_01 - m.lambda_11) == 6.0
    assert SWAP_TABLE[1, 3] == 2.0


def test_grid_oracle_matches_solve_on_swap_table():
    result = optimizer.solve(SWAP_TABLE)
    oracle = optimizer.grid_oracle(SWAP_TABLE, granularity=1.0, bound=12.0)
    assert _tuples(oracle) == _tuples(result)
    assert oracle.optimal_sum == pytest.approx(result.optimal_sum, abs=ATOL)


def test_grid_oracle_finer_granularity_finds_nothing_better():
    oracle = optimizer.grid_oracle(SWAP_TABLE, granularity=0.5, bound=12.0)
    assert oracle.optimal_sum == pytest.approx(12.0, abs=ATOL)


def test_grid_oracle_zero_table():
    oracle = optimizer.grid_oracle(np.zeros((4, 4)), granularity=1.0, bound=0.0)
    assert _tuples(oracle) == [(0.0, 0.0, 0.0, 0.0)]


def test_grid_oracle_bound_validation():
    with pytest.raises(ValueError, match="bound"):
        optimizer.grid_oracle(SWAP_TABLE, granularity=1.0, bound=6.0)
    with pytest.raises(ValueError, match="granularity"):
        optimizer.grid_oracle(SWAP_TABLE, granularity=0.0)


def test_grid_oracle_refuses_huge_lattice_before_allocating(monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("lattice built before its size was checked")

    monkeypatch.setattr(np, "arange", no_lattice)
    monkeypatch.setattr(np, "meshgrid", no_lattice)
    for granularity in (1e-3, 1e-110, 1e-320):
        with pytest.raises(ValueError, match=f"granularity {granularity!r}"):
            optimizer.grid_oracle(SWAP_TABLE, granularity=granularity)
    for granularity in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="granularity"):
            optimizer.grid_oracle(SWAP_TABLE, granularity=granularity)
    with pytest.raises(ValueError, match="bound"):
        optimizer.grid_oracle(SWAP_TABLE, granularity=1.0, bound=float("inf"))


def test_solve_matches_oracle_on_random_integer_tables(rng):
    for _ in range(24):
        entries = rng.integers(0, 7, size=6)
        table = table_from_upper(entries.astype(float))
        result = optimizer.solve(table)
        oracle = optimizer.grid_oracle(table, granularity=1.0)
        assert _tuples(result) == _tuples(oracle), table
        for m in result.minimizers:
            assert optimizer.feasible(m, table)
            assert min(m.as_tuple()) <= ATOL


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=6, max_size=6))
def test_solve_matches_oracle_property(entries):
    table = table_from_upper([float(e) for e in entries])
    result = optimizer.solve(table)
    oracle = optimizer.grid_oracle(table, granularity=1.0)
    assert _tuples(result) == _tuples(oracle)


@pytest.mark.parametrize(
    "upper, optimal_sum",
    [((1e-300,) * 6, 0.0), ((5e-10, 2.0, 2.0, 2.0, 2.0, 4.0), 8.0)],
)
def test_entries_within_tolerance_impose_no_gap(upper, optimal_sum):
    table = table_from_upper(upper)
    result = optimizer.solve(table)
    oracle = optimizer.grid_oracle(table, granularity=1.0)
    assert result.optimal_sum == oracle.optimal_sum == optimal_sum
    assert _tuples(result) == _tuples(oracle)


def test_table_validation():
    with pytest.raises(ValueError):
        optimizer.validate_table(np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        optimizer.validate_table(np.ones((4, 4)))  # nonzero diagonal
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        optimizer.validate_table(bad)  # asymmetric


def test_eigen_assignment_round_trip():
    m = _ea(2, 0, 4, 6)
    assert m.as_tuple() == (2.0, 0.0, 4.0, 6.0)
    assert EigenAssignment.from_values(m.to_json()) == m
    with pytest.raises(ValueError):
        EigenAssignment.from_values((1.0, 2.0))
