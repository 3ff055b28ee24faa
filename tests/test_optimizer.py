"""Eigenvalue optimization: frozen reference results and lattice cross-checks."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import optimizer
from dyadlab.errors import InfeasibleTable
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


def _scalar_feasible(values, table):
    """The feasibility rule one point at a time: the reference for the array rule."""
    tol = optimizer.TOLERANCE
    pairs = itertools.combinations(range(4), 2)
    return all(math.isfinite(v) and v >= -tol for v in values) and all(
        abs(values[i] - values[j]) >= table[i, j] - tol for i, j in pairs
    )


def _numpy_feasible(points, table):
    """Row mask of the ``(n, 4)`` points that meet the rule, written as numpy
    array operations: the reference for the plain-Python rule."""
    tol = optimizer.TOLERANCE
    mask = np.all(np.isfinite(points) & (points >= -tol), axis=1)
    with np.errstate(invalid="ignore"):  # the gap of two infinite values is NaN
        for i, j in itertools.combinations(range(4), 2):
            mask &= np.abs(points[:, i] - points[:, j]) >= table[i, j] - tol
    return mask


def _numpy_collect(points):
    """(minimizers, optimal sum) of the ``(n, 4)`` feasible points, from numpy's
    row sums and ``np.round(near, 9)`` keys: the reference for ``_collect``."""
    if not len(points):
        raise InfeasibleTable("no feasible point")
    sums = points.sum(axis=1)
    best = sums.min()
    near = points[sums <= best + optimizer.TOLERANCE]
    seen = dict(zip(map(tuple, np.round(near, 9).tolist()), map(tuple, near.tolist())))
    return tuple(EigenAssignment.from_values(p) for p in sorted(seen.values())), float(best)


def _numpy_solve(table):
    """``solve`` over numpy arrays: greedy completions of the 24 orderings."""
    table = np.asarray(table, dtype=float)
    placed = np.where(table <= optimizer.TOLERANCE, 0.0, table)
    points = []
    for order in itertools.permutations(range(4)):
        values = [0.0] * 4
        for pos in range(1, 4):
            i = order[pos]
            values[i] = max([values[order[pos - 1]]] + [values[j] + placed[i, j] for j in order[:pos]])
        points.append(values)
    points = np.array(points)
    return _numpy_collect(points[_numpy_feasible(points, table)])


def _numpy_grid_oracle(table, granularity):
    """``grid_oracle`` at its default bound over numpy arrays, every feasible
    lattice point handed to the reference ``_collect``."""
    table = np.asarray(table, dtype=float)
    axis = np.arange(0.0, 3.0 * table.max() + granularity / 2, granularity)
    free = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    grids = [np.insert(free, pinned, 0.0, axis=1) for pinned in range(4)]
    kept = np.concatenate([grid[_numpy_feasible(grid, table)] for grid in grids])
    return _numpy_collect(np.unique(kept, axis=0))


def _assert_feasible_cases(cases, table):
    for values, expected in cases:
        assert optimizer.feasible(_ea(*values), table) is expected, values
        assert _scalar_feasible(values, table) is expected, values


def test_feasible_frozen_examples():
    cases = [((2, 0, 4, 6), True), ((0, 0, 0, 0), False), ((2, 0, 4, 5), False)]
    non_finite = [((np.nan, 0, 4, 6), False), ((np.inf, np.inf, 0, 4), False)]
    non_finite += [((np.inf, 0, 0, 0), False), ((np.inf, np.inf, 0, 0), False)]
    _assert_feasible_cases(cases + non_finite, SWAP_TABLE)
    # the zero table sets no gap, so these are refused for their values alone
    _assert_feasible_cases([(values, False) for values, _ in non_finite], np.zeros((4, 4)))
    # a gap of exactly entry - TOLERANCE is met; one ulp less is not
    gap_table = table_from_upper([2.0, 0, 0, 0, 0, 0])
    edge = 2.0 - optimizer.TOLERANCE
    short = np.nextafter(edge, 0.0)
    _assert_feasible_cases([((0, edge, 0, 0), True), ((0, short, 0, 0), False)], gap_table)
    # the rule agrees with the scalar one on every row of a batch, given the
    # four coordinate columns as arrays and given each row as four floats
    values = [0.0, edge, short, 2.0, -optimizer.TOLERANCE, -1.0, np.nan, np.inf]
    points = np.random.default_rng(0).choice(values, size=(500, 4))
    expected = [_scalar_feasible(p, gap_table) for p in points.tolist()]
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which no rule accepts
        mask = optimizer._feasible(points.T, gap_table)
    assert mask.tolist() == expected
    assert [optimizer._feasible(p, gap_table) for p in points.tolist()] == expected
    assert 0 < mask.sum() < len(mask)


def test_feasible_rejects_negative_values():
    # every value may sit TOLERANCE below zero, and not one ulp further
    low = -optimizer.TOLERANCE
    below = np.nextafter(low, -1.0)
    cases = [((-1, 3, 7, 9), False), ((low, 0, 0, 0), True), ((below, 0, 0, 0), False)]
    _assert_feasible_cases(cases, np.zeros((4, 4)))


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


def test_eigen_assignment_is_the_tuple_of_its_values():
    m = EigenAssignment.from_values([0, 2, 6, 4])
    assert m == (0.0, 2.0, 6.0, 4.0) == m.as_tuple()
    assert (m[2], m.lambda_10) == (6.0, 6.0)
    assert json.dumps(m) == json.dumps(m.to_json()) == "[0.0, 2.0, 6.0, 4.0]"
    with pytest.raises(ValueError):
        EigenAssignment.from_values([0, 2, 6])


def test_all_minimizers_feasible_and_zero_anchored():
    result = optimizer.solve(SWAP_TABLE)
    for m in result.minimizers:
        assert optimizer.feasible(m, SWAP_TABLE)
        assert min(m.as_tuple()) <= ATOL


def test_pairwise_rate_sum_frozen_values():
    assert optimizer.pairwise_rate_sum(_ea(2, 0, 4, 6)) == pytest.approx(20.0, abs=ATOL)
    assert optimizer.pairwise_rate_sum(_ea(0, 0, 0, 0)) == 0.0
    assert optimizer.pairwise_rate_sum(_ea(2, 0, 6, 4)) == pytest.approx(20.0, abs=ATOL)


def test_pairwise_rate_sum_adds_left_to_right():
    # the six gaps add to 21.4 left to right; rounded once, as the builtin sum
    # of Python 3.12 and later rounds them, they give 21.400000000000002
    values = (3.6, 0.0, 0.8, 6.2)
    gaps = [abs(x - y) for x, y in itertools.combinations(values, 2)]
    assert optimizer.pairwise_rate_sum(_ea(*values)) == 21.4
    assert math.fsum(gaps) == 21.400000000000002


@pytest.mark.parametrize("odd", ["2", True, None, {}, [2.0], 2j])
def test_table_entries_must_be_numbers(odd):
    # a string that spells a number, or a bool, is refused, not read as one
    table = [list(row) for row in optimizer.SWAP_ROWS]
    table[0][1] = table[1][0] = odd
    for check in (optimizer.validate_table, optimizer.solve, optimizer.grid_oracle):
        with pytest.raises(ValueError, match=r"entry \(0, 1\) is not a number"):
            check(table)
    with pytest.raises(ValueError, match=r"entry \(0, 1\) is not a number"):
        optimizer.feasible(_ea(0, 2, 6, 4), table)
    for rows in ("table", {"a": 1}, [(0.0, 2.0)] * 3 + ["rows"], 2.0):
        with pytest.raises(ValueError, match="list of rows"):
            optimizer.validate_table(rows)


def test_table_rows_may_be_tuples_lists_or_an_ndarray():
    as_lists = [list(row) for row in optimizer.SWAP_ROWS]
    for table in (optimizer.SWAP_ROWS, as_lists, SWAP_TABLE, SWAP_TABLE.astype(int)):
        assert optimizer.validate_table(table) == optimizer.SWAP_ROWS


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


def test_grid_oracle_names_its_lattice_when_no_point_is_feasible():
    # the reference table is feasible (solve finds twelve minimizers), but the
    # lattices {0, 5, 10} and {0} on its default bound 12 hold no feasible point
    assert len(optimizer.solve(SWAP_TABLE).minimizers) == 12
    for granularity in (5.0, 1e308):
        with pytest.raises(InfeasibleTable) as exc:
            optimizer.grid_oracle(SWAP_TABLE, granularity=granularity)
        message = str(exc.value)
        assert f"lattice of granularity {granularity!r} on [0, 12.0]" in message
        assert message.endswith("use a finer granularity or a larger bound")
    # a larger bound makes the same granularity feasible
    assert optimizer.grid_oracle(SWAP_TABLE, granularity=5.0, bound=30.0).minimizers


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
    # half-integer entries on the half-unit lattice
    for _ in range(12):
        table = table_from_upper(rng.integers(0, 9, size=6) / 2.0)
        oracle = optimizer.grid_oracle(table, granularity=0.5)
        assert _tuples(optimizer.solve(table)) == _tuples(oracle), table


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


def test_table_validation_refuses_asymmetry_beyond_tolerance():
    # numpy's allclose added a relative 1e-5 to TOLERANCE, so this table
    # passed, and solve, solve of its transpose and grid_oracle then found
    # 8, 4 and 12 minimizers
    far = SWAP_TABLE.copy()
    far[1, 0] = 2.00001
    for check in (optimizer.validate_table, optimizer.solve, optimizer.grid_oracle):
        with pytest.raises(ValueError, match="symmetric"):
            check(far)
    near = SWAP_TABLE.copy()
    near[1, 0] = 2.0 + optimizer.TOLERANCE / 2
    assert optimizer.validate_table(near)[1] == (near[1, 0], 0.0, 4.0, 2.0)


def _random_upper(rng, step):
    """Six entries in [0, 4]: multiples of ``step``, or uniform when it is None."""
    if step is None:
        return rng.uniform(0.0, 4.0, size=6)
    return rng.integers(0, round(4.0 / step) + 1, size=6) * step


@pytest.mark.parametrize("step", [1.0, 0.5, 0.1, 1e-3, None])
def test_solve_and_grid_oracle_equal_the_numpy_reference(step):
    rng = np.random.default_rng(36)
    for n in range(200):
        table = table_from_upper(_random_upper(rng, step))
        result = optimizer.solve(table)
        assert (result.minimizers, result.optimal_sum) == _numpy_solve(table), table
        # the lattice search on every 8th table; on every 40th also at 0.5 and,
        # on the table scaled into [0, 1], at 0.1, whose inexact sums tie within TOLERANCE
        lattices = [(table, 1.0), (table, 0.5), (table / 4.0, 0.1)]
        for scaled, granularity in lattices[: (n % 8 == 0) + 2 * (n % 40 == 0)]:
            try:
                expected = _numpy_grid_oracle(scaled, granularity)
            except InfeasibleTable:  # the lattice is too coarse for the table
                with pytest.raises(InfeasibleTable):
                    optimizer.grid_oracle(scaled, granularity=granularity)
                continue
            oracle = optimizer.grid_oracle(scaled, granularity=granularity)
            assert (oracle.minimizers, oracle.optimal_sum) == expected, (scaled, granularity)


def test_collect_equals_the_numpy_reference_on_near_ties():
    # points a few 1e-10 apart: sums within TOLERANCE of the least, and
    # coordinates whose 9-digit roundings part and meet
    rng = np.random.default_rng(36)
    for _ in range(300):
        base = np.round(rng.uniform(0.0, 4.0, size=4), 3)
        points = base + rng.integers(-6, 7, size=(40, 4)) * 3e-10
        result = optimizer._collect(points.tolist())
        assert (result.minimizers, result.optimal_sum) == _numpy_collect(points)


def test_collect_adds_coordinates_left_to_right():
    # as numpy's row sum does; the builtin sum rounds 0.1 + 0.2 + 0.3 to 0.6
    # from Python 3.12 on, where numpy's sum is 0.6000000000000001
    points = [(0.1, 0.2, 0.3, 0.0)]
    result = optimizer._collect(points)
    assert result.optimal_sum == 0.6000000000000001
    assert (result.minimizers, result.optimal_sum) == _numpy_collect(np.array(points))


def test_eigen_assignment_round_trip():
    m = _ea(2, 0, 4, 6)
    assert m.as_tuple() == (2.0, 0.0, 4.0, 6.0)
    assert EigenAssignment.from_values(m.to_json()) == m
    with pytest.raises(ValueError):
        EigenAssignment.from_values((1.0, 2.0))
