"""Eigenvalue assignment for the dyad's collapse operator.

The problem: minimize the sum of four non-negative eigenvalues, one per
joint state, subject to every pairwise gap |lambda_i - lambda_j| being at
least the corresponding Q-shape distance table entry.

The solver enumerates all 24 orderings of the four eigenvalues and, for
each ordering, places values greedily in increasing order: the smallest
value is 0 (subtracting the minimum from any feasible point stays feasible
and lowers the sum), and every later value is the smallest one respecting
the gap constraints against the values already placed.  Gaps and
non-negativity hold within ``TOLERANCE``, so an entry of at most
``TOLERANCE`` constrains nothing and is placed as 0.  For a feasible point
w ordered the same way, induction gives greedy_k <= w_k - w_min, so
each ordering's greedy completion dominates every feasible point with that
ordering; collecting the completions of minimal sum therefore yields the
exact minimizer set.  An independent lattice search cross-checks this.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTable

TOLERANCE = 1e-9
# Largest lattice grid_oracle builds, (bound/g + 1)^3 points (6 MB of
# coordinates), scanned once for each of the four pinned coordinates.
MAX_LATTICE_POINTS = 250_000
# Points reach 3x the largest entry (lattice points, the bound), and _collect's
# round(v, 9) multiplies them by 1e9; this cap keeps those and all sums finite.
MAX_TABLE_ENTRY = 1e298

# Reference distance table for the swap dyad.  The collapse-operator
# optimization and the `optimize` CLI default are defined on this table.
SWAP_TABLE = np.array(
    [
        [0.0, 2.0, 2.0, 2.0],
        [2.0, 0.0, 4.0, 2.0],
        [2.0, 4.0, 0.0, 2.0],
        [2.0, 2.0, 2.0, 0.0],
    ]
)


@dataclass(frozen=True)
class EigenAssignment:
    """Four collapse-operator eigenvalues in canonical state order."""

    lambda_00: float
    lambda_01: float
    lambda_10: float
    lambda_11: float

    def as_tuple(self) -> tuple:
        return (self.lambda_00, self.lambda_01, self.lambda_10, self.lambda_11)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple())

    @classmethod
    def from_values(cls, values) -> "EigenAssignment":
        values = tuple(float(v) for v in values)
        if len(values) != 4:
            raise ValueError("an assignment needs exactly 4 eigenvalues")
        return cls(*values)

    def to_json(self) -> list:
        return list(self.as_tuple())


@dataclass(frozen=True)
class OptimizationResult:
    """Complete minimizer set of one gap-constrained eigenvalue problem."""

    minimizers: tuple
    optimal_sum: float
    pairwise_rate_sums: tuple

    @property
    def default_pick(self) -> EigenAssignment:
        """The first minimizer under lexicographic order."""
        return self.minimizers[0]

    def to_json(self) -> dict:
        return {
            "minimizers": [m.to_json() for m in self.minimizers],
            "optimal_sum": self.optimal_sum,
            "pairwise_rate_sums": list(self.pairwise_rate_sums),
            "default_pick": self.default_pick.to_json(),
        }


def validate_table(table) -> np.ndarray:
    table = np.asarray(table, dtype=float)
    if table.shape != (4, 4):
        raise ValueError("distance table must be 4x4")
    if not np.all(np.isfinite(table)):
        raise ValueError("distance table must be finite")
    if np.any(table < 0) or np.any(table > MAX_TABLE_ENTRY):
        raise ValueError(f"distance table entries must lie in [0, {MAX_TABLE_ENTRY:g}]")
    if np.any(np.abs(np.diag(table)) > TOLERANCE):
        raise ValueError("distance table must have a zero diagonal")
    if not np.allclose(table, table.T, atol=TOLERANCE):
        raise ValueError("distance table must be symmetric")
    return table


def feasible(assignment: EigenAssignment, table) -> bool:
    """True iff all eigenvalues are non-negative and every gap is satisfied,
    both within ``TOLERANCE``."""
    return _feasible(assignment.as_tuple(), validate_table(table))


def _feasible(values, table: np.ndarray) -> bool:
    """:func:`feasible` for four values and an already validated table."""
    if any(v < -TOLERANCE for v in values):
        return False
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(values[i] - values[j]) < table[i, j] - TOLERANCE:
                return False
    return True


def pairwise_rate_sum(assignment: EigenAssignment) -> float:
    """Sum of |lambda_i - lambda_j| over the six unordered pairs."""
    values = assignment.as_tuple()
    return float(
        sum(abs(values[i] - values[j]) for i in range(4) for j in range(i + 1, 4))
    )


def _greedy_completion(order, table) -> tuple:
    values = [0.0] * 4
    for pos in range(1, 4):
        i = order[pos]
        lo = values[order[pos - 1]]
        for j in order[:pos]:
            lo = max(lo, values[j] + table[i, j])
        values[i] = lo
    return tuple(values)


def _collect(points, table) -> OptimizationResult:
    feas = [p for p in points if _feasible(p, table)]
    if not feas:
        raise InfeasibleTable("no assignment satisfies the gap constraints")
    best = min(sum(p) for p in feas)
    seen = {}
    for p in feas:
        if sum(p) <= best + TOLERANCE:
            seen[tuple(round(v, 9) for v in p)] = p
    minimizers = tuple(
        EigenAssignment.from_values(p) for p in sorted(seen.values())
    )
    return OptimizationResult(
        minimizers=minimizers,
        optimal_sum=float(best),
        pairwise_rate_sums=tuple(pairwise_rate_sum(m) for m in minimizers),
    )


def solve(table) -> OptimizationResult:
    """Exact minimizer set via ordering enumeration plus greedy tightening."""
    table = validate_table(table)
    # a gap of at most TOLERANCE is met by equal values, so it places nothing
    placed = np.where(table <= TOLERANCE, 0.0, table)
    points = [
        _greedy_completion(order, placed) for order in itertools.permutations(range(4))
    ]
    return _collect(points, table)


def grid_oracle(table, granularity: float = 1.0, bound: float | None = None) -> OptimizationResult:
    """Brute-force lattice search used to cross-check :func:`solve`.

    Scans {0, g, 2g, ..., bound}^4 with one coordinate pinned to zero (any
    minimizer has a zero eigenvalue, since subtracting the minimum preserves
    feasibility and lowers the sum).  Refuses lattices of more than
    ``MAX_LATTICE_POINTS`` points before building them.
    """
    table = validate_table(table)
    if not (math.isfinite(granularity) and granularity > 0):
        raise ValueError("granularity must be finite and positive")
    min_bound = 3.0 * float(table.max())
    if bound is None:
        bound = min_bound
    if not (math.isfinite(bound) and bound <= 3.0 * MAX_TABLE_ENTRY):
        raise ValueError(f"bound must be finite and at most {3.0 * MAX_TABLE_ENTRY:g}")
    if bound < min_bound:
        raise ValueError(f"bound must be at least 3x the largest entry ({min_bound})")
    per_axis = (bound + granularity / 2) / granularity
    if per_axis > MAX_LATTICE_POINTS ** (1 / 3):
        raise ValueError(
            f"granularity {granularity!r} on [0, {bound!r}] asks for a lattice of "
            f"{per_axis:.3g}^3 points, more than {MAX_LATTICE_POINTS}; use a coarser granularity"
        )
    axis = np.arange(0.0, bound + granularity / 2, granularity)
    points = set()
    free = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    for pinned in range(4):
        grid = np.zeros((free.shape[0], 4))
        cols = [c for c in range(4) if c != pinned]
        grid[:, cols] = free
        mask = np.ones(len(grid), dtype=bool)
        for i in range(4):
            for j in range(i + 1, 4):
                mask &= np.abs(grid[:, i] - grid[:, j]) >= table[i, j] - TOLERANCE
        for row in grid[mask]:
            points.add(tuple(row))
    return _collect(sorted(points), table)
