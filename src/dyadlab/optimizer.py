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
Both searches, and :func:`feasible`, test points with one rule,
:func:`_feasible`, written over four coordinate columns that are floats for
one point and arrays for a lattice.  Everything but the lattice search is
plain Python over 4-tuples, so solving loads no numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InfeasibleTable
from .model import is_number

TOLERANCE = 1e-9
# Largest lattice grid_oracle builds, (bound/g + 1)^3 points (6 MB of
# coordinates), scanned once for each of the four pinned coordinates.
MAX_LATTICE_POINTS = 250_000
# Points reach 3x the largest entry (lattice points, the bound), and _collect's
# 9-digit rounding multiplies them by 1e9; this cap keeps those and all sums finite.
MAX_TABLE_ENTRY = 1e298
# Index pairs (i, j), i < j, of the six gaps.
_PAIRS = tuple(itertools.combinations(range(4), 2))

# Reference distance table for the swap dyad.  The collapse-operator
# optimization and the `optimize` CLI default are defined on this table.
SWAP_ROWS = (
    (0.0, 2.0, 2.0, 2.0),
    (2.0, 0.0, 4.0, 2.0),
    (2.0, 4.0, 0.0, 2.0),
    (2.0, 2.0, 2.0, 0.0),
)


def __getattr__(name):
    """``SWAP_TABLE``, the ndarray of ``SWAP_ROWS``, built on first access
    (PEP 562), so that importing the optimizer loads no numpy."""
    if name != "SWAP_TABLE":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    table = globals()["SWAP_TABLE"] = np.array(SWAP_ROWS)
    return table


class EigenAssignment(NamedTuple):
    """Four collapse-operator eigenvalues in canonical state order."""

    lambda_00: float
    lambda_01: float
    lambda_10: float
    lambda_11: float

    def as_tuple(self) -> tuple:
        return tuple(self)

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


def validate_table(table) -> tuple:
    """``table`` (a list or tuple of rows, or an ndarray) as four 4-tuples of
    floats, if it is a distance table of numbers (:func:`model.is_number`, so
    not strings or bools); ValueError otherwise."""
    # an ndarray lists its entries at C speed, and as Python numbers
    entries = table.tolist() if hasattr(table, "tolist") else table
    sequence = (list, tuple)
    if not (isinstance(entries, sequence) and all(isinstance(row, sequence) for row in entries)):
        raise ValueError("distance table must be a JSON list of rows")
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            if not is_number(v):
                raise ValueError(f"entry ({i}, {j}) is not a number: {v!r}")
    rows = tuple(tuple(map(float, row)) for row in entries)
    if len(rows) != 4 or any(len(row) != 4 for row in rows):
        raise ValueError("distance table must be 4x4")
    values = [v for row in rows for v in row]
    if not all(map(math.isfinite, values)):
        raise ValueError("distance table must be finite")
    if not all(0 <= v <= MAX_TABLE_ENTRY for v in values):
        raise ValueError(f"distance table entries must lie in [0, {MAX_TABLE_ENTRY:g}]")
    if any(abs(rows[i][i]) > TOLERANCE for i in range(4)):
        raise ValueError("distance table must have a zero diagonal")
    if any(abs(rows[i][j] - rows[j][i]) > TOLERANCE for i, j in _PAIRS):
        raise ValueError("distance table must be symmetric")
    return rows


def feasible(assignment: EigenAssignment, table) -> bool:
    """True iff all eigenvalues are finite and non-negative and every gap is
    satisfied, the last two within ``TOLERANCE``; a NaN or infinite
    eigenvalue is never feasible."""
    return bool(_feasible(tuple(map(float, assignment)), validate_table(table)))


def _feasible(columns, table):
    """Which of the points with coordinates ``columns`` :func:`feasible`
    accepts, for an already validated table: a bool when the four columns
    are floats, a row mask when they are equal-length arrays.

    Written with operators that act alike on both; ``v - v == 0`` is the
    finiteness test, false for NaN and for either infinity.
    """
    ok = True
    for v in columns:
        ok = ok & (v - v == 0) & (v >= -TOLERANCE)
    for i, j in _PAIRS:
        ok = ok & (abs(columns[i] - columns[j]) >= table[i][j] - TOLERANCE)
    return ok


def pairwise_rate_sum(assignment: EigenAssignment) -> float:
    """Sum of |lambda_i - lambda_j| over the six unordered pairs, added left to
    right as in :func:`_collect`."""
    a, b, c, d = assignment
    return float(abs(a - b) + abs(a - c) + abs(a - d) + abs(b - c) + abs(b - d) + abs(c - d))


def _greedy_completion(order, table) -> tuple:
    values = [0.0] * 4
    for pos in range(1, 4):
        i = order[pos]
        lo = values[order[pos - 1]]
        for j in order[:pos]:
            lo = max(lo, values[j] + table[i][j])
        values[i] = lo
    return tuple(values)


def _collect(points) -> OptimizationResult:
    """Minimizer set of the feasible ``points`` (sequences of four floats):
    those of least sum, one for each 9-digit rounding (the last one given),
    sorted.

    Sums add the coordinates left to right, as numpy's row sum does (the
    builtin ``sum`` compensates float rounding from Python 3.12 on), and
    ``round(v * 1e9) / 1e9`` is ``np.round(v, 9)`` bit for bit.
    """
    if not points:
        raise InfeasibleTable("no assignment satisfies the gap constraints")
    sums = [p[0] + p[1] + p[2] + p[3] for p in points]
    best = min(sums)
    seen = {
        tuple(round(v * 1e9) / 1e9 for v in p): tuple(p)
        for p, total in zip(points, sums)
        if total <= best + TOLERANCE
    }
    minimizers = tuple(EigenAssignment.from_values(p) for p in sorted(seen.values()))
    return OptimizationResult(
        minimizers=minimizers,
        optimal_sum=float(best),
        pairwise_rate_sums=tuple(pairwise_rate_sum(m) for m in minimizers),
    )


def solve(table) -> OptimizationResult:
    """Exact minimizer set via ordering enumeration plus greedy tightening."""
    table = validate_table(table)
    # a gap of at most TOLERANCE is met by equal values, so it places nothing
    placed = [[0.0 if v <= TOLERANCE else v for v in row] for row in table]
    points = (_greedy_completion(o, placed) for o in itertools.permutations(range(4)))
    return _collect([p for p in points if _feasible(p, table)])


def grid_oracle(table, granularity: float = 1.0, bound: float | None = None) -> OptimizationResult:
    """Brute-force lattice search used to cross-check :func:`solve`.

    Scans {0, g, 2g, ..., bound}^4 with one coordinate pinned to zero (any
    minimizer has a zero eigenvalue, since subtracting the minimum preserves
    feasibility and lowers the sum).  Refuses lattices of more than
    ``MAX_LATTICE_POINTS`` points before building them, and raises
    :class:`InfeasibleTable` naming the lattice when none of its points is
    feasible, which a coarse granularity or a tight bound can cause.  Numpy
    is imported only after every argument is accepted.
    """
    table = validate_table(table)
    if not (math.isfinite(granularity) and granularity > 0):
        raise ValueError("granularity must be finite and positive")
    min_bound = 3.0 * max(map(max, table))
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
    import numpy as np

    axis = np.arange(0.0, bound + granularity / 2, granularity)
    free = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    # each pinned grid is built, filtered and dropped in turn, to keep the peak at one
    grids = (np.insert(free, pinned, 0.0, axis=1) for pinned in range(4))
    kept = np.concatenate([grid[_feasible(grid.T, table)] for grid in grids])
    if not len(kept):  # every table is feasible; this lattice is too coarse for it
        raise InfeasibleTable(
            f"no point of the lattice of granularity {granularity!r} on [0, {bound!r}] "
            "satisfies the gap constraints; use a finer granularity or a larger bound"
        )
    # _collect keeps only the rows within TOLERANCE of the least sum, so cut
    # the rest here, where numpy's sums are the ones _collect computes
    sums = kept.sum(axis=1)
    near = kept[sums <= sums.min() + TOLERANCE]
    # distinct rows in sorted order: each 9-digit rounding keeps its largest point
    return _collect(np.unique(near, axis=0).tolist())
