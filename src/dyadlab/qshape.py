"""Q-shapes of the dyad and distance measures between them.

A state's Q-shape collects four probability distributions over the joint
state space: for each part, the forward (effect) and backward (cause) image
of keeping that part fixed while the other unit is replaced by an
equiprobable bit.  Rows are ordered (A effect, A cause, B effect, B cause).

Distances between Q-shapes are row-wise sums of a distribution distance.
The default row metric is total variation, which assigns 0 to equal rows and
1 to rows that differ in all four entries with no free scaling factor.  The
earth-mover distance under the discrete 0/1 ground metric is the same
quantity, so ``emd`` names the total-variation rule; a guarded
Kullback-Leibler divergence is available for comparison.

The arithmetic is plain Python over 4-entry rows, so Q-shapes need no numpy;
only ``distance_table`` returns an ndarray.  Sums run left to right, as
numpy sums four entries, on every Python version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import KLUndefined, NotCrossCoupled
from .model import ALL_STATES, UNIT_A, UNIT_B, DyadState, Tpm2, convert_entries
from .phi import big_phi

ROW_LABELS = ("A_effect", "A_cause", "B_effect", "B_cause")

DEFAULT_METRIC = "tv"


def validate_distribution(p, atol: float = 1e-12) -> tuple:
    """Check non-negativity and normalization; return the four entries as floats.

    ``p`` is a 4-entry list, tuple or 1-d array of reals.  A scalar, a nested
    or ragged sequence and an array of any other shape are refused with
    ``ValueError``, as are non-finite and negative entries and a sum off 1.
    """
    row = convert_entries(p, float)
    if row is None or len(row) != 4:
        raise ValueError(f"distribution must be a sequence of 4 numbers, got {p!r}")
    row = tuple(row)
    if not all(map(math.isfinite, row)):
        raise ValueError("distribution has a non-finite entry")
    if min(row) < -atol:
        raise ValueError("distribution has negative entries")
    total = row[0] + row[1] + row[2] + row[3]
    if not abs(total - 1.0) <= atol:
        raise ValueError(f"distribution sums to {total!r}, not 1")
    return row


@dataclass(frozen=True, eq=False)
class QShape:
    """Four rows of cause/effect distributions for one source state, as 4-tuples."""

    rows: tuple
    source_state: DyadState

    def part_point(self, unit: str) -> tuple:
        """The part's effect and cause rows flattened to 8 floats."""
        if unit == UNIT_A:
            return self.rows[0] + self.rows[1]
        if unit == UNIT_B:
            return self.rows[2] + self.rows[3]
        raise ValueError(f"unknown unit {unit!r}")

    def to_json(self) -> dict:
        return {
            "state": self.source_state.to_json(),
            "row_labels": list(ROW_LABELS),
            "rows": [list(row) for row in self.rows],
        }


def build_qshape(tpm: Tpm2, state: DyadState) -> QShape:
    """Build the Q-shape of ``state`` under a cross-coupled bijective rule."""
    if not tpm.is_cross_coupled:
        raise NotCrossCoupled("Q-shapes require a cross-coupled transition rule")
    rows = []
    for unit, direction in (
        (UNIT_A, "effect"), (UNIT_A, "cause"), (UNIT_B, "effect"), (UNIT_B, "cause")
    ):
        row = [0.0] * 4
        kept = state.value(unit)
        for partner_value in (0, 1):
            member = DyadState(kept, partner_value) if unit == UNIT_A else DyadState(partner_value, kept)
            if direction == "effect":
                row[tpm.apply(member).index] += 0.5
            else:
                preds = tpm.predecessors(member)
                for pred in preds:
                    row[pred.index] += 0.5 / len(preds)
        rows.append(validate_distribution(row))
    return QShape(rows=tuple(rows), source_state=state)


@dataclass(frozen=True)
class QShape4Style:
    """Compressed Q-shape: per-part phi plus the pinned partner states.

    The maximizer for each part is the partner value singled out by that
    part's effect repertoire (for involutive rules such as swap it equals the
    cause-side value as well).
    """

    phi_a: float
    phi_b: float
    maximizer_a: int
    maximizer_b: int

    def to_json(self) -> dict:
        return {
            "phi_A": self.phi_a,
            "phi_B": self.phi_b,
            "maximizer_A": self.maximizer_a,
            "maximizer_B": self.maximizer_b,
        }


def build_qshape_iit4(tpm: Tpm2, state: DyadState) -> QShape4Style:
    """Per-part phi values and the partner states they were attained over."""
    if not tpm.is_cross_coupled:
        raise NotCrossCoupled("requires a cross-coupled transition rule")
    report = big_phi(tpm, state)
    return QShape4Style(
        phi_a=report.phi_a,
        phi_b=report.phi_b,
        maximizer_a=report.maximizing_states[UNIT_A]["effect"],
        maximizer_b=report.maximizing_states[UNIT_B]["effect"],
    )


def total_variation(p, q) -> float:
    """0.5 * sum |p_i - q_i|."""
    total = 0.0
    for pi, qi in zip(validate_distribution(p), validate_distribution(q)):
        total += abs(pi - qi)
    return 0.5 * total


# Earth-mover distance under the discrete 0/1 ground metric: only mass that
# leaves its site costs, so the optimal transport moves the surplus mass
# sum(max(p - q, 0)), which is total variation (Gibbs & Su, Int. Stat. Rev.
# 70, 419, 2002).
earth_mover = total_variation


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence in bits, guarded against q=0 where p>0."""
    pairs = [(pi, qi) for pi, qi in zip(validate_distribution(p), validate_distribution(q)) if pi > 0]
    if any(qi == 0 for _, qi in pairs):
        raise KLUndefined("q has zero mass where p is positive")
    total = 0.0
    for pi, qi in pairs:
        total += pi * math.log2(pi / qi)
    return total


METRICS = {"tv": total_variation, "emd": earth_mover, "kl": kl_divergence}


def row_distance(p, q, metric: str = DEFAULT_METRIC) -> float:
    """Distance between two distribution rows under the named metric."""
    try:
        fn = METRICS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(METRICS)}")
    return fn(p, q)


def qshape_distance(q1: QShape, q2: QShape, metric: str = DEFAULT_METRIC) -> float:
    """Sum of row distances between two Q-shapes."""
    total = 0.0
    for p, q in zip(q1.rows, q2.rows):
        total += row_distance(p, q, metric)
    return total


def distance_rows(tpm: Tpm2, metric: str = DEFAULT_METRIC) -> list:
    """All pairwise Q-shape distances for the rule's four states, as four lists of floats."""
    shapes = [build_qshape(tpm, s) for s in ALL_STATES]
    table = [[0.0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            table[i][j] = table[j][i] = qshape_distance(shapes[i], shapes[j], metric)
    return table


def distance_table(tpm: Tpm2, metric: str = DEFAULT_METRIC):
    """``distance_rows`` as a 4x4 float ndarray."""
    import numpy as np  # here, so the rest of the module runs without numpy

    return np.array(distance_rows(tpm, metric))
