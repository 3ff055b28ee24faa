"""Q-shapes of the dyad and distance measures between them.

A state's Q-shape collects four probability distributions over the joint
state space: for each part, the forward (effect) and backward (cause) image
of keeping that part fixed while the other unit is replaced by an
equiprobable bit.  Rows are ordered (A effect, A cause, B effect, B cause).

Distances between Q-shapes are row-wise sums of a distribution distance.
The default row metric is total variation, which assigns 0 to equal rows and
1 to rows that differ in all four entries with no free scaling factor.  An
earth-mover distance under the discrete 0/1 ground metric (in closed form,
the surplus mass, which equals total variation) and a guarded
Kullback-Leibler divergence are available for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KLUndefined, NotCrossCoupled
from .model import ALL_STATES, UNIT_A, UNIT_B, DyadState, Tpm2, other_unit
from .phi import big_phi

ROW_LABELS = ("A_effect", "A_cause", "B_effect", "B_cause")

DEFAULT_METRIC = "tv"


def validate_distribution(p, atol: float = 1e-12) -> np.ndarray:
    """Check non-negativity and normalization; return the vector as float64."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError(f"distribution must have 4 entries, got shape {p.shape}")
    if np.any(p < -atol):
        raise ValueError("distribution has negative entries")
    if abs(p.sum() - 1.0) > atol:
        raise ValueError(f"distribution sums to {p.sum()!r}, not 1")
    return p


@dataclass(frozen=True, eq=False)
class QShape:
    """Four-row matrix of cause/effect distributions for one source state."""

    rows: np.ndarray
    source_state: DyadState

    def row(self, label: str) -> np.ndarray:
        return self.rows[ROW_LABELS.index(label)]

    def part_point(self, unit: str) -> np.ndarray:
        """The part's effect and cause rows flattened to one 8-vector."""
        if unit == UNIT_A:
            return self.rows[0:2].reshape(8)
        if unit == UNIT_B:
            return self.rows[2:4].reshape(8)
        raise ValueError(f"unknown unit {unit!r}")

    def to_json(self) -> dict:
        return {
            "state": self.source_state.to_json(),
            "row_labels": list(ROW_LABELS),
            "rows": self.rows.tolist(),
        }


def build_qshape(tpm: Tpm2, state: DyadState) -> QShape:
    """Build the Q-shape of ``state`` under a cross-coupled bijective rule."""
    if not tpm.is_cross_coupled:
        raise NotCrossCoupled("Q-shapes require a cross-coupled transition rule")
    rows = np.zeros((4, 4))
    for r, (unit, direction) in enumerate(
        ((UNIT_A, "effect"), (UNIT_A, "cause"), (UNIT_B, "effect"), (UNIT_B, "cause"))
    ):
        partner = other_unit(unit)
        kept = state.value(unit)
        for partner_value in (0, 1):
            member = DyadState(kept, partner_value) if unit == UNIT_A else DyadState(partner_value, kept)
            if direction == "effect":
                rows[r, tpm.apply(member).index] += 0.5
            else:
                preds = tpm.predecessors(member)
                for pred in preds:
                    rows[r, pred.index] += 0.5 / len(preds)
    for r in range(4):
        validate_distribution(rows[r])
    return QShape(rows=rows, source_state=state)


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
    p = validate_distribution(p)
    q = validate_distribution(q)
    return 0.5 * float(np.abs(p - q).sum())


def earth_mover(p, q) -> float:
    """Minimum-cost transport between two distributions on the 4-point space.

    Under the discrete 0/1 ground metric only mass leaving its site costs, so
    the optimum is the surplus mass ``sum(max(p - q, 0))``, which equals total
    variation (Gibbs & Su, Int. Stat. Rev. 70, 419, 2002).
    """
    p = validate_distribution(p)
    q = validate_distribution(q)
    return float(np.maximum(p - q, 0.0).sum())


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence in bits, guarded against q=0 where p>0."""
    p = validate_distribution(p)
    q = validate_distribution(q)
    support = p > 0
    if np.any(q[support] == 0):
        raise KLUndefined("q has zero mass where p is positive")
    return float(np.sum(p[support] * np.log2(p[support] / q[support])))


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
    return sum(row_distance(q1.rows[r], q2.rows[r], metric) for r in range(4))


def distance_table(tpm: Tpm2, metric: str = DEFAULT_METRIC) -> np.ndarray:
    """All pairwise Q-shape distances for the rule's four states."""
    shapes = [build_qshape(tpm, s) for s in ALL_STATES]
    table = np.zeros((4, 4))
    for i in range(4):
        for j in range(i + 1, 4):
            d = qshape_distance(shapes[i], shapes[j], metric)
            table[i, j] = table[j, i] = d
    return table
