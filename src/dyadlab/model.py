"""State space and transition rules for two-unit binary feedback circuits.

The system has two channels, A and B, each holding one bit.  Joint states
are ordered lexicographically, (0,0), (0,1), (1,0), (1,1), and everything
downstream (probability vectors, density matrices, distance tables) uses
that ordering.

All values here are immutable after construction and safe to share across
threads.  The density-matrix check lives here too, in plain Python over the
16 entries, so that the quantum calculus can validate a state without numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

UNIT_A = "A"
UNIT_B = "B"
UNITS = (UNIT_A, UNIT_B)


def other_unit(unit: str) -> str:
    """Return the partner of ``unit`` (A <-> B)."""
    if unit == UNIT_A:
        return UNIT_B
    if unit == UNIT_B:
        return UNIT_A
    raise ValueError(f"unknown unit {unit!r}; expected 'A' or 'B'")


def _as_bit(value, name: str) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DyadState:
    """Joint state (a, b) of channels A and B.

    The canonical index is ``2*a + b``.
    """

    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", _as_bit(self.a, "a"))
        object.__setattr__(self, "b", _as_bit(self.b, "b"))

    @property
    def index(self) -> int:
        return 2 * self.a + self.b

    @classmethod
    def from_index(cls, index: int) -> "DyadState":
        if index not in (0, 1, 2, 3):
            raise ValueError(f"state index must be in 0..3, got {index!r}")
        return cls(index >> 1, index & 1)

    def value(self, unit: str) -> int:
        return self.a if unit == UNIT_A else self.b if unit == UNIT_B else _bad_unit(unit)

    @property
    def label(self) -> str:
        return f"{self.a}{self.b}"

    def to_json(self) -> list:
        return [self.a, self.b]

    @classmethod
    def from_json(cls, data) -> "DyadState":
        a, b = data
        return cls(a, b)


def _bad_unit(unit):
    raise ValueError(f"unknown unit {unit!r}; expected 'A' or 'B'")


def _state_index(value, entry: int) -> int:
    """``value`` as a state index in 0..3; floats, strings and bools are refused."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if isinstance(value, bool) or index not in (0, 1, 2, 3):
        raise ValueError(f"successor {entry} is {value!r}, not a state index in 0..3")
    return index


def is_number(value) -> bool:
    """True for an ``int`` or a ``float``, as a JSON number reads; ``bool``
    subclasses ``int`` but is not one, and a string that spells one is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


ALL_STATES = tuple(DyadState.from_index(i) for i in range(4))
STATE_LABELS = tuple(s.label for s in ALL_STATES)
# Index pairs (i, k), i < k, of the six entries above a density matrix's diagonal.
COHERENCE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def pair_state(i: int, k: int) -> tuple:
    """Amplitudes of ``(|i> + |k>)/sqrt(2)`` for two distinct state indices."""
    if i == k or i not in range(4) or k not in range(4):
        raise ValueError("need two distinct basis indices in 0..3")
    return tuple(1.0 / math.sqrt(2.0) if n in (i, k) else 0.0 for n in range(4))


# Named pure states as four real amplitudes: the basis states by label,
# plus0 = (|00> + |10>)/sqrt(2) (A balanced, B in 0), 0plus and uniform.
NAMED_STATES = {
    **{label: tuple(float(n == i) for n in range(4)) for i, label in enumerate(STATE_LABELS)},
    "plus0": pair_state(0, 2),
    "0plus": pair_state(0, 1),
    "uniform": (0.5, 0.5, 0.5, 0.5),
}

# Hermiticity and trace of a density matrix hold within _DENSITY_ATOL, and
# none of its eigenvalues lies below -_PSD_ATOL.
_DENSITY_ATOL = 1e-10
_PSD_ATOL = 1e-8


def validate_density_matrix(rho, dim: int = 4) -> list[list[complex]]:
    """``rho`` (nested sequences or an ndarray) as ``dim`` rows of ``dim``
    complex entries, if it is a density matrix; ValueError otherwise."""
    # an ndarray lists its entries at C speed, and as Python numbers
    entries = rho.tolist() if hasattr(rho, "tolist") else rho
    try:
        rows = [list(map(complex, row)) for row in entries]
    except TypeError:  # a scalar, or a row or entry that is not a number
        rows = None
    if rows is None or len(rows) != dim or any(len(row) != dim for row in rows):
        shape = getattr(rho, "shape", None)
        got = f"shape {shape}" if shape is not None else repr(rho)
        raise ValueError(f"density matrix must be {dim}x{dim}, got {got}")
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for row in rows for v in row):
        raise ValueError("density matrix has a non-finite entry")
    drift = max(abs(rows[i][k] - rows[k][i].conjugate()) for i in range(dim) for k in range(i, dim))
    if not drift <= _DENSITY_ATOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    trace = 0j
    for i in range(dim):  # left to right, as np.trace, on every Python version
        trace += rows[i][i]
    if not abs(trace - 1.0) <= _DENSITY_ATOL:
        raise ValueError("density matrix trace is not 1 within tolerance")
    if not _positive_semidefinite(rows, _PSD_ATOL):
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return rows


def _positive_semidefinite(rows, shift: float) -> bool:
    """True iff the Hermitian matrix whose lower triangle ``rows`` holds has no
    eigenvalue below ``-shift``: iff ``rows + shift*I`` is positive semidefinite.

    Tested by an LDL^H factorisation with diagonal pivoting, which is stable
    for semidefinite matrices (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 10): each step eliminates the largest remaining
    diagonal entry, and the matrix is semidefinite iff no pivot is negative
    and a zero pivot leaves only zeros.  A NaN from overflow fails a pivot.
    """
    n = len(rows)
    s = [[rows[i][k] if i >= k else rows[k][i].conjugate() for k in range(n)] for i in range(n)]
    for i in range(n):
        s[i][i] = rows[i][i].real + shift
    left = list(range(n))
    while left:
        p = max(left, key=lambda i: s[i][i].real)
        d = s[p][p].real
        if not d > 0.0:  # every remaining diagonal entry is d or less
            return d == 0.0 and not any(s[i][k] for i in left for k in left)
        left.remove(p)
        for i in left:
            f = s[i][p] / d
            for k in left:
                s[i][k] -= f * s[p][k]
    return True


class Tpm2:
    """Deterministic transition rule for the dyad.

    Stored as the tuple of output state indices for the four input states in
    canonical order.  Each output unit must be a function of at most one
    input unit; rules where an output reads both inputs are rejected.  The
    unit actually read by each output is derived by exhaustive enumeration
    and exposed through :meth:`dependency`.
    """

    def __init__(self, outputs, name: str | None = None):
        outputs = tuple(_state_index(v, entry) for entry, v in enumerate(outputs))
        if len(outputs) != 4:
            raise ValueError("outputs must be four state indices in 0..3")
        self.outputs = outputs
        self.name = name
        self._deps = {unit: self._derive_dependency(unit) for unit in UNITS}

    def _derive_dependency(self, unit: str) -> str | None:
        # value of `unit` in the successor, as a function of the input bits
        val = {(s.a, s.b): self.apply(s).value(unit) for s in ALL_STATES}
        reads_a = any(val[(0, b)] != val[(1, b)] for b in (0, 1))
        reads_b = any(val[(a, 0)] != val[(a, 1)] for a in (0, 1))
        if reads_a and reads_b:
            raise ValueError(
                f"output unit {unit} reads both inputs; only single-reader rules are supported"
            )
        if reads_a:
            return UNIT_A
        if reads_b:
            return UNIT_B
        return None

    def apply(self, state: DyadState) -> DyadState:
        """Evolve ``state`` one step forward."""
        return DyadState.from_index(self.outputs[state.index])

    def predecessors(self, state: DyadState) -> frozenset:
        """Exact preimage of ``state``; a singleton when the rule is bijective."""
        return frozenset(s for s in ALL_STATES if self.apply(s) == state)

    def dependency(self, unit: str) -> str | None:
        """The input unit that output ``unit`` reads, or None if constant."""
        if unit not in UNITS:
            _bad_unit(unit)
        return self._deps[unit]

    @property
    def is_bijective(self) -> bool:
        return sorted(self.outputs) == [0, 1, 2, 3]

    @property
    def is_cross_coupled(self) -> bool:
        """True when each output unit reads the opposite input unit."""
        return self._deps[UNIT_A] == UNIT_B and self._deps[UNIT_B] == UNIT_A

    def to_json(self) -> list:
        return list(self.outputs)

    @classmethod
    def from_json(cls, data, name: str | None = None) -> "Tpm2":
        return cls(data, name=name)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tpm2) and self.outputs == other.outputs

    def __hash__(self) -> int:
        return hash(self.outputs)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tpm2({list(self.outputs)}{tag})"


def swap() -> Tpm2:
    """The swap rule: (a, b) -> (b, a)."""
    return Tpm2([DyadState(s.b, s.a).index for s in ALL_STATES], name="swap")


def not_swap() -> Tpm2:
    """Each output is the negation of the opposite input: (a, b) -> (1-b, 1-a)."""
    return Tpm2([DyadState(1 - s.b, 1 - s.a).index for s in ALL_STATES], name="not_swap")


def identity_tpm() -> Tpm2:
    """Each unit keeps its own value."""
    return Tpm2([0, 1, 2, 3], name="identity")


NAMED_TPMS = {"swap": swap, "notswap": not_swap, "identity": identity_tpm}
