"""State space and transition rules for two-unit binary feedback circuits.

The system has two channels, A and B, each holding one bit.  Joint states
are ordered lexicographically, (0,0), (0,1), (1,0), (1,1), and everything
downstream (probability vectors, density matrices, distance tables) uses
that ordering.

All values here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

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


ALL_STATES = tuple(DyadState.from_index(i) for i in range(4))
STATE_LABELS = tuple(s.label for s in ALL_STATES)


class Tpm2:
    """Deterministic transition rule for the dyad.

    Stored as the tuple of output state indices for the four input states in
    canonical order.  Each output unit must be a function of at most one
    input unit; rules where an output reads both inputs are rejected.  The
    unit actually read by each output is derived by exhaustive enumeration
    and exposed through :meth:`dependency`.
    """

    def __init__(self, outputs, name: str | None = None):
        outputs = tuple(int(i) for i in outputs)
        if len(outputs) != 4 or any(i not in (0, 1, 2, 3) for i in outputs):
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
