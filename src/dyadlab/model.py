"""State space and transition rules for two-unit binary feedback circuits.

The system has two channels, A and B, each holding one bit.  Joint states
are ordered lexicographically, (0,0), (0,1), (1,0), (1,1), and everything
downstream (probability vectors, density matrices, distance tables) uses
that ordering.

All values here are immutable after construction and safe to share across
threads.  The input rules of the quantum calculus and the collapse dynamics
live here too, in plain Python (states, eigenvalues, step count, rate,
threshold and seed), so the library and the command line refuse alike, and
without numpy.
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


def convert_entries(values, convert) -> list | None:
    """``convert`` of each entry of ``values``, a sequence or an ndarray (read
    through its ``tolist()``); None for a scalar or a string."""
    entries = values.tolist() if hasattr(values, "tolist") else values
    if isinstance(entries, str):  # numpy reads a string as one value
        return None
    try:
        return list(map(convert, entries))
    except TypeError:  # a scalar, or an entry that is not a number
        return None


# Hermiticity and trace of a density matrix hold within _DENSITY_ATOL, and
# none of its eigenvalues lies below -_PSD_ATOL.
_DENSITY_ATOL = 1e-10
_PSD_ATOL = 1e-8


def validate_density_matrix(rho, dim: int = 4) -> list[list[complex]]:
    """``rho`` (nested sequences or an ndarray) as ``dim`` rows of ``dim``
    complex entries, if it is a density matrix; ValueError otherwise."""
    # an ndarray lists its entries at C speed, and as Python numbers
    rows = convert_entries(rho, lambda row: convert_entries(row, complex))
    if rows is None or len(rows) != dim or any(row is None or len(row) != dim for row in rows):
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


def pure_state(psi, atol: float) -> tuple[list[complex], float]:
    """``psi`` as four complex amplitudes and their norm, if they are finite
    and the norm is 1 within ``atol``; ValueError otherwise.

    The norm is np.linalg.norm's sqrt(re . re + im . im), each dot paired as
    OpenBLAS's x86-64 kernel pairs four strided entries; an overflow is inf,
    refused.  A refusal prints ``math.hypot``'s norm, as tiny squares underflow to 0.
    """
    values = convert_entries(psi, complex)
    if values is None or len(values) != 4:
        raise ValueError("a pure state needs exactly 4 amplitudes")
    for i, v in enumerate(values):
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"amplitude {i} is not finite: {v}")
    re = [v.real * v.real for v in values]
    im = [v.imag * v.imag for v in values]
    norm = math.sqrt(((re[0] + re[2]) + (re[1] + re[3])) + ((im[0] + im[2]) + (im[1] + im[3])))
    if not abs(norm - 1.0) <= atol:
        raise ValueError(f"amplitudes are not normalized (norm {math.hypot(*map(abs, values))!r})")
    return values, norm


def collapse_eigenvalues(values) -> tuple[float, ...]:
    """Diagonal of the collapse operator, in canonical state order, from any
    four finite non-negative numbers; ValueError otherwise."""
    a = convert_entries(values, float)
    if a is None or len(a) != 4:
        raise ValueError("a collapse operator needs exactly 4 real eigenvalues")
    if not all(map(math.isfinite, a)):
        raise ValueError("eigenvalues must be finite")
    if min(a) < 0:
        raise ValueError("eigenvalues must be non-negative")
    return tuple(a)


# Steps per SDE trajectory: the grid of an exact sample, or hours of split steps.
MAX_SDE_STEPS = 10**9


def step_count(t: float, dt: float, max_steps: int | None = None) -> int:
    """Steps of ``dt`` that integrate for ``t``: ``round(t / dt)``, half to even.

    Raises ValueError unless ``dt`` is finite and positive, ``t`` finite and
    non-negative, ``t / dt`` finite, and the count at most ``max_steps``.
    """
    t, dt = float(t), float(dt)  # Python floats overflow t / dt to inf without a warning
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("duration must be finite and non-negative")
    if not math.isfinite(t / dt):
        raise ValueError(f"duration {t!r} is too many steps of dt={dt!r}")
    n_steps = int(round(t / dt))
    if max_steps is not None and n_steps > max_steps:
        raise ValueError(
            f"duration {t!r} is {n_steps:.3g} steps of dt={dt!r}, more than the "
            f"{max_steps:.0e} allowed"
        )
    return n_steps


def check_rate(lam: float) -> None:
    """Refuse a collapse rate that is not finite and non-negative."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be finite and non-negative")


def check_collapse_threshold(threshold: float) -> None:
    """Refuse an outcome-declaring population that is not finite and in (0, 1]."""
    if not (math.isfinite(threshold) and 0.0 < threshold <= 1.0):
        raise ValueError("collapse threshold must be finite and in (0, 1]")


def unsigned(value, what: str, bits: int) -> int:
    """``value`` as an integer in [0, 2**bits); ValueError naming ``what`` otherwise."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} must be an integer") from None
    if not 0 <= n < 1 << bits:
        raise ValueError(f"{what} {n} is not in [0, 2**{bits})")
    return n


def derive_trajectory_seed(master_seed: int, index: int) -> int:
    """Philox key of ensemble member ``index``: ``master_seed + index * 2**64``.

    The master seed is the key's low 64-bit word and the member index its
    high word, so distinct (seed, index) pairs get distinct keys and hence
    independent Philox streams.  Feeding the key to ``qdyn.sde_trajectory``
    reproduces the member exactly, independent of batching or total
    trajectory count.  Raises ValueError unless both are integers in
    [0, 2**64).
    """
    return unsigned(master_seed, "seed", 64) + (unsigned(index, "trajectory index", 64) << 64)


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
