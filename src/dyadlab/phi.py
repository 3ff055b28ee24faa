"""Integrated cause and effect information for two-unit deterministic circuits.

All quantities are in bits (base-2 logarithms) and the information-theoretic
convention 0*log(0/q) = 0 applies.  A unit's integrated effect information
compares the constrained probability of the partner's realized next state
against the probability obtained after replacing the unit by an equiprobable
bit.  The cause side runs backwards through a Bayes inversion with uniform
unconstrained priors (0.5 per bit).  A unit's integrated information is the
minimum of the two, and the system total is the sum over units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NotCrossCoupled, ZeroMarginal
from .model import ALL_STATES, UNITS, DyadState, Tpm2, other_unit


def _information(p: float, p_noise: float) -> float:
    # p * log2(p / p_noise), with 0*log(0) = 0
    if p == 0.0:
        return 0.0
    return p * math.log2(p / p_noise)


def _transition_prob(tpm: Tpm2, target: str, target_state: int, given=None) -> float:
    """p(``target`` = ``target_state`` one step later), uniform over the earlier state.

    ``given`` is an optional ``(unit, value)`` pair that fixes one unit of
    the earlier state.
    """
    matching = [s for s in ALL_STATES if given is None or s.value(given[0]) == given[1]]
    hits = sum(tpm.apply(s).value(target) == target_state for s in matching)
    return hits / len(matching)


def _effect_detail(tpm: Tpm2, unit: str, state: DyadState) -> tuple[float, int]:
    partner = other_unit(unit)
    if tpm.dependency(partner) != unit:
        raise NotCrossCoupled(
            f"unit {partner} does not read {unit}; {unit} carries no effect information"
        )
    realized = tpm.apply(state).value(partner)
    p = _transition_prob(tpm, partner, realized, given=(unit, state.value(unit)))
    p_noise = _transition_prob(tpm, partner, realized)
    return _information(p, p_noise), realized


def _cause_detail(tpm: Tpm2, unit: str, state: DyadState) -> tuple[float, int]:
    unit_state = state.value(unit)
    partner = other_unit(unit)
    likelihood = {w: _transition_prob(tpm, unit, unit_state, given=(partner, w)) for w in (0, 1)}
    # the marginal p(unit = unit_state); exact, since both terms are multiples of 1/4
    noised = 0.5 * likelihood[0] + 0.5 * likelihood[1]
    if noised == 0.0:
        raise ZeroMarginal(
            f"state {unit}={unit_state} is unreachable under this transition rule"
        )
    if tpm.dependency(unit) != partner:
        raise NotCrossCoupled(
            f"unit {unit} does not read {partner}; {unit} carries no cause information"
        )
    # Bayes posterior over the partner's previous value, uniform prior 0.5;
    # the denominator equals the noised probability for single-reader rules.
    posterior = {w: likelihood[w] * 0.5 / noised for w in (0, 1)}
    w_star = max((0, 1), key=lambda w: posterior[w])
    value = posterior[w_star] * math.log2(likelihood[w_star] / noised)
    return value, w_star


@dataclass(frozen=True)
class PhiReport:
    """Per-unit and whole-system integrated information for one state."""

    phi_e_a: float
    phi_c_a: float
    phi_e_b: float
    phi_c_b: float
    phi_a: float
    phi_b: float
    big_phi: float
    maximizing_states: dict = field(default_factory=dict)
    flags: tuple = ()

    def to_json(self) -> dict:
        return {
            "phi_e_A": self.phi_e_a,
            "phi_c_A": self.phi_c_a,
            "phi_e_B": self.phi_e_b,
            "phi_c_B": self.phi_c_b,
            "phi_A": self.phi_a,
            "phi_B": self.phi_b,
            "big_phi": self.big_phi,
            "maximizing_states": self.maximizing_states,
            "flags": list(self.flags),
        }


def big_phi(tpm: Tpm2, state: DyadState) -> PhiReport:
    """Full integrated-information report; the total is phi(A) + phi(B).

    Units without the needed cross-link contribute zero and are flagged
    instead of raising, so uncoupled rules report a total of 0.
    """
    flags: list[str] = []
    values: dict[str, dict[str, float]] = {}
    maxima: dict[str, dict[str, int | None]] = {}
    for unit in UNITS:
        values[unit] = {}
        maxima[unit] = {}
        for direction, detail in (("effect", _effect_detail), ("cause", _cause_detail)):
            try:
                val, arg = detail(tpm, unit, state)
            except NotCrossCoupled:
                val, arg = 0.0, None
                flags.append(f"{unit}:{direction}:not_cross_coupled")
            values[unit][direction] = val
            maxima[unit][direction] = arg
    phi_a = min(values["A"]["cause"], values["A"]["effect"])
    phi_b = min(values["B"]["cause"], values["B"]["effect"])
    return PhiReport(
        phi_e_a=values["A"]["effect"],
        phi_c_a=values["A"]["cause"],
        phi_e_b=values["B"]["effect"],
        phi_c_b=values["B"]["cause"],
        phi_a=phi_a,
        phi_b=phi_b,
        big_phi=phi_a + phi_b,
        maximizing_states=maxima,
        flags=tuple(flags),
    )
