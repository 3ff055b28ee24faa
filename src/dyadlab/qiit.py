"""Density-operator integrated information for the quantum dyad.

Distributions become density operators and the pointwise information measure
becomes the quantum intrinsic difference QID (Barbosa et al., Sci. Rep. 10,
18803, 2020).  Partition noise is the maximally mixed qubit, so under the swap
rule a unit's cause and effect repertoires both equal its own reduced state:
both directions are the one quantity ``QID(rho_unit || I/2)``, evaluated once
per unit.  A qubit of Bloch length ``r`` has eigenvalues ``(1 +- r)/2``, and
every eigenstate of ``I/2`` has weight 1/2, so QID's per-eigenstate terms are
``p (log2 p + 1)``.  Only the larger eigenvalue ``p = (1 + r)/2`` gives a
non-negative term, so it is the maximum, and ``I/2`` has full support, so it
is always finite.  The whole-system term vanishes for the dyad because a
partition cutting a unit's absent self-link removes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnsupportedState
from .model import UNIT_A, UNIT_B, UNITS, validate_density_matrix

_PRODUCT_ATOL = 1e-10


def _product_marginals(state) -> dict[str, list[list[complex]]]:
    """Both channels' reduced states of a product state, keyed by unit, as
    2x2 rows of complex.

    Validates ``state`` once and raises ``UnsupportedState`` when it is not
    the product of its two reduced states.  Entry ``(2a + b, 2c + d)`` of the
    4x4 state is ``<a b| rho |c d>``, so tracing out B sums over ``b = d``
    and tracing out A over ``a = c``.
    """
    rho = validate_density_matrix(state)
    m_a = [[rho[2 * a][2 * c] + rho[2 * a + 1][2 * c + 1] for c in (0, 1)] for a in (0, 1)]
    m_b = [[rho[b][d] + rho[2 + b][2 + d] for d in (0, 1)] for b in (0, 1)]
    residual = max(
        abs(rho[2 * a + b][2 * c + d] - m_a[a][c] * m_b[b][d])
        for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
    )
    if not residual <= _PRODUCT_ATOL:  # a NaN residual is no product either
        raise UnsupportedState(
            "integrated information is only defined here for product states "
            "of the two channels; entangled inputs are rejected"
        )
    return {UNIT_A: m_a, UNIT_B: m_b}


def _unit_phi(m) -> float:
    """QID(m || I/2) of a qubit density matrix, in bits, from its Bloch length."""
    r = math.hypot(m[0][0].real - m[1][1].real, 2.0 * abs(m[0][1]))
    p = (1.0 + r) / 2.0
    return p * (math.log2(p) + 1.0)


@dataclass(frozen=True)
class QuantumPhiReport:
    """Subsystem breakdown of the quantum integrated information."""

    phi_a: float
    phi_b: float
    phi_ab: float
    big_phi: float

    def to_json(self) -> dict:
        return {
            "phi_A": self.phi_a,
            "phi_B": self.phi_b,
            "phi_AB": self.phi_ab,
            "big_phi": self.big_phi,
        }


def quantum_big_phi(state) -> QuantumPhiReport:
    """Total integrated information phi(A) + phi(B) + phi(AB) of the dyad.

    A unit's phi is min(cause, effect), and under the swap rule both
    directions are the one QID(rho_unit || I/2), so each unit takes the
    closed form :func:`_unit_phi` of its reduced state.  phi(AB) is
    identically zero: the whole system admits a partition across a unit's
    absent self-link, which removes no information.
    """
    marginals = _product_marginals(state)
    phi_a, phi_b = (_unit_phi(marginals[unit]) for unit in UNITS)
    phi_ab = 0.0
    return QuantumPhiReport(
        phi_a=phi_a, phi_b=phi_b, phi_ab=phi_ab, big_phi=phi_a + phi_b + phi_ab
    )
