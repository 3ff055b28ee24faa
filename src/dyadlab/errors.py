"""Exception hierarchy shared across the toolkit.

Input problems (bad states, mismatched wiring, unsupported inputs) and
numerical guards (integration blow-up, undefined divergences) all derive
from :class:`DyadError` so callers can catch one base class.
"""


class DyadError(Exception):
    """Base class for all toolkit-specific errors."""


class NotCrossCoupled(DyadError):
    """The transition rule lacks the cross-unit link the quantity needs."""


class ZeroMarginal(DyadError):
    """The unit's current value is unreachable under the transition rule."""


class KLUndefined(DyadError):
    """Kullback-Leibler divergence hit q=0 where p>0."""


class InfeasibleTable(DyadError):
    """No eigenvalue assignment satisfies the gap constraints."""


class StepTooLarge(DyadError):
    """Integration drifted past its guard tolerances; reduce the step."""


class GridMismatch(DyadError):
    """Trajectories do not share a common sample grid and parameters."""


class UnsupportedState(DyadError):
    """The density matrix lies outside the family this computation covers."""
