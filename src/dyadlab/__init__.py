"""Feedback-dyad toolkit.

Classical integrated information and Q-shapes for two-unit feedback
circuits, distance-constrained collapse-operator optimization, deterministic
and stochastic simulation of the resulting collapse dynamics, and the
density-operator version of the integrated-information calculus.

The package imports lazily (PEP 562): ``import dyadlab`` loads no submodule,
and each name below loads its submodule on first access, so the classical
calculus (``model``, ``phi``, ``qshape``), the gap solver (``optimizer``
but for its lattice search and ``SWAP_TABLE``, an ndarray built on first
access) and the quantum calculus (``qiit``) run without importing numpy.
"""

import importlib

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "errors": (
        "DyadError",
        "GridMismatch",
        "InfeasibleTable",
        "KLUndefined",
        "NotCrossCoupled",
        "StepTooLarge",
        "UnsupportedState",
        "ZeroMarginal",
    ),
    "model": ("ALL_STATES", "DyadState", "Tpm2", "identity_tpm", "not_swap", "swap"),
    "optimizer": (
        "SWAP_TABLE",
        "EigenAssignment",
        "OptimizationResult",
        "feasible",
        "grid_oracle",
        "pairwise_rate_sum",
        "solve",
    ),
    "phi": ("PhiReport", "big_phi"),
    "qdyn": (
        "TrajectoryRecord",
        "build_collapse_operator",
        "coherence_decay_rate",
        "derive_trajectory_seed",
        "ensemble_average",
        "lindblad_evolve",
        "lindblad_path",
        "prepare_dyad_superposition",
        "sde_trajectory",
        "simulate_ensemble",
        "trace_distance",
    ),
    "qiit": ("QuantumPhiReport", "quantum_big_phi"),
    "qshape": (
        "QShape",
        "QShape4Style",
        "build_qshape",
        "build_qshape_iit4",
        "distance_table",
        "qshape_distance",
        "row_distance",
    ),
}
_SUBMODULES = ("cli", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
