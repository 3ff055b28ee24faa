"""The lazy package namespace: every public name and submodule resolves on demand."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyadlab

ROOT = Path(__file__).resolve().parent.parent

# The public names by defining submodule.
PUBLIC_NAMES = {
    "errors": [
        "DyadError", "GridMismatch", "InfeasibleTable", "KLUndefined", "NotCrossCoupled",
        "StepTooLarge", "UnsupportedState", "ZeroMarginal",
    ],
    "model": ["ALL_STATES", "DyadState", "Tpm2", "identity_tpm", "not_swap", "swap"],
    "optimizer": [
        "SWAP_TABLE", "EigenAssignment", "OptimizationResult", "feasible", "grid_oracle",
        "pairwise_rate_sum", "solve",
    ],
    "phi": ["PhiReport", "big_phi"],
    "qdyn": [
        "TrajectoryRecord", "build_collapse_operator", "coherence_decay_rate",
        "derive_trajectory_seed", "ensemble_average", "lindblad_evolve", "lindblad_path",
        "prepare_dyad_superposition", "sde_trajectory", "simulate_ensemble", "trace_distance",
    ],
    "qiit": ["QuantumPhiReport", "quantum_big_phi"],
    "qshape": [
        "QShape", "QShape4Style", "build_qshape", "build_qshape_iit4", "distance_table",
        "qshape_distance", "row_distance",
    ],
}
SUBMODULES = ["cli", *PUBLIC_NAMES]


def test_all_lists_exactly_the_public_names():
    assert sorted(dyadlab.__all__) == sorted(n for names in PUBLIC_NAMES.values() for n in names)


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_each_name_is_its_submodules_object(module):
    sub = importlib.import_module(f"dyadlab.{module}")
    for name in PUBLIC_NAMES[module]:
        assert getattr(dyadlab, name) is getattr(sub, name), name


def test_dir_lists_public_names_and_submodules():
    assert set(dyadlab.__all__) | set(SUBMODULES) <= set(dir(dyadlab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dyadlab.no_such_name  # noqa: B018


def test_bare_import_resolves_submodules_and_star_import_lazily():
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import json, sys, dyadlab\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('dyadlab.'))\n"
            "subs = {m: getattr(dyadlab, m).__name__ for m in json.loads(sys.argv[1])}\n"
            "namespace = {}\n"
            "exec('from dyadlab import *', namespace)\n"
            "bound = sorted(n for n in dyadlab.__all__ if namespace.get(n) is getattr(dyadlab, n))\n"
            "print(json.dumps([loaded, subs, bound]))",
            json.dumps(SUBMODULES),
        ],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])},
    )
    assert proc.returncode == 0, proc.stderr
    loaded, subs, bound = json.loads(proc.stdout)
    assert loaded == []
    assert subs == {m: f"dyadlab.{m}" for m in SUBMODULES}
    assert bound == sorted(dyadlab.__all__)
