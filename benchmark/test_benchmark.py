"""Smoke test of the benchmark at tiny size, and pins of the defects its workloads steer around.

Run from the repository root:

    python -m pytest benchmark -q

The smoke test makes no timing assertions.  Each pin is a strict expected
failure, so the fix of its defect turns it into an unexpected pass.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from dyadlab import cli, qdyn  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Layers each workload calls (metric names start with the layer and a dot);
# every metric of another layer must read 0.
ACTIVE = {
    "sde_wide": ("qdyn.simulate_ensemble", "qdyn.derive_trajectory_seed", "qdyn.ensemble_average",
                 "qdyn.sde"),
    "sde_long": ("qdyn.simulate_ensemble", "qdyn.derive_trajectory_seed", "qdyn.ensemble_average",
                 "qdyn.sde_trajectory", "qdyn.sde"),
    "calculus": ("qdyn.lindblad_path", "qshape.build_qshape", "qshape.distance_table.tv",
                 "qshape.distance_table.emd", "qshape.distance_table.kl", "qshape.earth_mover",
                 "optimizer.solve", "optimizer.grid_oracle", "phi.big_phi", "qiit.quantum_big_phi"),
    "cli_readme": ("cli",),
}


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0  # fail_frac 0 on the seed
    assert "fail_frac 0.000000" in proc.stdout
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end_metrics(workload):
    metrics = _result(workload, 0)
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer_metrics_and_idle_layers(workload):
    metrics = _result(workload, 1)
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    prefixes = tuple(f"{layer}." for layer in ACTIVE[workload] + ("trace",))
    assert [n for n, m in metrics.items() if not n.startswith(prefixes) and m["value"] != 0] == []
    calls = [n for n in metrics if n.startswith(prefixes[:-1]) and n.endswith((".calls", ".wall_ms"))]
    assert calls and all(metrics[n]["value"] > 0 for n in calls)
    assert metrics["trace.passes"]["value"] >= 1


@pytest.mark.parametrize("workload", ["sde_wide", "sde_long", "calculus"])
def test_setup_probe_loads_no_library_beyond_dyadlab(workload):
    """setup_s times dyadlab's imports and the input generator, not what the checks import.

    dyadlab loads scipy itself, so the probe forgets every scipy module first
    and then looks for any that the benchmark's own modules load again.
    """
    code = (
        "import sys; from pathlib import Path; "
        "from dyadlab import cli, errors, model, optimizer, phi, qdyn, qiit, qshape; "
        "libs = lambda: sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'jsonschema')); "
        "[sys.modules.pop(m) for m in libs()]; import workloads; "
        f"workloads.build({workload!r}, 3, Path.cwd(), Path('.bench_out'), 0.01); print(libs())"
    )
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("calculus", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.xfail(strict=True, reason="batched and single-run arithmetic round differently "
                   "when more than two amplitudes are nonzero")
def test_ensemble_member_replays_bitwise_from_uniform_state():
    psi = np.full(4, 0.5, dtype=complex)
    a = np.array([0.0, 2.0, 6.0, 4.0])
    records = qdyn.simulate_ensemble(psi, None, a, 1.0, 1e-3, 0.2, n_trajectories=200, seed=3)
    mismatched = [
        i for i, rec in enumerate(records)
        if not np.array_equal(
            rec.states,
            qdyn.sde_trajectory(psi, None, a, 1.0, 1e-3, 0.2,
                                seed=qdyn.derive_trajectory_seed(3, i)).states,
        )
    ]
    assert mismatched == []


LARGE_GAP = ["--pair", "00", "01", "--eigenvalues", "0,200,0,0", "--dt", "1e-3"]


@pytest.mark.xfail(strict=True, reason="RK4 overflows to NaN before the guard runs, so the "
                   "run exits 2 with 'Eigenvalues did not converge'")
def test_lindblad_outside_stability_region_exits_3(capsys):
    assert cli.main(["simulate", "lindblad", *LARGE_GAP]) == 3


@pytest.mark.xfail(strict=True, reason="the Euler-Maruyama drift factor is negative for this "
                   "gap; the run exits 0 with every outcome none")
def test_sde_outside_stability_region_exits_3(capsys):
    assert cli.main(["simulate", "sde", *LARGE_GAP]) == 3
