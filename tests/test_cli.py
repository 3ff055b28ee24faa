"""Command-line surface: outputs, exit codes, determinism, schemas."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import cli, optimizer, qdyn

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "docs" / "schemas"


def _schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
        return json.load(fh)


def _run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def _validate(name, instance):
    jsonschema.validate(instance=instance, schema=_schema(name))


def test_phi_subcommand(capsys):
    data = _run_json(capsys, ["phi", "--state", "10"])
    _validate("phi", data)
    assert data["big_phi"] == 2.0
    assert data["state"] == [1, 0]


def test_phi_identity_rule(capsys):
    data = _run_json(capsys, ["phi", "--tpm", "identity", "--state", "00"])
    _validate("phi", data)
    assert data["big_phi"] == 0.0
    assert data["flags"]


def test_phi_invalid_state_exits_2(capsys):
    code = cli.main(["phi", "--state", "99"])
    assert code == 2
    assert "invalid state" in capsys.readouterr().err


def test_qshape_subcommand(capsys):
    data = _run_json(capsys, ["qshape", "--state", "10"])
    _validate("qshape", data)
    assert data["rows"] == [
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.5, 0.0, 0.5],
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
    ]
    assert data["metric_is_default"] is True
    assert data["points"]["A"] == [0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 0.5]


def test_qshape_kl_metric_flagged_non_default(capsys):
    data = _run_json(capsys, ["qshape", "--state", "10", "--metric", "kl"])
    _validate("qshape", data)
    assert data["metric_is_default"] is False
    # disjoint-support rows make most pairs undefined under the guarded KL
    assert data["undefined_pairs"]
    default = _run_json(capsys, ["qshape", "--state", "10"])
    assert default["distances_to_other_states"] != data["distances_to_other_states"]


def test_distances_subcommand(capsys):
    data = _run_json(capsys, ["distances"])
    _validate("distances", data)
    table = np.array(data["table"])
    assert table[1, 2] == 4.0
    assert np.array_equal(table, table.T)
    assert np.all(np.diag(table) == 0.0)


def test_distances_with_points(capsys):
    data = _run_json(capsys, ["distances", "--points"])
    _validate("distances", data)
    assert set(data["points"]) == {"00", "01", "10", "11"}


def test_optimize_subcommand(capsys):
    data = _run_json(capsys, ["optimize"])
    _validate("optimize", data)
    assert len(data["minimizers"]) == 12
    assert data["optimal_sum"] == 12.0
    assert data["default_pick"] == [0.0, 2.0, 6.0, 4.0]


def test_optimize_with_oracle(capsys):
    data = _run_json(capsys, ["optimize", "--oracle"])
    _validate("optimize", data)
    assert data["oracle"]["agrees"] is True


def test_optimize_zero_table(tmp_path, capsys):
    table_path = tmp_path / "zeros.json"
    table_path.write_text(json.dumps([[0.0] * 4] * 4))
    data = _run_json(capsys, ["optimize", "--table", str(table_path)])
    assert data["minimizers"] == [[0.0, 0.0, 0.0, 0.0]]


def test_optimize_bad_table_exits_2(tmp_path, capsys):
    table_path = tmp_path / "bad.json"
    table_path.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
    assert cli.main(["optimize", "--table", str(table_path)]) == 2


def _uniform_table(entry):
    return [[0.0 if i == j else entry for j in range(4)] for i in range(4)]


def test_optimize_refuses_entries_whose_gap_sums_overflow(tmp_path):
    table_path = tmp_path / "huge.json"
    table_path.write_text(json.dumps(_uniform_table(1e308)))
    code, _, err = _main_in_process(["optimize", "--table", str(table_path)])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_optimize_largest_accepted_entries_print_finite_json(tmp_path):
    table_path = tmp_path / "cap.json"
    table_path.write_text(json.dumps(_uniform_table(optimizer.MAX_TABLE_ENTRY)))
    code, out, err = _main_in_process(["optimize", "--table", str(table_path)])
    assert code == 0 and err == ""
    _validate("optimize", json.loads(out, parse_constant=lambda name: pytest.fail(name)))


def test_simulate_lindblad_json(capsys):
    data = _run_json(
        capsys,
        [
            "simulate", "lindblad",
            "--pair", "00", "01",
            "--eigenvalues", "2,0,4,6",
            "--t", "1", "--dt", "1e-4",
        ],
    )
    _validate("simulate_lindblad", data)
    assert data["coherences"]["01"] == pytest.approx(0.5 * math.exp(-2.0), abs=1e-6)
    assert data["populations"][0] == pytest.approx(0.5, abs=1e-9)


def test_simulate_lindblad_csv(capsys):
    code = cli.main(
        [
            "simulate", "lindblad",
            "--pair", "00", "01",
            "--eigenvalues", "2,0,4,6",
            "--t", "0.1", "--dt", "1e-3",
            "--format", "csv", "--samples", "11",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 12
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(0.5, abs=1e-12)
    assert first[5] == pytest.approx(0.5, abs=1e-12)


def test_simulate_lindblad_unstable_step_exits_3(capsys):
    code = cli.main(
        [
            "simulate", "lindblad",
            "--pair", "00", "11",
            "--eigenvalues", "2,0,4,6",
            "--t", "5", "--dt", "0.5",
        ]
    )
    assert code == 3
    assert "guard" in capsys.readouterr().err


def test_simulate_lindblad_outside_stability_region_exits_3(capsys):
    # RK4's stability region for lindblad, a positive drift factor for sde
    for mode in ("lindblad", "sde"):
        code = cli.main(
            [
                "simulate", mode,
                "--pair", "00", "01",
                "--eigenvalues", "0,200,0,0",
                "--dt", "1e-3",
            ]
        )
        assert code == 3
        assert "numerical guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "lindblad", "--t", "inf"],
        ["simulate", "lindblad", "--t", "nan"],
        ["simulate", "lindblad", "--dt", "inf"],
        ["simulate", "lindblad", "--lambda", "nan"],
        ["simulate", "lindblad", "--format", "csv", "--samples", "0"],
        ["simulate", "lindblad", "--t", "1e300", "--dt", "1e-300"],
        ["simulate", "sde", "--dt", "inf"],
        ["simulate", "sde", "--t", "inf"],
        ["simulate", "sde", "--lambda", "inf"],
        ["optimize", "--oracle", "--granularity", "0.001"],
        ["optimize", "--oracle", "--granularity", "nan"],
        ["simulate", "sde", "--threshold", "5"],
        ["simulate", "sde", "--threshold", "nan"],
        ["simulate", "sde", "--threshold", "0"],
        ["simulate", "sde", "--trajectories", "3", "--format", "csv"],
        ["simulate", "sde", "--t", "1000", "--dt", "1e-9", "--trajectories", "2"],
        ["simulate", "sde", "--t", "1e300", "--dt", "1e-3"],
        ["simulate", "sde", "--seed", "-1"],
    ],
)
def test_out_of_range_numbers_exit_2(argv, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["sde", "lindblad"])
def test_samples_beyond_the_step_grid_repeat_no_rows(mode, capsys):
    # 10 steps have 11 distinct sample rows; more samples snap onto them
    argv = ["simulate", mode, "--t", "0.01", "--dt", "1e-3", "--format", "csv"]
    assert cli.main(argv + ["--samples", "11"]) == 0
    expected = capsys.readouterr().out
    start = time.perf_counter()
    assert cli.main(argv + ["--samples", str(10**8)]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out == expected
    assert len(expected.strip().split("\n")) == 12


@pytest.mark.parametrize("mode", ["sde", "lindblad"])
def test_csv_row_cap_refuses_before_building_rows(mode):
    argv = ["simulate", mode, "--t", "1e300", "--dt", "1e-3", "--format", "csv",
            "--samples", "20000000"]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, _, err = _main_in_process(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert f"more than the {cli.MAX_CSV_ROWS} allowed" in err
    assert peak < 2**20


def _main_in_process(argv):
    """Exit code, stdout and stderr of one in-process run, warnings included in stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a malformed number
            code = exc.code
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, _out, err):
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    assert "Warning" not in err, err


_EXTREMES = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300"]
_LARGE_EXTREMES = _EXTREMES + ["1e308"]


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["sde", "lindblad"]),
    t=st.sampled_from(_EXTREMES + ["0.01"]),
    dt=st.sampled_from(_EXTREMES + ["1e-3"]),
    lam=st.sampled_from(_EXTREMES + ["1"]),
    threshold=st.sampled_from(_EXTREMES + ["0.99"]),
    samples=st.sampled_from(_EXTREMES + ["3", "20000000"]),
    seed=st.sampled_from(_EXTREMES + ["5"]),
    trajectories=st.sampled_from(_EXTREMES + ["3"]),
    csv=st.booleans(),
)
def test_simulate_exit_code_contract(mode, t, dt, lam, threshold, samples, seed, trajectories, csv):
    # an accepted sde case is at most 10 steps of 3 trajectories; lindblad powers its step
    argv = ["simulate", mode, "--t", t, "--dt", dt, "--lambda", lam, "--samples", samples]
    if mode == "sde":
        argv += ["--threshold", threshold, "--seed", seed, "--trajectories", trajectories]
    if csv:
        argv += ["--format", "csv"]
    _assert_contract(*_main_in_process(argv))


@settings(max_examples=100, deadline=None)
@given(
    off_diagonal=st.lists(st.sampled_from(_LARGE_EXTREMES + ["2"]), min_size=6, max_size=6),
    diagonal=st.sampled_from(_LARGE_EXTREMES),
    oracle=st.booleans(),
    granularity=st.sampled_from(_LARGE_EXTREMES + ["1"]),
    bound=st.sampled_from(_LARGE_EXTREMES + [None]),
)
def test_optimize_exit_code_contract(off_diagonal, diagonal, oracle, granularity, bound):
    # accepted oracle lattices stay small: entries are at most 2, so the bound is at most 6
    table = _uniform_table(0.0)
    for (i, j), v in zip([(i, j) for i in range(4) for j in range(i + 1, 4)], off_diagonal):
        table[i][j] = table[j][i] = float(v)
    table[0][0] = float(diagonal)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        with open(path, "w") as fh:
            json.dump(table, fh)
        argv = ["optimize", "--table", path]
        if oracle:
            argv += ["--oracle", "--granularity", granularity]
            argv += [] if bound is None else ["--bound", bound]
        _assert_contract(*_main_in_process(argv))


_AMPLITUDE_VALUES = st.sampled_from(_LARGE_EXTREMES + ["0.5", "1"])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            _AMPLITUDE_VALUES,  # a JSON string, parsed by complex()
            _AMPLITUDE_VALUES.map(float),
            st.tuples(_AMPLITUDE_VALUES.map(float), _AMPLITUDE_VALUES.map(float)).map(list),
        ),
        min_size=4,
        max_size=4,
    )
)
def test_qphi_amplitudes_exit_code_contract(amplitudes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "amps.json")
        with open(path, "w") as fh:
            json.dump(amplitudes, fh)
        _assert_contract(*_main_in_process(["qphi", "--amplitudes", path]))


def test_simulate_sde_single_trajectory_csv(capsys):
    code = cli.main(
        [
            "simulate", "sde",
            "--pair", "00", "01",
            "--eigenvalues", "2,0,4,6",
            "--t", "0.2", "--dt", "1e-3",
            "--trajectories", "1", "--seed", "0",
            "--format", "csv", "--samples", "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    # populations of the two unpopulated basis states stay zero
    last = [float(v) for v in lines[-1].split(",")]
    assert last[3] == 0.0 and last[4] == 0.0


def test_simulate_sde_ensemble_json(capsys):
    data = _run_json(
        capsys,
        [
            "simulate", "sde",
            "--pair", "00", "01",
            "--eigenvalues", "2,0,4,6",
            "--t", "3", "--dt", "2e-3",
            "--trajectories", "200", "--seed", "0",
            "--ensemble-average",
        ],
    )
    _validate("simulate_sde", data)
    counted = sum(data["outcomes"][k] for k in ("00", "01", "10", "11", "none"))
    assert counted == 200
    assert data["outcomes"]["10"] == 0 and data["outcomes"]["11"] == 0
    assert 0.3 < data["frequencies"]["00"] < 0.7


def test_simulate_sde_ensemble_average_at_off_grid_t(capsys):
    # --t 0.0105 is not a multiple of --dt; the engine stops at its snapped step
    data = _run_json(
        capsys,
        ["simulate", "sde", "--trajectories", "3", "--t", "0.0105", "--dt", "1e-3",
         "--ensemble-average"],
    )
    _validate("simulate_sde", data)
    records = qdyn.simulate_ensemble(
        qdyn.prepare_dyad_superposition(), None, cli._default_eigenvalues(), 1.0, 1e-3,
        0.0105, n_trajectories=3, seed=0, sample_times=[0.0105],
    )
    rho = qdyn.ensemble_average(records, at=records[0].times[-1])
    assert data["ensemble_average"] == {"rho_real": rho.real.tolist(), "rho_imag": rho.imag.tolist()}
    assert data["t"] == 0.0105


def test_simulate_sde_zero_trajectories_exits_2(capsys):
    code = cli.main(["simulate", "sde", "--trajectories", "0"])
    assert code == 2
    assert "trajectories" in capsys.readouterr().err


def test_qphi_subcommand(capsys):
    data = _run_json(capsys, ["qphi", "--state", "plus0"])
    _validate("qphi", data)
    assert data["big_phi"] == pytest.approx(2.0, abs=1e-12)
    assert (data["phi_A"], data["phi_B"], data["phi_AB"]) == (
        pytest.approx(1.0, abs=1e-12),
        pytest.approx(1.0, abs=1e-12),
        0.0,
    )


def test_qphi_classical_state(capsys):
    data = _run_json(capsys, ["qphi", "--state", "01"])
    assert data["big_phi"] == pytest.approx(2.0, abs=1e-12)


def test_qphi_other_superposed_state(capsys):
    data = _run_json(capsys, ["qphi", "--state", "0plus"])
    _validate("qphi", data)
    assert data["big_phi"] == pytest.approx(2.0, abs=1e-12)


def test_qphi_amplitudes_file(tmp_path, capsys):
    path = tmp_path / "amps.json"
    s = 1.0 / math.sqrt(2.0)
    path.write_text(json.dumps([[s, 0.0], [s, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    data = _run_json(capsys, ["qphi", "--amplitudes", str(path)])
    _validate("qphi", data)
    assert data["big_phi"] == pytest.approx(2.0, abs=1e-12)


def test_qphi_rejects_unnormalized_amplitudes(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([1.0, 1.0, 0.0, 0.0]))
    assert cli.main(["qphi", "--amplitudes", str(path)]) == 2
    assert "normalized" in capsys.readouterr().err


def test_qphi_rejects_non_finite_amplitudes_by_name(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps([1, "nan", 0, 0]))
    code, _, err = _main_in_process(["qphi", "--amplitudes", str(path)])
    assert code == 2
    assert err.startswith("error: amplitude 1 is not finite") and err.count("\n") == 1, err


def test_qphi_rejects_entangled_amplitudes(tmp_path, capsys):
    path = tmp_path / "bell.json"
    s = 1.0 / math.sqrt(2.0)
    path.write_text(json.dumps([s, 0.0, 0.0, s]))
    assert cli.main(["qphi", "--amplitudes", str(path)]) == 2


def _dyadlab_process(code, *argv):
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])},
    )


def test_cli_import_loads_no_scipy():
    proc = _dyadlab_process(
        "import sys, dyadlab.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv", [["distances", "--metric", "emd", "--points"], ["qshape", "--state", "10", "--metric", "emd"]]
)
def test_emd_commands_run_with_scipy_blocked(argv):
    run = "import sys; from dyadlab.cli import main; sys.exit(main(sys.argv[1:]))"
    free = _dyadlab_process(run, *argv)
    blocked = _dyadlab_process("import sys; sys.modules['scipy'] = None; " + run, *argv)
    assert free.returncode == 0 and blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == free.stdout


def test_help_exits_zero():
    for argv in (
        ["--help"],
        ["phi", "--help"],
        ["qshape", "--help"],
        ["distances", "--help"],
        ["optimize", "--help"],
        ["simulate", "--help"],
        ["simulate", "lindblad", "--help"],
        ["simulate", "sde", "--help"],
        ["qphi", "--help"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_repeated_runs_are_byte_identical(tmp_path):
    argv_tail = [
        "simulate", "sde",
        "--pair", "00", "01",
        "--t", "0.5", "--dt", "1e-3",
        "--trajectories", "40", "--seed", "7",
    ]
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    assert cli.main(argv_tail + ["--output", str(out1)]) == 0
    assert cli.main(argv_tail + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_output_directory_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
    assert cli.main(["phi", "--state", "10", "--output", "report.json"]) == 0
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["big_phi"] == 2.0


def test_custom_tpm_file(tmp_path, capsys):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps([0, 2, 1, 3]))
    data = _run_json(capsys, ["phi", "--tpm", str(path), "--state", "01"])
    assert data["big_phi"] == 2.0
