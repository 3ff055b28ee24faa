"""Command-line surface: outputs, exit codes, determinism, schemas."""

import contextlib
import hashlib
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadlab import cli, model, optimizer, qdyn, qiit

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


def test_optimize_refuses_a_table_asymmetric_beyond_tolerance(tmp_path):
    # accepted once, when the oracle then printed "agrees": false for it
    table = [list(row) for row in optimizer.SWAP_ROWS]
    table[1][0] = 2.00001
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps(table))
    code, out, err = _main_in_process(["optimize", "--table", str(path), "--oracle"])
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid distance table") and "must be symmetric" in err, err


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
    assert lines[0] == "time,p00,p01,p10,p11,coh_01,coh_02,coh_03,coh_12,coh_13,coh_23"
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


def test_simulate_lindblad_of_zero_steps_prints_the_initial_state(capsys):
    # --t 1 rounds to zero steps of --dt 3, so no RK4 step is refused
    data = _run_json(capsys, ["simulate", "lindblad", "--t", "1", "--dt", "3"])
    _validate("simulate_lindblad", data)
    assert data["t"] == 0.0
    psi0 = qdyn.prepare_dyad_superposition()
    rho0 = np.outer(psi0, psi0.conj())
    assert (data["rho_real"], data["rho_imag"]) == (rho0.real.tolist(), rho0.imag.tolist())
    code, out, err = _main_in_process(["simulate", "lindblad", "--t", "1", "--dt", "0.5"])
    assert (code, out) == (3, "")
    assert "spectral radius" in err, err


def test_simulate_lindblad_outside_stability_region_exits_3(capsys):
    # RK4's stability region for lindblad; sde samples its trajectories
    # exactly, so no step is too large for it
    argv = ["--pair", "00", "01", "--eigenvalues", "0,200,0,0", "--dt", "1e-3"]
    assert cli.main(["simulate", "lindblad", *argv]) == 3
    assert "numerical guard" in capsys.readouterr().err
    data = _run_json(capsys, ["simulate", "sde", *argv])
    _validate("simulate_sde", data)
    assert sum(data["outcomes"].values()) == 1


def test_simulate_lindblad_invariant_drift_exits_3_only_when_sampled(capsys):
    # inside RK4's stability region the state drifts negative at step 1 only:
    # the CSV grid samples it, JSON samples only --t
    argv = [
        "simulate", "lindblad",
        "--initial", "uniform",
        "--eigenvalues", "0,0,2,6",
        "--dt", "0.1519088319088319",
        "--t", "1",
    ]
    assert cli.main(argv + ["--format", "csv", "--samples", "8"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "numerical guard: state invariants drifted at t=0.151909 (trace 0.00e+00, "
        "hermiticity 0.00e+00, min eigenvalue -1.51e-02); reduce dt\n"
    )
    assert cli.main(argv) == 0
    # --t snaps to 7 steps
    assert json.loads(capsys.readouterr().out)["t"] == 7 * 0.1519088319088319


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
        ["simulate", "sde", "--seed", "18446744073709551616"],
        ["simulate", "sde", "--trajectories", "18446744073709551617"],  # 2**64 + 1 members
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


def test_lindblad_step_power_overflow_exits_3_without_warnings():
    # the coherences' RK4 factor 1 + 5e-11 passes the stability check; 1e14 steps overflow it
    code, out, err = _main_in_process(
        ["simulate", "lindblad", "--initial", "uniform", "--eigenvalues", "0,0,0,1",
         "--dt", "5.570587126876889", "--t", "5.570587126876889e14"]
    )
    _assert_contract(code, out, err)
    assert code == 3
    assert "overflows" in err


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
    # a JSON value other than a number in place of the 01 entry
    odd_entry=st.none() | st.sampled_from([{}, [], [2.0], "two", True]),
)
@example(off_diagonal=["2"] * 6, diagonal="0", oracle=False, granularity="1", bound=None, odd_entry={})
def test_optimize_exit_code_contract(off_diagonal, diagonal, oracle, granularity, bound, odd_entry):
    # accepted oracle lattices stay small: entries are at most 2, so the bound is at most 6
    table = _uniform_table(0.0)
    for (i, j), v in zip([(i, j) for i in range(4) for j in range(i + 1, 4)], off_diagonal):
        table[i][j] = table[j][i] = float(v)
    table[0][0] = float(diagonal)
    if odd_entry is not None:
        table[0][1] = odd_entry
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
            _AMPLITUDE_VALUES,  # a JSON string, which is not a number
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


_STATES = ["00", "01", "10", "11"]
_PAIR_VALUES = st.sampled_from(_STATES + ["0", "000", "2", "-1", "nan", ""])


@settings(max_examples=120, deadline=None)
@given(
    mode=st.sampled_from(["lindblad", "sde"]),
    eigenvalues=st.lists(st.sampled_from(_LARGE_EXTREMES), min_size=4, max_size=4),
    pair=st.none() | st.tuples(_PAIR_VALUES, _PAIR_VALUES),
    initial=st.none() | st.sampled_from(["plus0", "uniform", "nan", ""]),
)
@example(mode="lindblad", eigenvalues=["0", "1", "0", "1"], pair=("00", "01"), initial="plus0")
def test_simulate_eigenvalues_exit_code_contract(mode, eigenvalues, pair, initial):
    argv = ["simulate", mode, "--t", "0.01", f"--eigenvalues={','.join(eigenvalues)}"]
    argv += [] if pair is None else ["--pair", *pair]
    argv += [] if initial is None else ["--initial", initial]
    code, out, err = _main_in_process(argv)
    _assert_contract(code, out, err)
    # --pair and --initial exclude each other, and a pair is two distinct joint states
    if pair is None:
        valid_start = initial in (None, "plus0", "uniform")
    else:
        valid_start = initial is None and pair[0] != pair[1] and set(pair) <= set(_STATES)
    assert valid_start or code == 2, err


_TPM_ENTRIES = st.sampled_from([0, 1, 2, 3, -1, 4, 0.5, "1", True, 1e300, math.nan])


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from([["phi", "--state", "10"], ["qshape", "--state", "10"], ["distances"]]),
    entries=st.lists(_TPM_ENTRIES, min_size=4, max_size=4),
)
def test_tpm_file_exit_code_contract(command, entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rule.json")
        with open(path, "w") as fh:
            json.dump(entries, fh)  # NaN is written as the bare token NaN
        _assert_contract(*_main_in_process(command + ["--tpm", path]))


@pytest.mark.parametrize("command", [["phi", "--state", "10"], ["qshape", "--state", "10"], ["distances"]])
@pytest.mark.parametrize(
    "entries", [[0.9, 2, 1, 3], ["0", "2", "1", "3"], [0, 2.0, 1, 3], [0, 2, True, 3]]
)
def test_tpm_file_refuses_non_integer_successors(command, entries, tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(entries))
    code, out, err = _main_in_process(command + ["--tpm", str(path)])
    bad = next(i for i, v in enumerate(entries) if type(v) is not int)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid transition rule in {str(path)!r}: successor {bad} is "), err


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
        qdyn.prepare_dyad_superposition(), None, _default_eigenvalues("sde"), 1.0, 1e-3,
        0.0105, n_trajectories=3, seed=0, sample_times=[0.0105],
    )
    rho = qdyn.ensemble_average(records, at=records[0].times[-1])
    assert data["ensemble_average"] == {"rho_real": rho.real.tolist(), "rho_imag": rho.imag.tolist()}
    assert data["t"] == records[0].times[-1] == 0.01
    # a --t below half a step would integrate no step, so it is refused
    code, out, err = _main_in_process(["simulate", "sde", "--t", "0.0004", "--dt", "1e-3"])
    _assert_one_error_line(code, out, err)
    assert "--t 0.0004 rounds to zero steps of --dt 0.001" in err, err


def _default_eigenvalues(mode):
    """The collapse eigenvalues a `simulate` run uses without --eigenvalues."""
    args = cli.build_parser().parse_args(["simulate", mode])
    return np.array(cli._parse_eigenvalues(args.eigenvalues))


@pytest.mark.parametrize("mode", ["lindblad", "sde"])
def test_default_eigenvalues_are_the_reference_tables_default_pick(mode):
    pick = optimizer.solve(optimizer.SWAP_TABLE).default_pick
    assert _default_eigenvalues(mode).tolist() == list(pick)
    # the default applies only when the flag is absent
    code, out, err = _main_in_process(["simulate", mode, "--eigenvalues="])
    _assert_one_error_line(code, out, err)
    assert err.startswith("error: invalid eigenvalues ''"), err


@pytest.mark.parametrize(
    "argv",
    [["--t", "0"], ["--t", "0.0005"], ["--t", "1e-4", "--dt", "1e-3"], ["--t", "2e-5", "--dt", "1e-4"]],
)
def test_simulate_sde_refuses_a_run_of_zero_steps(argv):
    code, out, err = _main_in_process(["simulate", "sde", *argv])
    _assert_one_error_line(code, out, err)
    assert "rounds to zero steps of --dt" in err, err
    # a Lindblad run of zero steps reports its initial state
    assert _main_in_process(["simulate", "lindblad", *argv])[0] == 0


@pytest.mark.parametrize("count", [cli.MAX_TRAJECTORIES + 1, 2**64 + 1])
def test_simulate_sde_refuses_trajectories_past_the_cap_before_running(count, monkeypatch):
    def run_nothing(*args, **kwargs):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(qdyn, "simulate_ensemble", run_nothing)
    code, out, err = _main_in_process(["simulate", "sde", "--trajectories", str(count)])
    _assert_one_error_line(code, out, err)
    assert f"--trajectories must lie in [1, {cli.MAX_TRAJECTORIES}]" in err, err


def test_simulate_sde_largest_seed(capsys):
    data = _run_json(
        capsys,
        ["simulate", "sde", "--trajectories", "2", "--t", "0.01", "--seed", "18446744073709551615"],
    )
    _validate("simulate_sde", data)
    assert data["seed"] == 2**64 - 1


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


# The README qphi commands and their exact stdout: the closed form gives
# phi = 0.9999999999999998 for a marginal of Bloch length 0.9999999999999998
README_QPHI = [
    (
        ["--state", "plus0"],
        '{\n  "state": "plus0",\n  "phi_A": 0.9999999999999998,\n  "phi_B": 0.9999999999999998,'
        '\n  "phi_AB": 0.0,\n  "big_phi": 1.9999999999999996\n}\n',
    ),
    (
        ["--amplitudes", "amps.json"],
        '{\n  "state": "custom",\n  "phi_A": 1.0,\n  "phi_B": 1.0,\n  "phi_AB": 0.0,'
        '\n  "big_phi": 2.0\n}\n',
    ),
]


@pytest.mark.parametrize("argv, stdout", README_QPHI, ids=["state", "amplitudes"])
def test_readme_qphi_commands_print_frozen_bytes(argv, stdout, tmp_path, monkeypatch):
    # the amplitudes file of the CI workflow
    (tmp_path / "amps.json").write_text("[[0.7071067811865476, 0], 0, [0.7071067811865476, 0], 0]\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = _main_in_process(["qphi", *argv])
    assert (code, out, err) == (0, stdout, "")
    _validate("qphi", json.loads(out))


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


def test_amplitudes_are_normalized_as_numpy_normalizes_them(tmp_path):
    # with only entries 0 and 2 non-zero every summation order gives numpy's
    # norm, so psi / norm must match numpy's complex-by-real division bitwise
    rng = np.random.default_rng(36)
    path = tmp_path / "amps.json"
    for _ in range(200):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z *= (1.0 + rng.uniform(-5e-9, 5e-9)) / np.linalg.norm(z)
        values = [complex(z[0]), 0j, complex(z[1]), 0j]
        path.write_text(json.dumps([[v.real, v.imag] for v in values]))
        psi = np.array(values)
        assert cli._parse_amplitudes(str(path)) == (psi / np.linalg.norm(psi)).tolist()


def test_qphi_rejects_unnormalized_amplitudes(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([1.0, 1.0, 0.0, 0.0]))
    assert cli.main(["qphi", "--amplitudes", str(path)]) == 2
    assert "normalized" in capsys.readouterr().err


def test_qphi_prints_the_norm_of_a_tiny_vector(tmp_path):
    # its squares underflow to a norm of 0.0, but the refusal names the norm it has
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps([[1e-170, 0], 0, 0, 0]))
    code, out, err = _main_in_process(["qphi", "--amplitudes", str(path)])
    assert (code, out, err) == (2, "", "error: amplitudes are not normalized (norm 1e-170)\n")


@pytest.mark.parametrize("name", list(model.NAMED_STATES))
def test_every_named_state_runs_in_qphi_and_lindblad(name, capsys):
    amplitudes = model.NAMED_STATES[name]
    data = _run_json(capsys, ["qphi", "--state", name])
    _validate("qphi", data)
    rho = np.outer(amplitudes, amplitudes)
    assert data == {"state": name, **qiit.quantum_big_phi(rho).to_json()}
    if name == "uniform":
        assert data["big_phi"] == 2.0
    data = _run_json(capsys, ["simulate", "lindblad", "--initial", name])
    _validate("simulate_lindblad", data)
    assert data["populations"] == [abs(c) ** 2 for c in amplitudes]


def test_qphi_rejects_non_finite_amplitudes_by_name(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps([1, math.nan, 0, 0]))  # the JSON token NaN
    code, _, err = _main_in_process(["qphi", "--amplitudes", str(path)])
    assert code == 2
    assert err.startswith("error: amplitude 1 is not finite") and err.count("\n") == 1, err


@pytest.mark.parametrize("pair", [[1, 0, 99], [1], []])
def test_qphi_refuses_amplitude_lists_other_than_pairs(pair, tmp_path):
    path = tmp_path / "amps.json"
    path.write_text(json.dumps([pair, 0, 0, 0]))
    code, out, err = _main_in_process(["qphi", "--amplitudes", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid amplitudes"), err


def test_qphi_rejects_entangled_amplitudes(tmp_path, capsys):
    path = tmp_path / "bell.json"
    s = 1.0 / math.sqrt(2.0)
    path.write_text(json.dumps([s, 0.0, 0.0, s]))
    assert cli.main(["qphi", "--amplitudes", str(path)]) == 2


def _dyadlab_process(code, *argv, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120, cwd=cwd,
        env={
            **os.environ,
            **(env or {}),
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
        },
    )


def test_cli_import_loads_no_scipy():
    proc = _dyadlab_process(
        "import sys, dyadlab.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sde_ensemble_runs_in_one_process():
    # three batches of 1000, sampled without a Hamiltonian and integrated with
    # one: nothing forks and no process pool is loaded
    proc = _dyadlab_process(
        "import os, sys\n"
        "def no_fork(): raise AssertionError('forked')\n"
        "os.fork = no_fork\n"
        "from dyadlab import cli, qdyn\n"
        "assert cli.main(['simulate', 'sde', '--trajectories', '2500', '--t', '1']) == 0\n"
        "qdyn.simulate_ensemble(qdyn.basis_superposition(0, 1), qdyn.swap_hamiltonian(),\n"
        "                       (2.0, 0.0, 4.0, 6.0), 1.0, 1e-3, 0.002, n_trajectories=2500)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('multiprocessing', 'concurrent')),\n"
        "      file=sys.stderr)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


@pytest.mark.parametrize(
    "argv", [["distances", "--metric", "emd", "--points"], ["qshape", "--state", "10", "--metric", "emd"]]
)
def test_emd_commands_run_with_scipy_blocked(argv):
    run = "import sys; from dyadlab.cli import main; sys.exit(main(sys.argv[1:]))"
    free = _dyadlab_process(run, *argv)
    blocked = _dyadlab_process("import sys; sys.modules['scipy'] = None; " + run, *argv)
    assert free.returncode == 0 and blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == free.stdout


def test_package_and_cli_import_loads_no_numpy():
    proc = _dyadlab_process(
        "import sys, dyadlab\n"
        "bare = 'numpy' in sys.modules\n"
        "import dyadlab.cli\n"
        "print(bare, 'numpy' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


# The commands that run no linear algebra, and the simulate and
# `optimize --oracle` argument errors, with the exit code each expects; the
# files they read are the keys of NUMPY_FREE_FILES.  `optimize --oracle`
# itself runs its lattice search on numpy.
_SIMULATE_REFUSALS = [
    *(
        (["simulate", mode, *argv], 2)
        for mode in ("lindblad", "sde")
        for argv in (
            ["--samples", "0"],
            ["--eigenvalues", "1,2"],
            ["--pair", "00", "00"],
            ["--lambda", "-1"],
            ["--dt", "nan"],
            ["--format", "csv", "--samples", "200000", "--dt", "1e-6"],  # cli.MAX_CSV_ROWS
        )
    ),
    (["simulate", "sde", "--seed", "-1"], 2),
    (["simulate", "sde", "--threshold", "2"], 2),
    (["simulate", "sde", "--trajectories", "0"], 2),
    (["simulate", "sde", "--t", "1e-4", "--dt", "1e-3"], 2),  # zero steps
    (["simulate", "sde", "--t", "1e15"], 2),  # more than model.MAX_SDE_STEPS
]
NUMPY_FREE_COMMANDS = [
    (["--help"], 0),
    (["phi", "--state", "10"], 0),
    (["phi", "--tpm", "identity", "--state", "00"], 0),
    *((["qshape", "--state", "10", "--metric", m], 0) for m in ("tv", "emd", "kl")),
    (["distances", "--metric", "tv"], 0),
    (["distances", "--metric", "emd"], 0),
    (["distances", "--metric", "kl"], 2),  # KL is undefined on most pairs of Q-shapes
    (["distances", "--points"], 0),
    (["phi", "--state", "2"], 2),
    (["optimize"], 0),
    (["optimize", "--table", "table.json"], 0),
    *((["qphi", "--state", state], 0) for state in ("plus0", "0plus", "10")),
    (["qphi", "--amplitudes", "amps.json"], 0),
    (["qphi", "--amplitudes", "bell.json"], 2),  # entangled
    (["qphi", "--state", "uniform"], 0),
    *_SIMULATE_REFUSALS,
    (["optimize", "--oracle", "--granularity", "-1"], 2),
    (["optimize", "--oracle", "--granularity", "1e-9"], 2),  # optimizer.MAX_LATTICE_POINTS
    (["optimize", "--oracle", "--bound", "1"], 2),  # below 3x the largest entry
]
_BELL = 1.0 / math.sqrt(2.0)
NUMPY_FREE_FILES = {
    "table.json": [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
    "amps.json": [[0.7071067811865476, 0], 0, [0.7071067811865476, 0], 0],
    "bell.json": [_BELL, 0, 0, _BELL],
}
# Runs each argv of the JSON list in sys.argv[1] through cli.main in turn and
# prints a JSON list of [exit code, stdout]; an exception takes the exit code's place.
_RUN_EACH = """
import contextlib, io, json, sys
from dyadlab import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = repr(exc)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def numpy_free_runs(tmp_path_factory):
    """[exit code, stdout] of every NUMPY_FREE_COMMANDS entry: run freely, and with numpy blocked."""
    cwd = tmp_path_factory.mktemp("numpy_free")
    for name, data in NUMPY_FREE_FILES.items():
        (cwd / name).write_text(json.dumps(data))
    argvs = json.dumps([argv for argv, _ in NUMPY_FREE_COMMANDS])
    free = _dyadlab_process(_RUN_EACH, argvs, cwd=cwd)
    blocked = _dyadlab_process("import sys; sys.modules['numpy'] = None\n" + _RUN_EACH, argvs, cwd=cwd)
    assert free.returncode == 0 and blocked.returncode == 0, blocked.stderr
    return json.loads(free.stdout), json.loads(blocked.stdout)


@pytest.mark.parametrize("case", range(len(NUMPY_FREE_COMMANDS)))
def test_numpy_free_commands_run_with_numpy_blocked(numpy_free_runs, case):
    free, blocked = (runs[case] for runs in numpy_free_runs)
    assert free[0] == NUMPY_FREE_COMMANDS[case][1], free
    assert blocked == free


# README and CI commands with the first 12 hex digits of the sha256 of their
# stdout, unchanged since they ran on numpy.  All but the two oracle runs now
# run without it.
README_DIGESTS = [
    (["phi", "--state", "10"], "cbf100b25141"),
    (["phi", "--tpm", "identity", "--state", "00"], "9b1afc9bc9ca"),
    (["qshape", "--state", "10"], "8427e35326d9"),
    (["qshape", "--state", "10", "--metric", "kl"], "32fd7abe6c0d"),
    (["distances"], "5de72d0df1b5"),
    (["distances", "--metric", "emd"], "5c60f07e1284"),
    (["optimize"], "cf4fabc447a3"),
    (["optimize", "--oracle"], "3f8078990981"),
    (["optimize", "--oracle", "--granularity", "0.5"], "7e3fa53e32d8"),
]


@pytest.mark.parametrize("argv, digest", README_DIGESTS)
def test_numpy_free_readme_commands_print_frozen_bytes(capsys, argv, digest):
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:12] == digest


# The README and CI simulate commands, digested as above.  Each prints the
# same bytes with numpy's AVX-512 dispatch off (the test after this one) and
# under OPENBLAS_CORETYPE Prescott, Sandybridge, Haswell and SkylakeX.  The
# sde digests are those of the exact sampler's own Philox words and
# Box-Muller normals; the 10^4-trajectory run prints only outcome counts,
# whose uniforms are numpy's random() bit for bit, so it kept its bytes.
README_SIMULATE_DIGESTS = [
    (["simulate", "lindblad", "--pair", "00", "01", "--eigenvalues", "2,0,4,6", "--t", "1",
      "--dt", "1e-4"], "9cb05df22809"),
    (["simulate", "lindblad", "--initial", "uniform", "--t", "1", "--format", "csv",
      "--samples", "101"], "fc29921df732"),
    (["simulate", "sde", "--trajectories", "10000", "--seed", "0", "--t", "6", "--dt", "1e-3",
      "--pair", "00", "01", "--eigenvalues", "2,0,4,6"], "a04a039d2699"),
    (["simulate", "sde", "--trajectories", "1", "--format", "csv", "--t", "2", "--dt", "1e-3"],
     "72f85456616f"),
    # CI's byte-identity run
    (["simulate", "sde", "--trajectories", "2000", "--t", "1", "--dt", "1e-3", "--pair", "00",
      "01", "--eigenvalues", "2,0,4,6", "--ensemble-average"], "3f6031c1aaa0"),
]


@pytest.mark.parametrize(
    "argv, digest",
    README_SIMULATE_DIGESTS,
    ids=["lindblad_json", "lindblad_csv", "sde", "sde_csv", "sde_average"],
)
def test_readme_simulate_commands_print_frozen_bytes(capsys, argv, digest):
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:12] == digest


# Turns numpy's AVX-512 loops off in a child process.  Appended to _RUN_EACH,
# _AVX512_ON prints, after the results, the AVX-512 dispatch targets still on.
_NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
_AVX512_ON = """
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(json.dumps([t for t in __cpu_dispatch__ if __cpu_features__.get(t) and ("AVX512" in t or t == "X86_V4")]))
"""


def test_readme_simulate_commands_print_the_same_bytes_without_avx512():
    # the exact sampler's draws and exp, and the Lindblad run, use only loops
    # whose bits do not depend on the CPU features numpy dispatches on
    argvs = json.dumps([argv for argv, _ in README_SIMULATE_DIGESTS])
    runs = []
    for env in ({"NPY_DISABLE_CPU_FEATURES": ""}, _NO_AVX512):
        proc = _dyadlab_process(_RUN_EACH + _AVX512_ON, argvs, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append([json.loads(line) for line in proc.stdout.splitlines()])
    (default, on), (restricted, still_on) = runs
    if not on:
        pytest.skip("numpy runs no AVX-512 loops on this CPU, so there are none to turn off")
    assert still_on == [], f"{_NO_AVX512} left {still_on} on"
    assert [code for code, _ in default] == [0] * len(README_SIMULATE_DIGESTS)
    assert restricted == default


def test_optimize_table_prints_rate_sums_added_left_to_right(tmp_path):
    # Python 3.12's builtin sum rounded this table's rate sum to 21.400000000000002
    path = tmp_path / "table.json"
    path.write_text("[[0, 3.6, 1.8, 2.6], [3.6, 0, 0.8, 4.5], [1.8, 0.8, 0, 1.6], [2.6, 4.5, 1.6, 0]]")
    code, out, err = _main_in_process(["optimize", "--table", str(path)])
    assert (code, err) == (0, "")
    data = json.loads(out)
    _validate("optimize", data)
    assert data["minimizers"] == [[3.6, 0.0, 0.8, 6.2]] and data["pairwise_rate_sums"] == [21.4]
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "5c32aa6815cc"


@pytest.mark.parametrize("argv", [["lindblad"], ["lindblad", "--format", "csv"], ["sde"]])
def test_negative_duration_is_refused_by_the_step_count(argv):
    code, out, err = _main_in_process(["simulate", *argv, "--t", "-1"])
    assert (code, out, err) == (2, "", "error: duration must be finite and non-negative\n")


def test_optimize_loads_neither_qdyn_nor_qiit():
    proc = _dyadlab_process(
        "import sys; from dyadlab.cli import main\n"
        "assert main(['optimize']) == 0\n"
        "print(sorted(m for m in ('dyadlab.qdyn', 'dyadlab.qiit') if m in sys.modules), file=sys.stderr)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


def test_simulate_and_qphi_never_load_the_optimizer(tmp_path):
    amplitudes = tmp_path / "amps.json"
    amplitudes.write_text(json.dumps([[0.6, 0], 0, [0.8, 0], 0]))
    proc = _dyadlab_process(
        "import sys; from dyadlab.cli import main\n"
        "for mode in ('lindblad', 'sde'):\n"
        "    assert main(['simulate', mode, '--t', '0.01']) == 0\n"
        "    assert main(['simulate', mode, '--t', '0.01', '--eigenvalues', '1,2,3,4']) == 0\n"
        "assert main(['qphi', '--state', 'plus0']) == 0\n"
        f"assert main(['qphi', '--amplitudes', {str(amplitudes)!r}]) == 0\n"
        "print('dyadlab.optimizer' in sys.modules, file=sys.stderr)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


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


# Each JSON input file option, with a command that reads it.
_FILE_INPUTS = {
    "distance table": ["optimize", "--table"],
    "transition rule": ["phi", "--state", "10", "--tpm"],
    "amplitudes": ["qphi", "--amplitudes"],
}
# JSON texts that are none of the three inputs; None marks `distances --output`'s file.
_MALFORMED_JSON = {
    "distances_output": None,
    "object_entry": "[[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, {}]]",
    "string": '"abc"',
    "null": "null",
    "three_rows": "[[0, 1, 1], [1, 0, 1], [1, 1, 0]]",
    "deep_nesting": "[" * 100_000 + "]" * 100_000,
    "huge_integer": "[" + "9" * 400 + ", 0, 0, 0]",
    # JSON numbers only: not a string that spells one, and not a bool
    "number_string": '"1000"',
    "string_entry": '["1", 0, 0, 0]',
    "bool_entry": "[true, 0, 0, 0]",
    "bool_after_pair": "[[1, 0], 0, 0, false]",
    "string_table_entries": '[[0, "2", 2, 2], ["2", 0, 4, 2], [2, 4, 0, 2], [2, 2, 2, 0]]',
    "bool_table_entries": "[[0, true, 2, 2], [true, 0, 4, 2], [2, 4, 0, 2], [2, 2, 2, 0]]",
}


def _assert_one_error_line(code, out, err):
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("shape", _MALFORMED_JSON)
@pytest.mark.parametrize("what", _FILE_INPUTS)
def test_malformed_json_input_exits_2_with_its_reason(what, shape, tmp_path):
    path = str(tmp_path / "input.json")
    if _MALFORMED_JSON[shape] is None:
        assert _main_in_process(["distances", "--output", path])[0] == 0
    else:
        Path(path).write_text(_MALFORMED_JSON[shape])
    code, out, err = _main_in_process(_FILE_INPUTS[what] + [path])
    _assert_one_error_line(code, out, err)
    assert err.startswith(f"error: invalid {what} in {path!r}: "), err


# One quick run of every subcommand.
_EVERY_SUBCOMMAND = [
    ["phi", "--state", "10"],
    ["qshape", "--state", "10"],
    ["distances"],
    ["optimize"],
    ["simulate", "lindblad", "--t", "0.01"],
    ["simulate", "sde", "--t", "0.01"],
    ["qphi", "--state", "plus0"],
]


@pytest.mark.parametrize("where", ["missing_directory", "a_directory", "missing_out_dir"])
@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=" ".join)
def test_unwritable_output_exits_2(argv, where, tmp_path, monkeypatch):
    missing = tmp_path / "missing"
    if where == "missing_directory":
        output = str(missing / "out.json")
    elif where == "a_directory":
        output = str(tmp_path)
    else:
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(missing))
        output = "out.json"
    code, out, err = _main_in_process(argv + ["--output", output])
    _assert_one_error_line(code, out, err)
    assert err.startswith("error: cannot write output "), err
    assert not missing.exists()


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=" ".join)
def test_output_file_holds_the_stdout_bytes(argv, tmp_path):
    code, out, err = _main_in_process(argv)
    assert (code, err) == (0, "")
    path = tmp_path / "out.txt"
    assert _main_in_process(argv + ["--output", str(path)]) == (0, "", "")
    assert path.read_bytes() == out.encode()


def test_coarse_oracle_lattice_is_blamed_on_stderr():
    code, out, err = _main_in_process(["optimize", "--oracle", "--granularity", "5"])
    _assert_one_error_line(code, out, err)
    assert "granularity 5.0 on [0, 12.0]" in err and "finer granularity" in err, err
