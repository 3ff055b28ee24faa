"""Command-line surface: reproducible, scriptable runs of every computation.

Subcommands: ``phi``, ``qshape``, ``distances``, ``optimize``, ``simulate``
(with ``lindblad`` and ``sde`` modes), and ``qphi``.  All output is JSON or
CSV with a fixed field order, and all randomness flows from ``--seed``
(default 0), so identical invocations produce byte-identical files.

Exit codes: 0 on success, 2 for invalid arguments or inputs, 3 when a
numerical guard trips (for example an unstable integration step).

If the environment variable ``DYADLAB_OUT_DIR`` is set, relative ``--output``
paths are resolved inside that directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import model, optimizer, phi, qdyn, qiit, qshape
from .errors import DyadError, KLUndefined, StepTooLarge

ENV_OUT_DIR = "DYADLAB_OUT_DIR"
# Largest CSV time series: 10^5 Lindblad rows already take about 150 MB and 7 s.
MAX_CSV_ROWS = 10**5

CSV_COLUMNS = (
    "time",
    "p00",
    "p01",
    "p10",
    "p11",
    "coh_01",
    "coh_02",
    "coh_03",
    "coh_12",
    "coh_13",
    "coh_23",
)


class UsageError(ValueError):
    """Bad command-line input; reported on stderr with exit code 2."""


def _parse_state(text: str) -> model.DyadState:
    if text in model.STATE_LABELS:
        return model.DyadState(int(text[0]), int(text[1]))
    raise UsageError(f"invalid state {text!r}; expected one of {', '.join(model.STATE_LABELS)}")


def _parse_tpm(text: str) -> model.Tpm2:
    if text in model.NAMED_TPMS:
        return model.NAMED_TPMS[text]()
    try:
        with open(text) as fh:
            data = json.load(fh)
        return model.Tpm2.from_json(data, name=os.path.basename(text))
    except OSError as exc:
        raise UsageError(f"cannot read transition rule {text!r}: {exc}")
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid transition rule in {text!r}: {exc}")


def _parse_eigenvalues(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
        return qdyn.build_collapse_operator(values)
    except ValueError as exc:
        raise UsageError(f"invalid eigenvalues {text!r}: {exc}")


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    out_dir = os.environ.get(ENV_OUT_DIR)
    if out_dir and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


def _emit(text: str, output: str | None) -> None:
    path = _resolve_output(output)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _csv_row(time: float, rho: np.ndarray) -> list:
    pops = [float(rho[i, i].real) for i in range(4)]
    cohs = qdyn.coherence_magnitudes(rho)
    return [float(time), *pops, *(cohs[f"{i}{k}"] for i, k in qdyn.COHERENCE_PAIRS)]


def cmd_phi(args) -> int:
    tpm = _parse_tpm(args.tpm)
    state = _parse_state(args.state)
    report = phi.big_phi(tpm, state)
    payload = {"tpm": tpm.to_json(), "state": state.to_json(), **report.to_json()}
    _emit(_json_text(payload), args.output)
    return 0


def _part_points(shape: qshape.QShape) -> dict:
    """Each part's flattened 8-d point, keyed by unit."""
    return {unit: shape.part_point(unit).tolist() for unit in model.UNITS}


def cmd_qshape(args) -> int:
    tpm = _parse_tpm(args.tpm)
    state = _parse_state(args.state)
    shape = qshape.build_qshape(tpm, state)
    style = qshape.build_qshape_iit4(tpm, state)
    payload = shape.to_json()
    payload["iit4_style"] = style.to_json()
    payload["points"] = _part_points(shape)
    distances = {}
    undefined = []
    for other in model.ALL_STATES:
        if other == state:
            continue
        try:
            d = qshape.qshape_distance(
                shape, qshape.build_qshape(tpm, other), metric=args.metric
            )
        except KLUndefined:
            d = None
            undefined.append(other.label)
        distances[other.label] = d
    payload["metric"] = args.metric
    payload["metric_is_default"] = args.metric == qshape.DEFAULT_METRIC
    payload["distances_to_other_states"] = distances
    if undefined:
        payload["undefined_pairs"] = undefined
    _emit(_json_text(payload), args.output)
    return 0


def cmd_distances(args) -> int:
    tpm = _parse_tpm(args.tpm)
    try:
        table = qshape.distance_table(tpm, metric=args.metric)
    except KLUndefined as exc:
        raise UsageError(f"metric {args.metric!r} is undefined on these Q-shapes: {exc}")
    payload = {
        "metric": args.metric,
        "metric_is_default": args.metric == qshape.DEFAULT_METRIC,
        "states": list(model.STATE_LABELS),
        "table": table.tolist(),
    }
    if args.points:
        payload["points"] = {
            s.label: _part_points(qshape.build_qshape(tpm, s)) for s in model.ALL_STATES
        }
    _emit(_json_text(payload), args.output)
    return 0


def _load_table(path: str | None) -> np.ndarray:
    if path is None:
        return optimizer.SWAP_TABLE
    try:
        with open(path) as fh:
            data = json.load(fh)
        return optimizer.validate_table(data)
    except OSError as exc:
        raise UsageError(f"cannot read table {path!r}: {exc}")
    except ValueError as exc:
        raise UsageError(f"invalid distance table in {path!r}: {exc}")


def cmd_optimize(args) -> int:
    table = _load_table(args.table)
    result = optimizer.solve(table)
    payload = {"table": table.tolist(), **result.to_json()}
    if args.oracle:
        oracle = optimizer.grid_oracle(table, granularity=args.granularity, bound=args.bound)
        payload["oracle"] = {
            "granularity": args.granularity,
            "bound": args.bound if args.bound is not None else 3.0 * float(table.max()),
            "minimizers": [m.to_json() for m in oracle.minimizers],
            "optimal_sum": oracle.optimal_sum,
            "agrees": oracle.minimizers == result.minimizers,
        }
    _emit(_json_text(payload), args.output)
    return 0


def _initial_pure_state(args) -> np.ndarray:
    if args.pair is not None:
        i, k = (_parse_state(p).index for p in args.pair)
        if i == k:
            raise UsageError("--pair needs two distinct states")
        return qdyn.basis_superposition(i, k)
    if args.initial == "plus0":
        return qdyn.prepare_dyad_superposition()
    if args.initial == "uniform":
        return np.ones(4, dtype=complex) / 2.0
    return None  # unreachable; argparse restricts choices


def _default_eigenvalues() -> np.ndarray:
    pick = optimizer.solve(optimizer.SWAP_TABLE).default_pick
    return qdyn.build_collapse_operator(pick)


def _simulation_inputs(args) -> tuple[np.ndarray, np.ndarray]:
    """Collapse eigenvalues and initial pure state shared by both simulate modes."""
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    a = _parse_eigenvalues(args.eigenvalues) if args.eigenvalues else _default_eigenvalues()
    return a, _initial_pure_state(args)


def _csv_sample_times(t: float, dt: float, samples: int):
    """``linspace(0, t, samples)``, or the step grid itself when that is no coarser.

    Sample times snap to the nearest of the ``round(t/dt) + 1`` grid steps, so
    once ``samples - 1 >= t/dt`` every step is a sample and a finer linspace
    would only repeat rows.  More than ``MAX_CSV_ROWS`` rows are refused
    before any of them is built.
    """
    if not (math.isfinite(t) and math.isfinite(dt) and dt > 0):
        return [t]  # no grid to sample; the engine names the bad value
    on_grid = samples - 1 >= t / dt
    rows = round(t / dt) + 1 if on_grid else samples
    if rows > MAX_CSV_ROWS:
        raise UsageError(f"--format csv would print {rows} rows, more than the {MAX_CSV_ROWS} allowed")
    return np.arange(rows) * dt if on_grid else np.linspace(0.0, t, samples)


def cmd_simulate_lindblad(args) -> int:
    a, psi0 = _simulation_inputs(args)
    rho0 = np.outer(psi0, psi0.conj())
    if args.t < 0:
        raise UsageError("--t must be non-negative")
    if args.format == "csv":
        sample_times = _csv_sample_times(args.t, args.dt, args.samples)
    else:
        sample_times = [args.t]
    times, states = qdyn.lindblad_path(rho0, None, a, args.lam, args.dt, sample_times)
    if args.format == "csv":
        text = _csv_text(_csv_row(t, rho) for t, rho in zip(times, states))
    else:
        rho = states[-1]
        text = _json_text(
            {
                "t": float(times[-1]),
                "dt": args.dt,
                "lambda": args.lam,
                "eigenvalues": a.tolist(),
                "populations": [float(rho[i, i].real) for i in range(4)],
                "coherences": qdyn.coherence_magnitudes(rho),
                "rho_real": rho.real.tolist(),
                "rho_imag": rho.imag.tolist(),
            }
        )
    _emit(text, args.output)
    return 0


def cmd_simulate_sde(args) -> int:
    a, psi0 = _simulation_inputs(args)
    if args.trajectories <= 0:
        raise UsageError("--trajectories must be positive")
    if args.t <= 0:
        raise UsageError("--t must be positive")
    csv = args.format == "csv"
    if csv and args.trajectories != 1:
        raise UsageError("--format csv needs --trajectories 1")
    records = qdyn.simulate_ensemble(
        psi0,
        None,
        a,
        args.lam,
        args.dt,
        args.t,
        n_trajectories=args.trajectories,
        seed=args.seed,
        sample_times=_csv_sample_times(args.t, args.dt, args.samples) if csv else [args.t],
        collapse_threshold=args.threshold,
    )
    if csv:
        record = records[0]
        rows = [
            _csv_row(t, np.outer(psi, psi.conj()))
            for t, psi in zip(record.times, record.states)
        ]
        _emit(_csv_text(rows), args.output)
        return 0
    counts = {label: 0 for label in model.STATE_LABELS}
    none_count = 0
    for rec in records:
        if rec.outcome is None:
            none_count += 1
        else:
            counts[model.DyadState.from_index(rec.outcome).label] += 1
    payload = {
        "trajectories": args.trajectories,
        "seed": args.seed,
        "t": args.t,
        "dt": args.dt,
        "lambda": args.lam,
        "eigenvalues": a.tolist(),
        "collapse_threshold": args.threshold,
        "outcomes": {**counts, "none": none_count},
        "frequencies": {k: v / args.trajectories for k, v in counts.items()},
    }
    if args.ensemble_average:
        # the engine's last sample time: --t snapped to the step grid
        rho = qdyn.ensemble_average(records, at=records[0].times[-1])
        payload["ensemble_average"] = {
            "rho_real": rho.real.tolist(),
            "rho_imag": rho.imag.tolist(),
        }
    _emit(_json_text(payload), args.output)
    return 0


def _parse_amplitudes(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read amplitudes {path!r}: {exc}")
    try:
        values = [complex(v[0], v[1]) if isinstance(v, list) else complex(v) for v in data]
        psi = np.array(values, dtype=complex)
    except (TypeError, ValueError, IndexError):
        raise UsageError(f"invalid amplitudes in {path!r}")
    if psi.shape != (4,):
        raise UsageError("amplitudes must list exactly 4 entries")
    for i, v in enumerate(psi):
        if not np.isfinite(v):
            raise UsageError(f"amplitude {i} is not finite: {v}")
    with np.errstate(over="ignore"):  # an overflowing norm is reported as inf below
        norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise UsageError(f"amplitudes are not normalized (norm {norm:.6f})")
    return psi / norm


_QPHI_STATES = {
    "plus0": lambda: qdyn.prepare_dyad_superposition(),
    "0plus": lambda: np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / math.sqrt(2.0),
}


def cmd_qphi(args) -> int:
    if args.amplitudes:
        psi = _parse_amplitudes(args.amplitudes)
        label = "custom"
    elif args.state in _QPHI_STATES:
        psi = _QPHI_STATES[args.state]()
        label = args.state
    else:
        psi = np.zeros(4, dtype=complex)
        psi[_parse_state(args.state).index] = 1.0
        label = args.state
    rho = np.outer(psi, psi.conj())
    report = qiit.quantum_big_phi(rho)
    payload = {"state": label, **report.to_json()}
    _emit(_json_text(payload), args.output)
    return 0


def _add_common_sim_args(parser) -> None:
    parser.add_argument("--eigenvalues", help="four comma-separated collapse eigenvalues")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0, help="global collapse rate")
    parser.add_argument("--dt", type=float, default=1e-3, help="integration step")
    parser.add_argument("--t", type=float, default=1.0, help="total evolution time")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--pair", nargs=2, metavar=("S1", "S2"),
                       help="start in an equal superposition of two basis states")
    group.add_argument("--initial", choices=("plus0", "uniform"), default="plus0",
                       help="named initial state (default: plus0)")
    parser.add_argument("--samples", type=int, default=51, help="rows in CSV time series")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadlab",
        description="Feedback-dyad toolkit: integrated information, Q-shape "
        "distances, collapse-operator optimization, and collapse dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="integrated-information report for one state")
    p.add_argument("--tpm", default="swap", help="swap, notswap, identity, or a JSON file")
    p.add_argument("--state", required=True, help="two bits, e.g. 10")
    p.add_argument("--output")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("qshape", help="Q-shape matrix of one state")
    p.add_argument("--tpm", default="swap")
    p.add_argument("--state", required=True)
    p.add_argument("--metric", choices=sorted(qshape.METRICS), default=qshape.DEFAULT_METRIC)
    p.add_argument("--output")
    p.set_defaults(func=cmd_qshape)

    p = sub.add_parser("distances", help="pairwise Q-shape distance table")
    p.add_argument("--tpm", default="swap")
    p.add_argument("--metric", choices=sorted(qshape.METRICS), default=qshape.DEFAULT_METRIC)
    p.add_argument("--points", action="store_true", help="include flattened 8-d part coordinates")
    p.add_argument("--output")
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("optimize", help="solve the eigenvalue-gap minimization")
    p.add_argument("--table", help="JSON 4x4 distance table (default: built-in swap table)")
    p.add_argument("--oracle", action="store_true", help="cross-check with the lattice search")
    p.add_argument("--granularity", type=float, default=1.0)
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--output")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="collapse dynamics")
    sim_sub = p.add_subparsers(dest="mode", required=True)

    q = sim_sub.add_parser("lindblad", help="deterministic ensemble evolution")
    _add_common_sim_args(q)
    q.set_defaults(func=cmd_simulate_lindblad)

    q = sim_sub.add_parser("sde", help="stochastic trajectories")
    _add_common_sim_args(q)
    q.add_argument("--trajectories", type=int, default=1)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--threshold", type=float, default=0.99,
                   help="population declaring a collapse outcome")
    q.add_argument("--ensemble-average", action="store_true",
                   help="include the mean projector at the final time")
    q.set_defaults(func=cmd_simulate_sde)

    p = sub.add_parser("qphi", help="quantum integrated information of a dyad state")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="00, 01, 10, 11, plus0, or 0plus")
    group.add_argument("--amplitudes", help="JSON file with 4 (complex) amplitudes")
    p.add_argument("--output")
    p.set_defaults(func=cmd_qphi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StepTooLarge as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except (DyadError, ValueError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
