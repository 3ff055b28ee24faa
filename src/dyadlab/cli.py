"""Command-line surface: reproducible, scriptable runs of every computation.

Subcommands: ``phi``, ``qshape``, ``distances``, ``optimize``, ``simulate``
(with ``lindblad`` and ``sde`` modes), and ``qphi``.  All output is JSON or
CSV with a fixed field order, and all randomness flows from ``--seed``
(default 0), so identical invocations produce byte-identical files.

Exit codes: 0 on success, 2 for invalid arguments or inputs, 3 when a
numerical guard trips (for example an unstable ``simulate lindblad`` step).
A JSON input file (``--tpm``, ``--table``, ``--amplitudes``) that cannot be
read or parsed, and an ``--output`` path that cannot be written, are invalid
arguments.

Each handler returns its output text, and :func:`main` writes it to stdout or
to ``--output``.  If the environment variable ``DYADLAB_OUT_DIR`` is set,
relative ``--output`` paths are resolved inside that directory.

Each handler imports the modules it uses, so ``phi``, ``qshape``,
``distances``, ``optimize`` without ``--oracle``, ``qphi`` and the argument
errors of argparse and ``simulate`` run without importing numpy: ``simulate``
refuses its arguments through the library's rules in :mod:`dyadlab.model`
first.  Only ``optimize`` imports the optimizer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import model, phi, qshape
from .errors import DyadError, KLUndefined, StepTooLarge

if TYPE_CHECKING:  # numpy is imported by the handlers that run linear algebra
    import numpy as np

ENV_OUT_DIR = "DYADLAB_OUT_DIR"
# Largest CSV time series: 10^5 Lindblad rows already take about 150 MB and 7 s.
MAX_CSV_ROWS = 10**5
# Most members of one `simulate sde` run: the run holds a record of about
# 0.4 KB per trajectory until it prints, so 10^6 take about 0.4 GB.
MAX_TRAJECTORIES = 10**6

CSV_COLUMNS = (
    "time",
    *(f"p{label}" for label in model.STATE_LABELS),
    *(f"coh_{i}{k}" for i, k in model.COHERENCE_PAIRS),
)


class UsageError(ValueError):
    """Bad command-line input; reported on stderr with exit code 2."""


def _parse_state(text: str) -> model.DyadState:
    if text in model.STATE_LABELS:
        return model.DyadState(int(text[0]), int(text[1]))
    raise UsageError(f"invalid state {text!r}; expected one of {', '.join(model.STATE_LABELS)}")


def _read_json(path: str, what: str, parse):
    """``parse`` applied to the JSON value in the file at ``path``; ``what``
    names the input in the UsageError that any failure to read it becomes."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path!r}: {exc}")
    # malformed, non-UTF-8 or too deeply nested JSON, or a value ``parse`` refuses
    except (ValueError, TypeError, IndexError, OverflowError, RecursionError) as exc:
        raise UsageError(f"invalid {what} in {path!r}: {exc}")


def _parse_tpm(text: str) -> model.Tpm2:
    if text in model.NAMED_TPMS:
        return model.NAMED_TPMS[text]()
    name = os.path.basename(text)
    return _read_json(text, "transition rule", lambda data: model.Tpm2.from_json(data, name=name))


def _parse_eigenvalues(text: str) -> tuple[float, ...]:
    try:
        return model.collapse_eigenvalues([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise UsageError(f"invalid eigenvalues {text!r}: {exc}")


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to stdout, or to ``output``, which a set ``DYADLAB_OUT_DIR``
    prefixes when it is relative."""
    if output is None:
        sys.stdout.write(text)
        return
    path = os.path.join(os.environ.get(ENV_OUT_DIR) or "", output)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output {path!r}: {exc}")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _csv_row(time: float, rho: np.ndarray) -> list:
    from . import qdyn

    pops = [float(rho[i, i].real) for i in range(4)]
    cohs = qdyn.coherence_magnitudes(rho)
    return [float(time), *pops, *(cohs[f"{i}{k}"] for i, k in model.COHERENCE_PAIRS)]


def cmd_phi(args) -> str:
    tpm = _parse_tpm(args.tpm)
    state = _parse_state(args.state)
    report = phi.big_phi(tpm, state)
    return _json_text({"tpm": tpm.to_json(), "state": state.to_json(), **report.to_json()})


def _part_points(shape: qshape.QShape) -> dict:
    """Each part's flattened 8-d point, keyed by unit."""
    return {unit: list(shape.part_point(unit)) for unit in model.UNITS}


def cmd_qshape(args) -> str:
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
    return _json_text(payload)


def cmd_distances(args) -> str:
    tpm = _parse_tpm(args.tpm)
    try:
        table = qshape.distance_rows(tpm, metric=args.metric)
    except KLUndefined as exc:
        raise UsageError(f"metric {args.metric!r} is undefined on these Q-shapes: {exc}")
    payload = {
        "metric": args.metric,
        "metric_is_default": args.metric == qshape.DEFAULT_METRIC,
        "states": list(model.STATE_LABELS),
        "table": table,
    }
    if args.points:
        payload["points"] = {
            s.label: _part_points(qshape.build_qshape(tpm, s)) for s in model.ALL_STATES
        }
    return _json_text(payload)


def _load_table(path: str | None) -> tuple:
    from . import optimizer

    if path is None:
        return optimizer.SWAP_ROWS
    return _read_json(path, "distance table", optimizer.validate_table)


def cmd_optimize(args) -> str:
    from . import optimizer

    table = _load_table(args.table)
    result = optimizer.solve(table)
    payload = {"table": [list(row) for row in table], **result.to_json()}
    if args.oracle:
        oracle = optimizer.grid_oracle(table, granularity=args.granularity, bound=args.bound)
        payload["oracle"] = {
            "granularity": args.granularity,
            "bound": args.bound if args.bound is not None else 3.0 * max(map(max, table)),
            "minimizers": [m.to_json() for m in oracle.minimizers],
            "optimal_sum": oracle.optimal_sum,
            "agrees": oracle.minimizers == result.minimizers,
        }
    return _json_text(payload)


def _simulation_inputs(args) -> tuple[tuple, tuple, int, int | None]:
    """Collapse eigenvalues, initial amplitudes, step count and CSV rows (None
    for JSON) shared by both simulate modes, refused by the library's rules.

    CSV rows are the smaller of ``--samples`` and the ``n_steps + 1`` grid
    steps: sample times snap to the nearest step, so more rows would only
    repeat rows.  More than ``MAX_CSV_ROWS`` are refused before any is built.
    """
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    a = _parse_eigenvalues(args.eigenvalues)
    if args.pair is None:
        amplitudes = model.NAMED_STATES[args.initial or "plus0"]
    else:
        amplitudes = model.pair_state(*(_parse_state(p).index for p in args.pair))
    model.check_rate(args.lam)
    n_steps = model.step_count(args.t, args.dt)
    rows = min(args.samples, n_steps + 1) if args.format == "csv" else None
    if rows is not None and rows > MAX_CSV_ROWS:
        raise UsageError(f"--format csv would print {rows} rows, more than the {MAX_CSV_ROWS} allowed")
    return a, amplitudes, n_steps, rows


def cmd_simulate_lindblad(args) -> str:
    a, amplitudes, _, rows = _simulation_inputs(args)
    import numpy as np

    from . import qdyn

    rho0 = np.outer(amplitudes, amplitudes)  # the named states' amplitudes are real
    sample_times = [args.t] if rows is None else np.linspace(0.0, args.t, rows)
    times, states = qdyn.lindblad_path(rho0, None, a, args.lam, args.dt, sample_times)
    if rows is not None:
        return _csv_text(_csv_row(t, rho) for t, rho in zip(times, states))
    rho = states[-1]
    return _json_text(
        {
            "t": float(times[-1]),
            "dt": args.dt,
            "lambda": args.lam,
            "eigenvalues": list(a),
            "populations": [float(rho[i, i].real) for i in range(4)],
            "coherences": qdyn.coherence_magnitudes(rho),
            "rho_real": rho.real.tolist(),
            "rho_imag": rho.imag.tolist(),
        }
    )


def cmd_simulate_sde(args) -> str:
    a, amplitudes, n_steps, rows = _simulation_inputs(args)
    if not 0 < args.trajectories <= MAX_TRAJECTORIES:
        raise UsageError(f"--trajectories must lie in [1, {MAX_TRAJECTORIES}]")
    if n_steps == 0:
        raise UsageError(
            f"--t {args.t!r} rounds to zero steps of --dt {args.dt!r}; a run takes at least one"
        )
    if rows is not None and args.trajectories != 1:
        raise UsageError("--format csv needs --trajectories 1")
    model.check_collapse_threshold(args.threshold)
    model.step_count(args.t, args.dt, model.MAX_SDE_STEPS)
    model.derive_trajectory_seed(args.seed, args.trajectories - 1)
    import numpy as np

    from . import qdyn

    records = qdyn.simulate_ensemble(
        amplitudes,
        None,
        a,
        args.lam,
        args.dt,
        args.t,
        n_trajectories=args.trajectories,
        seed=args.seed,
        sample_times=[args.t] if rows is None else np.linspace(0.0, args.t, rows),
        collapse_threshold=args.threshold,
    )
    if rows is not None:
        record = records[0]
        return _csv_text(
            _csv_row(t, np.outer(psi, psi.conj())) for t, psi in zip(record.times, record.states)
        )
    t_end = records[0].times[-1]  # --t snapped to the step grid, as the engine ran
    counts = {label: 0 for label in model.STATE_LABELS}
    none_count = 0
    for rec in records:
        if rec.outcome is None:
            none_count += 1
        else:
            counts[model.STATE_LABELS[rec.outcome]] += 1
    payload = {
        "trajectories": args.trajectories,
        "seed": args.seed,
        "t": float(t_end),
        "dt": args.dt,
        "lambda": args.lam,
        "eigenvalues": list(a),
        "collapse_threshold": args.threshold,
        "outcomes": {**counts, "none": none_count},
        "frequencies": {k: v / args.trajectories for k, v in counts.items()},
    }
    if args.ensemble_average:
        rho = qdyn.ensemble_average(records, at=t_end)
        payload["ensemble_average"] = {
            "rho_real": rho.real.tolist(),
            "rho_imag": rho.imag.tolist(),
        }
    return _json_text(payload)


def _amplitude_values(data) -> list[complex]:
    """The entries of an --amplitudes file: JSON numbers or [re, im] pairs of them."""
    if not isinstance(data, list):
        raise ValueError("amplitudes must be a JSON list")
    values = []
    for i, v in enumerate(data):
        parts = v if isinstance(v, list) and len(v) == 2 else [v]
        if not all(map(model.is_number, parts)):
            raise ValueError(f"amplitude {i} is not a number or an [re, im] pair of numbers: {v!r}")
        values.append(complex(*parts))
    return values


def _parse_amplitudes(path: str) -> list[complex]:
    # a file's amplitudes are normalised, so they may miss norm 1 by more than the library allows
    values, norm = model.pure_state(_read_json(path, "amplitudes", _amplitude_values), 1e-8)
    # numpy divides a complex array by a real scalar through its reciprocal
    scale = 1.0 / norm
    return [complex(v.real * scale, v.imag * scale) for v in values]


def cmd_qphi(args) -> str:
    from . import qiit

    if args.amplitudes:
        psi, label = _parse_amplitudes(args.amplitudes), "custom"
    else:
        psi, label = model.NAMED_STATES[args.state], args.state
    rho = [[p * q.conjugate() for q in psi] for p in psi]
    report = qiit.quantum_big_phi(rho)
    return _json_text({"state": label, **report.to_json()})


def _add_common_sim_args(parser, dt_help: str) -> None:
    # the first minimizer of optimizer.SWAP_TABLE in lexicographic order
    parser.add_argument("--eigenvalues", default="0,2,6,4",
                        help="four comma-separated collapse eigenvalues")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0, help="global collapse rate")
    parser.add_argument("--dt", type=float, default=1e-3, help=dt_help)
    parser.add_argument("--t", type=float, default=1.0, help="total evolution time")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--pair", nargs=2, metavar=("S1", "S2"),
                       help="start in an equal superposition of two basis states")
    # no default: argparse lets a flag equal to its default through a mutually exclusive group
    group.add_argument("--initial", choices=model.NAMED_STATES,
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
    _add_common_sim_args(q, "RK4 integration step")
    q.set_defaults(func=cmd_simulate_lindblad)

    q = sim_sub.add_parser("sde", help="stochastic trajectories")
    _add_common_sim_args(
        q, "step of the sample grid: --t and the CSV sample times snap to it "
        "(trajectories are sampled exactly, with no integration step)"
    )
    q.add_argument("--trajectories", type=int, default=1)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--threshold", type=float, default=0.99,
                   help="population declaring a collapse outcome")
    q.add_argument("--ensemble-average", action="store_true",
                   help="include the mean projector at the final time")
    q.set_defaults(func=cmd_simulate_sde)

    p = sub.add_parser("qphi", help="quantum integrated information of a dyad state")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", choices=model.NAMED_STATES, help="named state")
    group.add_argument("--amplitudes", help="JSON file with 4 (complex) amplitudes")
    p.add_argument("--output")
    p.set_defaults(func=cmd_qphi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.func(args), args.output)
        return 0
    except StepTooLarge as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except (DyadError, ValueError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
