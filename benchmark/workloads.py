"""Workload generator, operations and output checks for the dyadlab benchmark.

Each workload is a list of cases.  A case makes one or more calls into a
public dyadlab function through a :class:`tracing.Recorder`, which times
each call as one operation, and then checks the results outside the timed
region against the independent references in :mod:`checks`.

The generator takes the workload seed and hands dyadlab only the generated
inputs.  The seed draws the content (initial states, eigenvalues, collapse
rates, step sizes, master seeds, tables, product states); the cost schedule
(trajectory counts, step counts, grid sizes, oracle tables) is fixed per
workload, so runs with different seeds time the same amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dyadlab import cli, errors, model, optimizer, phi, qdyn, qiit, qshape

import checks
from tracing import CaseAborted, Recorder

WORKLOADS = ("sde_wide", "sde_long", "calculus", "cli_readme")

SQRT_HALF = 1.0 / math.sqrt(2.0)
THRESHOLD = 0.99  # simulate_ensemble's default collapse_threshold
# Runs of each call of a few milliseconds or less (big_phi, quantum_big_phi,
# build_qshape, solve, distance_table under tv and kl), back to back, of which
# the fastest is the call's time in a pass.  The machine's speed changes
# within tens of milliseconds, and the median calculus call is a 50 us
# big_phi: one run per pass read fast or slow depending on where it fell.
SMALL_REPEAT = 5

# (trajectories, steps) of the ensembles in one sde_wide pass; H = None.
WIDE_SCHEDULE = ((20_000, 50), (10_000, 100), (10_000, 500))
# (kind, trajectories, steps, samples) of one sde_long pass; H = swap_hamiltonian().
# Steps are 10^4-2*10^4 rather than 10^5 (a single 10^5-step trajectory takes
# 3.5 s), so that a 20 s run repeats every call about six times.
LONG_SCHEDULE = (
    ("ensemble", 192, 20_000, 201),
    ("ensemble", 32, 20_000, 2001),
    ("trajectory", 1, 20_000, 2001),
    ("trajectory", 1, 10_000, 201),
)
# RK4 steps of the stable Lindblad settings in one calculus pass; each runs on
# a sparse grid [0, t] and on a dense grid sampling every other step.
LINDBLAD_STEPS = (1000, 500, 500, 250)
GUARD_STEPS = 20
# Upper triangles (01, 02, 03, 12, 13, 23) of the tables grid_oracle scans in
# one calculus pass, by granularity.  The oracle's cost grows with the number
# of feasible lattice points (about 75 us each), which varies tenfold between
# random tables; the tables at granularity 1 have feasible counts within 2% of
# each other (776-792; about 4300 for the one at 0.5), and the seed relabels the
# states of each, which keeps that count.  So every pass costs the same.
ORACLE_TABLES = {
    1.0: ((4.0, 3.0, 4.0, 1.0, 1.0, 4.0), (1.0, 1.0, 4.0, 4.0, 4.0, 3.0),
          (4.0, 2.0, 2.0, 2.0, 3.0, 4.0)),
    0.5: ((4.0, 1.0, 2.0, 4.0, 2.0, 4.0),),
}
TABLE_MAX = 4.0  # largest entry of the generated malformed tables
INVALID_TABLES = 4
PRODUCT_STATES = 12
ENTANGLED_STATES = 6


# --------------------------------------------------------------- state draws


def _pure_state(rng, kind: str) -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    if kind == "pair":
        i, k = rng.choice(4, size=2, replace=False)
        psi[i] = psi[k] = SQRT_HALF
    elif kind == "uniform":
        psi[:] = 0.5
    else:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
    return psi


def _qubit_state(rng, pure: bool) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    if not pure:
        w = rng.uniform(0.55, 0.95)
        rho = w * rho + (1.0 - w) * (np.eye(2) - rho)
    return 0.5 * (rho + rho.conj().T)


def _entangled_state(rng) -> np.ndarray:
    while True:
        psi = _pure_state(rng, "random")
        if 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2]) >= 0.2:  # concurrence
            return psi


def _sde_parameters(rng, dt_range):
    """Eigenvalues, rate and step with lam * (max gap)^2 * dt <= SDE_STEP_BOUND."""
    a = rng.uniform(0.0, 6.0, size=4)
    lam = float(rng.uniform(0.5, 2.0))
    dt = float(rng.uniform(*dt_range))
    gap = float(a.max() - a.min())
    dt = min(dt, checks.SDE_STEP_BOUND / (lam * gap * gap))
    return a, lam, dt


def _fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


# ------------------------------------------------------------------- qdyn SDE


class EnsembleCase:
    """simulate_ensemble, then one ensemble_average at the final time t, as the CLI calls them.

    With ``samples`` the trajectories are sampled on a dense grid from 0 to t;
    without, at t only, as the CLI asks.
    """

    def __init__(self, psi0, h, a, lam, dt, n_steps, n_traj, seed, samples=None):
        self.psi0, self.h, self.a, self.lam, self.dt = psi0, h, a, lam, dt
        self.n_steps, self.n_traj, self.seed = n_steps, n_traj, seed
        self.t = n_steps * dt
        self.sample_times = [self.t] if samples is None else np.linspace(0.0, self.t, samples)
        self.traj_steps = n_traj * n_steps

    def run(self, rec: Recorder):
        records = rec.call(
            "qdyn.simulate_ensemble",
            qdyn.simulate_ensemble,
            self.psi0, self.h, self.a, self.lam, self.dt, self.t,
            n_trajectories=self.n_traj, seed=self.seed, sample_times=self.sample_times,
        )
        rec.count("qdyn.simulate_ensemble.traj_steps", self.traj_steps)
        avg = rec.call("qdyn.ensemble_average", qdyn.ensemble_average, records, at=self.t)
        rec.count("qdyn.ensemble_average.trajectories", self.n_traj)
        if rec.tracing:
            decided = sum(r.outcome is not None for r in records)
            rec.count("qdyn.sde.decided", decided)
            rec.count("qdyn.sde.trajectories", self.n_traj)
            rec.probe("qdyn.derive_trajectory_seed", _derive_seeds, self.seed, self.n_traj)
            rec.count("qdyn.derive_trajectory_seed.seeds", self.n_traj)
        return records, avg

    def check(self, out):
        records, avg = out
        rho0 = np.outer(self.psi0, self.psi0.conj())
        problems = []
        if len(records) != self.n_traj:
            problems.append(f"{len(records)} records for {self.n_traj} trajectories")
        times = records[0].times
        if len(times) != len(self.sample_times) or times[-1] != self.t:
            problems.append("sample grid does not end at t with the requested samples")
        final = np.stack([r.states[-1] for r in records])
        norms = np.linalg.norm(final, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            problems.append("final trajectory states are not normalised")
        counts = [0, 0, 0, 0]
        n_none = 0
        pops = final.real**2 + final.imag**2
        for r, p in zip(records, pops):
            if r.outcome is None:
                n_none += 1
                if p.max() >= THRESHOLD:
                    problems.append("undecided trajectory holds a population above threshold")
                    break
            else:
                counts[r.outcome] += 1
                if p[r.outcome] < THRESHOLD:
                    problems.append("outcome declared below the collapse threshold")
                    break
        bias = checks.em_bias(self.h, self.a, self.lam, self.dt, self.t)
        ref = checks.lindblad_reference(rho0, self.h, self.a, self.lam, self.t)
        problems += checks.ensemble_average_problems(avg, final, ref, bias)
        problems += checks.outcome_count_problems(counts, n_none, np.diag(ref).real, THRESHOLD, bias)
        return problems, _fingerprint(tuple(counts), np.asarray(avg))


def _derive_seeds(master: int, n: int) -> list:
    return [qdyn.derive_trajectory_seed(master, i) for i in range(n)]


class TrajectoryCase:
    """One sde_trajectory on a dense sample grid."""

    def __init__(self, psi0, h, a, lam, dt, n_steps, seed, samples):
        self.psi0, self.h, self.a, self.lam, self.dt = psi0, h, a, lam, dt
        self.n_steps, self.seed = n_steps, seed
        self.t = n_steps * dt
        self.sample_times = np.linspace(0.0, self.t, samples)
        self.traj_steps = n_steps

    def run(self, rec: Recorder):
        record = rec.call(
            "qdyn.sde_trajectory",
            qdyn.sde_trajectory,
            self.psi0, self.h, self.a, self.lam, self.dt, self.t,
            seed=self.seed, sample_times=self.sample_times,
        )
        rec.count("qdyn.sde_trajectory.steps", self.n_steps)
        rec.count("qdyn.sde.decided", record.outcome is not None)
        rec.count("qdyn.sde.trajectories", 1)
        return record

    def check(self, record):
        problems = []
        if len(record.times) != len(self.sample_times) or record.times[-1] != self.t:
            problems.append("trajectory sample grid does not match the request")
        if np.max(np.abs(np.linalg.norm(record.states, axis=1) - 1.0)) > 1e-9:
            problems.append("trajectory states are not normalised")
        if np.max(np.abs(record.states[0] - self.psi0)) > 1e-12:
            problems.append("trajectory does not start at psi0")
        pops = np.abs(record.states[-1]) ** 2
        winner = int(np.argmax(pops))
        expected = winner if pops[winner] >= THRESHOLD else None
        if record.outcome != expected:
            problems.append(f"outcome {record.outcome} but final populations give {expected}")
        return problems, _fingerprint(record.states)


# --------------------------------------------------------------- qdyn Lindblad


class LindbladCase:
    """One stable setting with H = None, on a sparse and on a dense grid."""

    def __init__(self, psi0, a, lam, dt, n_steps):
        self.rho0 = np.outer(psi0, psi0.conj())
        self.a, self.lam, self.dt, self.n_steps = a, lam, dt, n_steps
        self.t = n_steps * dt
        self.sparse = [0.0, self.t]
        self.dense = np.linspace(0.0, self.t, n_steps // 2 + 1)

    def run(self, rec: Recorder):
        out = []
        for tag, grid in (("sparse", self.sparse), ("dense", self.dense)):
            out.append(
                rec.call(
                    "qdyn.lindblad_path", qdyn.lindblad_path,
                    self.rho0, None, self.a, self.lam, self.dt, grid, tag=tag,
                )
            )
            rec.count(f"qdyn.lindblad_path.{tag}_steps", self.n_steps)
            rec.count(f"qdyn.lindblad_path.{tag}_samples", len(grid))
        return out

    def check(self, out):
        problems = []
        for (times, states), n_samples in zip(out, (2, len(self.dense))):
            if len(states) != n_samples or len(times) != n_samples:
                problems.append(f"{len(states)} Lindblad samples for {n_samples} requested")
            problems += checks.lindblad_closed_form_problems(
                self.rho0, self.a, self.lam, self.dt, times, states
            )
        return problems, _fingerprint(*(np.asarray(s) for _, s in out))


class GuardCase:
    """An RK4 step outside the stability interval, which must raise StepTooLarge."""

    def __init__(self, a, lam, dt):
        self.rho0 = np.full((4, 4), 0.25, dtype=complex)
        self.a, self.lam, self.dt = a, lam, dt
        self.t = GUARD_STEPS * dt

    def run(self, rec: Recorder):
        return rec.call(
            "qdyn.lindblad_path", qdyn.lindblad_path,
            self.rho0, None, self.a, self.lam, self.dt, [0.0, self.t],
            expect=errors.StepTooLarge, tag="guard",
        )

    def check(self, exc):
        return [], type(exc).__name__


# ------------------------------------------------------------------ phi, qiit


def all_rules():
    """Every deterministic dyad rule whose outputs each read at most one input unit."""
    funcs = (
        lambda a, b: 0, lambda a, b: 1,
        lambda a, b: a, lambda a, b: 1 - a,
        lambda a, b: b, lambda a, b: 1 - b,
    )
    reads = (None, None, "A", "A", "B", "B")
    rules = []
    for (fa, ra), (fb, rb) in itertools.product(zip(funcs, reads), repeat=2):
        outputs = tuple(2 * fa(s >> 1, s & 1) + fb(s >> 1, s & 1) for s in range(4))
        rules.append((outputs, ra == "B" and rb == "A"))
    return rules


def _zero_marginal(outputs, state: int) -> bool:
    bits = ((state >> 1, 1), (state & 1, 0))  # (value, shift) of units A and B
    return any(all((o >> shift) & 1 != v for o in outputs) for v, shift in bits)


class PhiCase:
    """big_phi of one rule in all four states."""

    def __init__(self, outputs, cross_coupled):
        self.outputs, self.cross_coupled = outputs, cross_coupled
        self.tpm = model.Tpm2(outputs)

    def run(self, rec: Recorder):
        return [
            rec.call(
                "phi.big_phi", phi.big_phi, self.tpm, model.DyadState.from_index(s),
                expect=errors.ZeroMarginal if _zero_marginal(self.outputs, s) else None,
                repeat=SMALL_REPEAT,
            )
            for s in range(4)
        ]

    def check(self, reports):
        problems = []
        expected = 2.0 if self.cross_coupled else 0.0
        for s, rep in enumerate(reports):
            if isinstance(rep, Exception):
                continue
            ok = (
                abs(rep.big_phi - expected) <= 1e-12
                and rep.big_phi == rep.phi_a + rep.phi_b
                and rep.phi_a == min(rep.phi_c_a, rep.phi_e_a)
                and rep.phi_b == min(rep.phi_c_b, rep.phi_e_b)
                and bool(rep.flags) != self.cross_coupled
            )
            if not ok:
                problems.append(f"big_phi of rule {self.outputs} state {s}: {rep.big_phi}")
        return problems, repr([getattr(r, "big_phi", type(r).__name__) for r in reports])


class QphiCase:
    """quantum_big_phi of a product state, or of an entangled one that must be rejected."""

    def __init__(self, rho, expected_bits):
        self.rho, self.expected_bits = rho, expected_bits

    def run(self, rec: Recorder):
        expect = errors.UnsupportedState if self.expected_bits is None else None
        return rec.call("qiit.quantum_big_phi", qiit.quantum_big_phi, self.rho, expect=expect,
                        repeat=SMALL_REPEAT)

    def check(self, rep):
        if self.expected_bits is None:
            return [], type(rep).__name__
        problems = []
        if abs(rep.big_phi - self.expected_bits) > 1e-9 or rep.phi_ab != 0.0:
            problems.append(f"quantum big_phi {rep.big_phi} vs {self.expected_bits}")
        return problems, repr(rep.big_phi)


# --------------------------------------------------------------------- qshape


class QshapeCase:
    """build_qshape in every state and distance_table under tv, emd and kl for one rule."""

    def __init__(self, outputs, cross_coupled):
        self.outputs, self.cross_coupled = outputs, cross_coupled
        self.tpm = model.Tpm2(outputs)
        self.rows = [checks.qshape_rows(outputs, s) for s in range(4)]

    def run(self, rec: Recorder):
        nc = None if self.cross_coupled else errors.NotCrossCoupled
        shapes = [
            rec.call(
                "qshape.build_qshape", qshape.build_qshape, self.tpm,
                model.DyadState.from_index(s), expect=nc, repeat=SMALL_REPEAT,
            )
            for s in range(4)
        ]
        tables = {}
        for metric in ("tv", "emd", "kl"):
            expect = nc
            if metric == "kl" and self.cross_coupled and self._kl_undefined():
                expect = errors.KLUndefined
            tables[metric] = rec.call(
                f"qshape.distance_table.{metric}", qshape.distance_table, self.tpm,
                metric=metric, expect=expect, repeat=1 if metric == "emd" else SMALL_REPEAT,
            )
            if metric == "emd" and expect is None:
                rec.count("qshape.earth_mover.lp_solves", 6 * 4)
        return shapes, tables

    def _kl_undefined(self) -> bool:
        return any(
            checks.kl_undefined(self.rows[i], self.rows[j]) for i in range(4) for j in range(i + 1, 4)
        )

    def check(self, out):
        shapes, tables = out
        if not self.cross_coupled:
            return [], "not_cross_coupled"
        problems = []
        for s, shape in enumerate(shapes):
            if not np.array_equal(shape.rows, self.rows[s]):
                problems.append(f"Q-shape rows of rule {self.outputs} state {s}")
        tv = np.array(
            [[checks.tv_rows(self.rows[i], self.rows[j]) for j in range(4)] for i in range(4)]
        )
        if np.max(np.abs(tables["tv"] - tv)) > 1e-12:
            problems.append(f"tv table of rule {self.outputs}")
        if np.max(np.abs(tables["emd"] - tv)) > 1e-7:
            problems.append(f"emd table of rule {self.outputs} differs from tv")
        kl = tables["kl"]
        if not isinstance(kl, Exception) and not (
            np.all(np.isfinite(kl)) and np.all(kl >= -1e-12) and np.allclose(kl, kl.T)
        ):
            problems.append(f"kl table of rule {self.outputs}")
        return problems, _fingerprint(tables["tv"], tables["emd"], repr(kl))


# ------------------------------------------------------------------ optimizer


def _random_table(rng, step: float) -> np.ndarray:
    values = np.arange(step, TABLE_MAX + step / 2, step)
    upper = rng.choice(values, size=6)
    upper[rng.integers(6)] = TABLE_MAX
    table = np.zeros((4, 4))
    table[np.triu_indices(4, 1)] = upper
    return table + table.T


def _relabelled_table(rng, upper) -> np.ndarray:
    """The table with these upper-triangle entries, its states permuted at random."""
    table = np.zeros((4, 4))
    table[np.triu_indices(4, 1)] = upper
    table = table + table.T
    perm = rng.permutation(4)
    return table[np.ix_(perm, perm)]


def _corrupt(rng, table) -> np.ndarray:
    bad = table.copy()
    i, j = rng.choice(4, size=2, replace=False)
    kind = rng.integers(4)
    if kind == 0:
        bad[i, j] = bad[j, i] = -1.0
    elif kind == 1:
        bad[i, j] += 1.0
    elif kind == 2:
        bad[i, i] = 1.0
    else:
        bad[i, j] = bad[j, i] = math.inf
    return bad


class OptimizeCase:
    """solve on a table, cross-checked by grid_oracle at one granularity."""

    def __init__(self, table, granularity, swap_reference=False):
        self.table, self.granularity, self.swap_reference = table, granularity, swap_reference
        axis = len(np.arange(0.0, 3.0 * table.max() + granularity / 2, granularity))
        self.points = 4 * axis**3

    def run(self, rec: Recorder):
        result = rec.call("optimizer.solve", optimizer.solve, self.table, repeat=SMALL_REPEAT)
        oracle = rec.call(
            "optimizer.grid_oracle", optimizer.grid_oracle, self.table, granularity=self.granularity
        )
        rec.count("optimizer.grid_oracle.points", self.points)
        return result, oracle

    def check(self, out):
        result, oracle = out
        problems = []
        if result.minimizers != oracle.minimizers or result.optimal_sum != oracle.optimal_sum:
            problems.append(f"solve and grid_oracle disagree on {self.table.tolist()}")
        for m in result.minimizers:
            v = m.as_tuple()
            gaps_ok = all(
                abs(v[i] - v[j]) >= self.table[i, j] - 1e-9 for i in range(4) for j in range(i + 1, 4)
            )
            if not gaps_ok or min(v) < 0 or abs(sum(v) - result.optimal_sum) > 1e-9:
                problems.append(f"minimizer {v} infeasible or not of the optimal sum")
        if self.swap_reference and (len(result.minimizers) != 12 or result.optimal_sum != 12.0):
            problems.append(
                f"SWAP_TABLE gives {len(result.minimizers)} minimizers with sum {result.optimal_sum}"
            )
        return problems, repr(result.to_json())


class InvalidTableCase:
    """solve on a malformed table, which must raise ValueError.

    Gaps have no upper limit, so every well-formed table is feasible; the
    tables solve must refuse are the malformed ones.
    """

    def __init__(self, table):
        self.table = table

    def run(self, rec: Recorder):
        return rec.call("optimizer.solve", optimizer.solve, self.table, expect=ValueError,
                        repeat=SMALL_REPEAT)

    def check(self, exc):
        return [], type(exc).__name__


# ------------------------------------------------------------------------ cli


@dataclass
class ProcessResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_cli_process(argv, root: Path, out_dir: Path) -> ProcessResult:
    """Run ``python -m dyadlab.cli argv`` to completion; one child at a time."""
    out_path, err_path = out_dir / "cli.stdout", out_dir / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "dyadlab.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=root,
        )
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessResult(
        proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss
    )


def run_cli_inproc(argv) -> ProcessResult:
    """``dyadlab.cli.main(argv)`` in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return ProcessResult(code, out.getvalue().encode(), err.getvalue().encode(), 0)


def _load_schema(root: Path, name: str):
    with open(root / "docs" / "schemas" / f"{name}.schema.json") as fh:
        return json.load(fh)


class CliCase:
    """One README command (or error path) run as a process."""

    def __init__(self, label, argv, code, schema, judge, root, out_dir):
        self.label, self.argv, self.code, self.schema, self.judge = label, argv, code, schema, judge
        self.root, self.out_dir = root, out_dir
        self.maxrss_kb = 0

    def run(self, rec: Recorder):
        res = rec.call(f"cli.{self.label}", run_cli_process, self.argv, self.root, self.out_dir)
        self.maxrss_kb = max(self.maxrss_kb, res.maxrss_kb)
        if res.code != self.code:
            rec.count("cli.errors_unexpected")
        elif res.code != 0:
            rec.count("cli.errors_expected")
        inproc = None
        if rec.tracing:
            inproc = rec.probe(f"cli.{self.label}.inproc", run_cli_inproc, self.argv)
        return res, inproc

    def check(self, out):
        res, inproc = out
        problems = []
        if res.code != self.code:
            problems.append(f"cli {self.label}: exit {res.code}, expected {self.code}")
        if b"Traceback" in res.stderr:
            problems.append(f"cli {self.label}: traceback on stderr")
        if inproc is not None and (inproc.code, inproc.stdout) != (res.code, res.stdout):
            problems.append(f"cli {self.label}: in-process output differs from the process")
        if self.code != 0:
            if res.stdout or not res.stderr.startswith((b"error: ", b"numerical guard: ")):
                problems.append(f"cli {self.label}: error path output")
        elif not problems:
            text = res.stdout.decode()
            if self.schema is not None:
                import jsonschema  # here, so set-up probes of other workloads skip it

                data = json.loads(text)
                try:
                    jsonschema.validate(data, _load_schema(self.root, self.schema))
                except jsonschema.ValidationError as exc:
                    problems.append(f"cli {self.label}: schema {self.schema}: {exc.message}")
                    data = None
            else:
                data = text
            if data is not None:
                problems += [f"cli {self.label}: {p}" for p in self.judge(data)]
        return problems, hashlib.sha256(res.stdout).hexdigest() + str(res.code)


def _state_label(i: int) -> str:
    return f"{i >> 1}{i & 1}"


def _csv_series(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


CSV_HEADER = ["time", "p00", "p01", "p10", "p11", "coh_01", "coh_02", "coh_03", "coh_12", "coh_13", "coh_23"]
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _cli_cases(rng, seed: int, root: Path, out_dir: Path, scale: float):
    swap_rows = [checks.qshape_rows(model.swap().outputs, s) for s in range(4)]
    default_a = np.array([0.0, 2.0, 6.0, 4.0])  # first minimizer of SWAP_TABLE
    s_phi, s_id, s_q, s_kl = (int(x) for x in rng.integers(4, size=4))
    i, k = (int(x) for x in rng.choice(4, size=2, replace=False))
    a = rng.permutation([0.0, 2.0, 4.0, 6.0])
    a_text = ",".join(f"{v:g}" for v in a)
    pair_rho = np.zeros((4, 4), dtype=complex)
    pair_rho[np.ix_([i, k], [i, k])] = 0.5
    lind_t = max(1.0 * scale, 0.1)
    sde_n = max(int(10_000 * scale), 200)
    sde_seed, csv_seed = (int(x) for x in rng.integers(0, 2**31, size=2))
    qphi_label = str(rng.choice(["plus0", "0plus"]))
    v_a, v_b = _qubit_vector(rng), _qubit_vector(rng)
    amps = np.kron(v_a, v_b)
    amps_path = out_dir / f"amplitudes-{seed}.json"
    amps_path.write_text(json.dumps([[float(z.real), float(z.imag)] for z in amps]))

    def phi_judge(expected, state):
        def judge(d):
            bad = abs(d["big_phi"] - expected) > 1e-12 or d["state"] != [state >> 1, state & 1]
            bad = bad or bool(d["flags"]) != (expected == 0.0)
            return [f"big_phi {d['big_phi']} in state {state}"] if bad else []
        return judge

    def qshape_judge(state, metric):
        def judge(d):
            problems = []
            if not np.array_equal(np.array(d["rows"]), swap_rows[state]):
                problems.append("Q-shape rows")
            for other in range(4):
                if other == state:
                    continue
                got = d["distances_to_other_states"][_state_label(other)]
                if metric == "tv":
                    want = checks.tv_rows(swap_rows[state], swap_rows[other])
                elif checks.kl_undefined(swap_rows[state], swap_rows[other]):
                    want = None
                else:
                    want = got
                if (got is None) != (want is None) or (want is not None and abs(got - want) > 1e-12):
                    problems.append(f"distance to {_state_label(other)}: {got} vs {want}")
            return problems
        return judge

    def distances_judge(d):
        tv = [[checks.tv_rows(swap_rows[x], swap_rows[y]) for y in range(4)] for x in range(4)]
        return [] if np.max(np.abs(np.array(d["table"]) - tv)) <= 1e-12 else ["tv table"]

    def optimize_judge(oracle):
        def judge(d):
            problems = []
            if len(d["minimizers"]) != 12 or d["optimal_sum"] != 12.0:
                problems.append(f"{len(d['minimizers'])} minimizers, sum {d['optimal_sum']}")
            if oracle and not (d["oracle"]["agrees"] and d["oracle"]["minimizers"] == d["minimizers"]):
                problems.append("oracle disagrees")
            return problems
        return judge

    def lindblad_json_judge(d):
        rho = np.array(d["rho_real"]) + 1j * np.array(d["rho_imag"])
        cohs = [d["coherences"][f"{x}{y}"] for x, y in PAIRS]
        problems = checks.coherence_magnitude_problems(
            pair_rho, a, 1.0, 1e-4, d["t"], d["populations"], cohs, PAIRS)
        if np.max(np.abs(np.abs(rho) - np.abs(rho).T)) > 1e-12:
            problems.append("rho is not Hermitian")
        return problems

    def lindblad_csv_judge(text):
        header, rows = _csv_series(text)
        problems = [] if header == CSV_HEADER and len(rows) == 101 else ["csv shape"]
        uniform = np.full((4, 4), 0.25, dtype=complex)
        for row in rows:
            problems += checks.coherence_magnitude_problems(
                uniform, default_a, 1.0, 1e-3, row[0], row[1:5], row[5:], PAIRS)
        return problems

    def sde_judge(d):
        counts = [d["outcomes"][_state_label(x)] for x in range(4)]
        weights = np.diag(pair_rho).real
        bias = checks.em_bias(None, a, 1.0, 1e-3, 6.0)
        problems = checks.outcome_count_problems(counts, d["outcomes"]["none"], weights, 0.99, bias)
        if sum(counts) + d["outcomes"]["none"] != sde_n:
            problems.append("outcome counts do not add up to the trajectories")
        return problems

    def sde_csv_judge(text):
        header, rows = _csv_series(text)
        problems = [] if header == CSV_HEADER and len(rows) == 51 else ["csv shape"]
        if np.max(np.abs(rows[:, 1:5].sum(axis=1) - 1.0)) > 1e-9:
            problems.append("populations do not sum to 1")
        return problems

    def qphi_judge(expected):
        def judge(d):
            return [] if abs(d["big_phi"] - expected) <= 1e-9 else [f"big_phi {d['big_phi']}"]
        return judge

    specs = [
        ("phi", ["phi", "--state", _state_label(s_phi)], 0, "phi", phi_judge(2.0, s_phi)),
        ("phi_identity", ["phi", "--tpm", "identity", "--state", _state_label(s_id)], 0, "phi",
         phi_judge(0.0, s_id)),
        ("qshape", ["qshape", "--state", _state_label(s_q)], 0, "qshape", qshape_judge(s_q, "tv")),
        ("qshape_kl", ["qshape", "--state", _state_label(s_kl), "--metric", "kl"], 0, "qshape",
         qshape_judge(s_kl, "kl")),
        ("distances", ["distances"], 0, "distances", distances_judge),
        ("optimize", ["optimize"], 0, "optimize", optimize_judge(False)),
        ("optimize_oracle", ["optimize", "--oracle"], 0, "optimize", optimize_judge(True)),
        ("lindblad_json", ["simulate", "lindblad", "--pair", _state_label(i), _state_label(k),
                           "--eigenvalues", a_text, "--t", f"{lind_t:g}", "--dt", "1e-4"],
         0, "simulate_lindblad", lindblad_json_judge),
        ("lindblad_csv", ["simulate", "lindblad", "--initial", "uniform", "--t", f"{lind_t:g}",
                          "--format", "csv", "--samples", "101"], 0, None, lindblad_csv_judge),
        ("sde_ensemble", ["simulate", "sde", "--trajectories", str(sde_n), "--seed", str(sde_seed),
                          "--t", "6", "--dt", "1e-3", "--pair", _state_label(i), _state_label(k),
                          "--eigenvalues", a_text], 0, "simulate_sde", sde_judge),
        ("sde_csv", ["simulate", "sde", "--trajectories", "1", "--seed", str(csv_seed),
                     "--format", "csv", "--t", "2", "--dt", "1e-3"], 0, None, sde_csv_judge),
        ("qphi_state", ["qphi", "--state", qphi_label], 0, "qphi", qphi_judge(2.0)),
        ("qphi_amplitudes", ["qphi", "--amplitudes", str(amps_path.relative_to(root))], 0, "qphi",
         qphi_judge(2.0)),
        ("err_unstable_dt", ["simulate", "lindblad", "--dt", "0.5"], 3, None, None),
        ("err_bad_state", ["phi", "--state", "2"], 2, None, None),
    ]
    return [CliCase(label, argv, code, schema, judge, root, out_dir)
            for label, argv, code, schema, judge in specs]


CLI_LABELS = (
    "phi", "phi_identity", "qshape", "qshape_kl", "distances", "optimize", "optimize_oracle",
    "lindblad_json", "lindblad_csv", "sde_ensemble", "sde_csv", "qphi_state", "qphi_amplitudes",
    "err_unstable_dt", "err_bad_state",
)


def _qubit_vector(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


# ------------------------------------------------------------------ generator


def build(workload: str, seed: int, root: Path, out_dir: Path, scale: float = 1.0) -> list:
    """The cases of one pass of ``workload``, drawn from ``seed``.

    ``scale`` shrinks trajectory and step counts (below 1 only, for smoke runs
    and the warm-up pass); the kinds and numbers of cases stay the same.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cli_readme":
        return _cli_cases(rng, seed, root, out_dir, scale)
    cases = []

    def shrink(n, floor):
        return max(int(n * scale), floor)

    if workload == "sde_wide":
        for n_traj, steps in WIDE_SCHEDULE:
            psi0 = _pure_state(rng, str(rng.choice(["pair", "uniform", "random"])))
            a, lam, dt = _sde_parameters(rng, (5e-4, 2e-3))
            master = int(rng.integers(0, 2**31))
            cases.append(
                EnsembleCase(psi0, None, a, lam, dt, shrink(steps, 10), shrink(n_traj, 50), master)
            )
    elif workload == "sde_long":
        h = qdyn.swap_hamiltonian()
        for kind, n_traj, steps, samples in LONG_SCHEDULE:
            psi0 = _pure_state(rng, str(rng.choice(["pair", "uniform", "random"])))
            a, lam, dt = _sde_parameters(rng, (5e-5, 2e-4))
            master = int(rng.integers(0, 2**31))
            n_steps = shrink(steps, 100)
            n_samples = min(samples, n_steps + 1)
            if kind == "ensemble":
                cases.append(
                    EnsembleCase(psi0, h, a, lam, dt, n_steps, shrink(n_traj, 8), master, n_samples)
                )
            else:
                cases.append(TrajectoryCase(psi0, h, a, lam, dt, n_steps, master, n_samples))
    elif workload == "calculus":
        for steps in LINDBLAD_STEPS:
            psi0 = _pure_state(rng, str(rng.choice(["pair", "uniform", "random"])))
            a = rng.uniform(0.0, 6.0, size=4)
            lam = float(rng.uniform(0.5, 2.0))
            rate = 0.5 * lam * float(a.max() - a.min()) ** 2
            dt = float(rng.uniform(0.05, checks.STABLE_Z)) / rate
            cases.append(LindbladCase(psi0, a, lam, dt, shrink(steps, 20)))
        for _ in range(2):
            a = rng.uniform(0.0, 6.0, size=4)
            a[rng.choice(4, size=2, replace=False)] = (0.0, 6.0)
            lam = float(rng.uniform(0.5, 2.0))
            dt = float(rng.uniform(checks.UNSTABLE_Z, 2.0 * checks.UNSTABLE_Z)) / (18.0 * lam)
            cases.append(GuardCase(a, lam, dt))
        rules = all_rules()
        for idx in rng.permutation(len(rules)):
            cases.append(PhiCase(*rules[idx]))
        coupled = [r for r in rules if r[1]]
        uncoupled = [r for r in rules if not r[1]]
        for outputs, cc in coupled + [uncoupled[j] for j in rng.choice(len(uncoupled), 2, replace=False)]:
            cases.append(QshapeCase(outputs, cc))
        cases.append(OptimizeCase(optimizer.SWAP_TABLE.copy(), 1.0, swap_reference=True))
        for granularity, tables in ORACLE_TABLES.items():
            for upper in tables:
                cases.append(OptimizeCase(_relabelled_table(rng, upper), granularity))
        for _ in range(INVALID_TABLES):
            cases.append(InvalidTableCase(_corrupt(rng, _random_table(rng, 1.0))))
        for j in range(PRODUCT_STATES):
            rho_a, rho_b = _qubit_state(rng, j % 2 == 0), _qubit_state(rng, j % 3 == 0)
            expected = checks.unit_qid_bits(rho_a) + checks.unit_qid_bits(rho_b)
            cases.append(QphiCase(np.kron(rho_a, rho_b), expected))
        for _ in range(ENTANGLED_STATES):
            psi = _entangled_state(rng)
            cases.append(QphiCase(np.outer(psi, psi.conj()), None))
        order = rng.permutation(len(cases))
        cases = [cases[j] for j in order]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases


def warmup_cases(workload: str, seed: int, cases: list, root: Path, out_dir: Path) -> list:
    """Untimed cases that load every code path the timed passes use.

    For cli_readme that is the first timed case itself, one process start,
    so its output is also compared with the timed pass.
    """
    if workload == "cli_readme":
        return cases[:1]
    return build(workload, seed + 1, root, out_dir, scale=0.01)


def sde_alloc_peak(cases) -> int:
    """Peak bytes allocated while the SDE case with the most trajectory-steps runs; 0 if none.

    Measured with tracemalloc, which sees numpy's array buffers and slows
    the calls about 3.5x, so it runs once, apart from every timed pass.
    """
    sde = [c for c in cases if isinstance(c, (EnsembleCase, TrajectoryCase))]
    if not sde:
        return 0
    tracemalloc.start()
    try:
        max(sde, key=lambda c: c.traj_steps).run(Recorder())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_case(case, rec: Recorder):
    """Run one case: (seconds spent, problems, fingerprint); checks are untimed."""
    t0 = time.perf_counter()
    attempted, failed = rec.attempted, rec.failed
    try:
        out = case.run(rec)
    except CaseAborted:
        return time.perf_counter() - t0, [rec.problems[-1]], None
    elapsed = time.perf_counter() - t0
    problems, fingerprint = case.check(out)
    if problems and rec.failed == failed:
        rec.failed += rec.attempted - attempted
    return elapsed, problems, fingerprint
