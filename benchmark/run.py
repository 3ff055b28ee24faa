"""dyadlab benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a dyadlab checkout (no install needed; ``src/`` is put
on the path):

    python3 benchmark/run.py --workload sde_wide --seed 1 --seconds 20 --trace 0

One client issues one call at a time into the public functions of ``qdyn``,
``qshape``, ``optimizer``, ``phi``, ``qiit`` and ``cli`` and waits for it;
at most one child process runs at a time.  BLAS threads are capped at the
number of usable cores.  Every result is checked outside the timed region.

After an untimed warm-up pass at 1/100 size, a fixed number of identical
passes over the workload's calls run: ``--seconds`` divided by the pass's
nominal length (at least one).  The count does not depend on how fast the
program runs.  The reference machine is shared, and its cores switch between
speeds up to about 2x apart (see STEADINESS.md), so each call's latency is
taken as its median over the passes, which are spread across the run.

With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s`` (median
of fresh processes that import dyadlab and build the inputs; for cli_readme,
that import ``dyadlab.cli``), ``wall_s`` (one pass, the sum of those per-call
latencies), ``op_p50_ms`` and ``op_tail_ms`` (their median and the highest
percentile with at least ten beyond it) and ``peak_rss_mb`` (this process;
for cli_readme, the largest child).  ``fail_frac`` is printed on its own
line; the JSON carries it as ``failed`` out of ``attempted``.

With ``--trace 1`` untraced and traced passes alternate; the traced ones keep
spans around every call in memory, write them to
``.bench_out/trace-<workload>-<seed>.jsonl`` at the end, and give the
per-layer metrics, the tracing overhead and the share of each traced pass no
span covers.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
SETUP_RUNS = 3
# Nominal seconds of one pass per workload: its fixed schedule on the reference
# machine in a slow spell, so that the passes of a run fit in --seconds.  They
# set the number of passes, so that every version of the program takes each
# call's median over the same number of passes.
PASS_SECONDS = {"sde_wide": 3.5, "sde_long": 3.1, "calculus": 1.25, "cli_readme": 26.0}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Spans around each public call, with calls, busy seconds and errors per traced pass.
SPANS = (
    "qdyn.simulate_ensemble",
    "qdyn.derive_trajectory_seed",
    "qdyn.ensemble_average",
    "qdyn.sde_trajectory",
    "qdyn.lindblad_path",
    "qshape.build_qshape",
    "qshape.distance_table.tv",
    "qshape.distance_table.emd",
    "qshape.distance_table.kl",
    "optimizer.solve",
    "optimizer.grid_oracle",
    "phi.big_phi",
    "qiit.quantum_big_phi",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sde_wide", "sde_long", "calculus", "cli_readme"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink trajectory and step counts (smoke runs); at most 1")
    parser.add_argument("--probe", action="store_true",
                        help="only import dyadlab and build the inputs (set-up timing)")
    args = parser.parse_args(argv)
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cap_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > nproc:
            os.environ[var] = str(nproc)
    return nproc


def spawn_wait(cmd, root: Path) -> tuple[float, int]:
    """Run one child to completion; returns (wall seconds, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return time.perf_counter() - t0, code


def measure_setup(args, root: Path) -> list[float]:
    """Wall times of fresh processes that import dyadlab and build the workload's inputs."""
    if args.workload == "cli_readme":
        cmd = [sys.executable, "-c", "import dyadlab.cli"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--scale", str(args.scale)]
    times = []
    for _ in range(SETUP_RUNS):
        elapsed, code = spawn_wait(cmd, root)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}: {cmd}")
        times.append(elapsed)
    return times


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    """Timed passes of one run; a traced run alternates untraced and traced, so needs two."""
    return max(2 if traced else 1, round(seconds / PASS_SECONDS[workload]))


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest one with at least ten samples beyond it.

    Below 21 samples no percentile above the median has ten beyond it; the
    tail is then the slowest sample.
    """
    return n - 11 if n >= 21 else n - 1


def per_call_latency(passes: list[list[float]]) -> list[float]:
    """Each call's median latency over passes that make the same calls in the same order.

    The machine's slow spells last from milliseconds to a minute.  Against
    them, a call's median over passes spread across the run moved less
    between runs than the median pass or a call's fastest time or 10th
    percentile (STEADINESS.md).
    """
    return [statistics.median(times) for times in zip(*passes)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, n_traced: int, alloc_peak: int, cli_labels, overhead, uncovered) -> dict:
    """Per-layer metrics, each per traced pass; layers a workload leaves idle read 0."""
    per = 1.0 / n_traced
    counts = tracer.counts
    out = {}
    for name in SPANS:
        tot = tracer.totals(name)
        out[f"{name}.calls"] = (tot["calls"] * per, "count")
        out[f"{name}.busy_s"] = (tot["busy_s"] * per, "s")
        out[f"{name}.errors_expected"] = (tot["errors_expected"] * per, "count")
        out[f"{name}.errors_unexpected"] = (tot["errors_unexpected"] * per, "count")

    def busy(name, tag=None):
        return tracer.totals(name, tag)["busy_s"]

    steps = counts["qdyn.simulate_ensemble.traj_steps"]
    out["qdyn.simulate_ensemble.traj_steps"] = (steps * per, "count")
    out["qdyn.simulate_ensemble.ns_per_traj_step"] = (
        _ratio(busy("qdyn.simulate_ensemble") * 1e9, steps), "ns")
    out["qdyn.derive_trajectory_seed.us_per_call"] = (
        _ratio(busy("qdyn.derive_trajectory_seed") * 1e6, counts["qdyn.derive_trajectory_seed.seeds"]),
        "us")
    out["qdyn.ensemble_average.us_per_traj"] = (
        _ratio(busy("qdyn.ensemble_average") * 1e6, counts["qdyn.ensemble_average.trajectories"]),
        "us")
    out["qdyn.sde_trajectory.ns_per_step"] = (
        _ratio(busy("qdyn.sde_trajectory") * 1e9, counts["qdyn.sde_trajectory.steps"]), "ns")
    out["qdyn.sde.alloc_bytes_peak"] = (float(alloc_peak), "B")
    out["qdyn.sde.decided_ratio"] = (
        _ratio(counts["qdyn.sde.decided"], counts["qdyn.sde.trajectories"]), "ratio")
    sparse = busy("qdyn.lindblad_path", "sparse")
    dense = busy("qdyn.lindblad_path", "dense")
    guard = tracer.totals("qdyn.lindblad_path", "guard")
    out["qdyn.lindblad_path.us_per_step"] = (
        _ratio(sparse * 1e6, counts["qdyn.lindblad_path.sparse_steps"]), "us")
    out["qdyn.lindblad_path.us_per_sample"] = (
        _ratio((dense - sparse) * 1e6,
               counts["qdyn.lindblad_path.dense_samples"] - counts["qdyn.lindblad_path.sparse_samples"]),
        "us")
    out["qdyn.lindblad_path.guard_ms"] = (_ratio(guard["busy_s"] * 1e3, guard["calls"]), "ms")
    for name in ("qshape.build_qshape", "optimizer.solve", "phi.big_phi", "qiit.quantum_big_phi"):
        tot = tracer.totals(name)
        out[f"{name}.us_per_call"] = (_ratio(tot["busy_s"] * 1e6, tot["calls"]), "us")
    out["qshape.earth_mover.lp_solves"] = (counts["qshape.earth_mover.lp_solves"] * per, "count_computed")
    points = counts["optimizer.grid_oracle.points"]
    out["optimizer.grid_oracle.points"] = (points * per, "count_computed")
    out["optimizer.grid_oracle.ns_per_point"] = (_ratio(busy("optimizer.grid_oracle") * 1e9, points), "ns")

    startups = []
    cli_calls = 0
    for label in cli_labels:
        wall = tracer.totals(f"cli.{label}")
        inproc = tracer.totals(f"cli.{label}.inproc")
        wall_ms = _ratio(wall["busy_s"] * 1e3, wall["calls"])
        inproc_ms = _ratio(inproc["busy_s"] * 1e3, inproc["calls"])
        out[f"cli.{label}.wall_ms"] = (wall_ms, "ms")
        out[f"cli.{label}.inproc_ms"] = (inproc_ms, "ms")
        cli_calls += wall["calls"]
        if wall["calls"] and inproc["calls"]:
            startups.append(wall_ms - inproc_ms)
    out["cli.startup_ms"] = (statistics.median(startups) if startups else 0.0, "ms")
    out["cli.calls"] = (cli_calls * per, "count")
    out["cli.errors_expected"] = (counts["cli.errors_expected"] * per, "count")
    out["cli.errors_unexpected"] = (counts["cli.errors_unexpected"] * per, "count")
    out["trace.overhead_frac"] = (overhead, "ratio")
    out["trace.uncovered_frac"] = (uncovered, "ratio")
    out["trace.passes"] = (float(n_traced), "count")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dyadlab" / "__init__.py").is_file() or not (root / "docs" / "schemas").is_dir():
        print("error: run from the root of a dyadlab checkout "
              "(src/dyadlab and docs/schemas not found)", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    src = str(root / "src")
    sys.path.insert(0, src)
    os.environ.pop("DYADLAB_OUT_DIR", None)
    os.environ["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"]
                                      if os.environ.get("PYTHONPATH") else "")
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    if args.probe:
        import workloads

        workloads.build(args.workload, args.seed, root, out_dir, args.scale)
        return 0

    setup = [] if args.trace else measure_setup(args, root)

    import workloads
    from tracing import Recorder, Tracer

    cases = workloads.build(args.workload, args.seed, root, out_dir, args.scale)
    problems: list[str] = []
    fingerprints: dict[int, str] = {}

    def run_checked(case, recorder):
        elapsed, case_problems, fingerprint = workloads.run_case(case, recorder)
        problems.extend(case_problems)
        if fingerprint is not None and fingerprints.setdefault(id(case), fingerprint) != fingerprint:
            problems.append(f"{type(case).__name__}: output differs between passes")
        return elapsed

    warm = Recorder()
    for case in workloads.warmup_cases(args.workload, args.seed, cases, root, out_dir):
        run_checked(case, warm)
    if warm.failed:
        problems.append(f"warm-up: {warm.failed} of {warm.attempted} calls failed")
    tracer = Tracer() if args.trace else None
    n_passes = pass_count(args.workload, args.seconds, tracer is not None)
    rec = Recorder()
    pass_lat = {False: [], True: []}  # per pass, the latency of each call in order
    uncovered = []
    for pass_index in range(n_passes):
        traced = tracer is not None and pass_index % 2 == 1
        rec.tracer = tracer if traced else None
        if traced:
            tracer.pass_index = pass_index
        first_latency = len(rec.latencies)
        gc.collect()  # every pass starts from the same heap, so collections fall alike
        wall = sum(run_checked(case, rec) for case in cases)
        pass_lat[traced].append(rec.latencies[first_latency:])
        if traced:
            uncovered.append(1.0 - tracer.pass_busy(pass_index) / wall)

    correct = not problems and rec.failed == 0
    print(f"workload {args.workload}, seed {args.seed}: {n_passes} timed passes "
          f"({'alternately traced' if tracer else 'untraced'}), {len(cases)} cases, "
          f"{rec.attempted} calls, BLAS threads {nproc}")
    print(f"checks: {'all passed' if correct else f'{len(problems)} problems'}; "
          f"fail_frac {rec.failed / rec.attempted:.6f} ({rec.failed} of {rec.attempted} calls)")
    for line in problems[:20]:
        print(f"  problem: {line}", file=sys.stderr)

    metrics = {}
    if tracer is None:
        per_call = per_call_latency(pass_lat[False])
        lat = sorted(per_call)
        k = tail_index(len(lat))
        if args.workload == "cli_readme":
            rss_mb = max(c.maxrss_kb for c in cases) / 1024.0
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_call),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": lat[k] * 1e3,
            "peak_rss_mb": rss_mb,
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh processes",
            "wall_s": f"one pass of {len(lat)} calls, each its median of {n_passes} passes",
            "op_p50_ms": f"n={len(lat)} calls, each its median of {n_passes} passes",
            "op_tail_ms": f"p{100.0 * (k + 1) / len(lat):.1f} of those n={len(lat)}, "
                          f"{len(lat) - 1 - k} beyond it",
            "peak_rss_mb": "largest child process" if args.workload == "cli_readme" else "this process",
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<12} {values[name]:>14.6f} {unit:<3} {notes[name]}")
    else:
        overhead = (sum(per_call_latency(pass_lat[True]))
                    / sum(per_call_latency(pass_lat[False])) - 1.0)
        layer = layer_metrics(tracer, len(pass_lat[True]), workloads.sde_alloc_peak(cases),
                              workloads.CLI_LABELS, overhead, statistics.median(uncovered))
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(root)}; "
              f"tracing overhead {overhead:+.4f}, uncovered share {layer['trace.uncovered_frac'][0]:.4f}")
        for name, (value, unit) in layer.items():
            metrics[name] = {"value": value, "unit": unit}
            if value:
                print(f"  {name:<44} {value:>16.6f} {unit}")
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
