"""Closed-loop benchmark of dpsynth: one client issues ops one after another.

    python3 perfbench/run.py --workload fit-d2 --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``. A run
sets up its inputs several times, then repeats the workload's fixed op list
(a pass) while another pass still fits in ``--seconds``, checking every op's
output. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics. The last line of standard output is one JSON object;
``perfbench/results/`` gets the full record of the run, spans included. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# One client in one process; one BLAS/OpenMP thread keeps timings steady on a
# small shared machine and is at or below nproc anywhere.
THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
# A virtual CPU runs its first second of work after idling up to a third
# slower; a busy loop this long before anything is timed absorbs that.
SPIN_S = 1.0
# Median time of the reference kernel (HostClock.reference) on the machine
# the benchmark was tuned on: a 2-vCPU Xeon VM, Python 3.11, numpy 2.4.
REF_NOMINAL_S = 0.034

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s", "ok_frac": "fraction",
    "peak_rss_mb": "MB", "fit_objective_mean": "stat", "synth_error_mean": "stat",
}
# Per-layer times in the JSON line: only layers that every workload runs, so
# that none reads a structural zero. The printed span table has every layer.
LAYER_TIMES = [
    ("optimize.solve_min_max", "busy_s"), ("optimize.build_lp", "busy_s"),
    ("core.evaluate_all", "busy_s"), ("distributions.sample", "busy_s"),
    ("mechanism.laplace_vector", "busy_s"), ("synth.bootstrap", "busy_s"),
    ("synth.generate", "self_s"),
]
LAYER_COUNTS = {
    "optimize.pivots": "count", "optimize.support_points": "count",
    "core.evaluate_all.cells": "count", "core.from_text.bytes": "B",
    "core.to_text.bytes": "B", "distributions.sample.draws": "count",
    "mechanism.laplace_vector.draws": "count", "synth.bootstrap.records": "count",
    "audit.boolean_experiment.trials": "count",
    "audit.deviation_check_empirical.trials": "count",
    "audit.reweighted_deviation_check.trials": "count",
    "audit.privacy_audit.trials": "count",
}


class HostClock:
    """Wall time, and wall time adjusted to the host's current speed.

    Other tenants of a shared host slow its CPUs by up to a third for
    stretches of seconds to minutes. The clock times a fixed reference kernel
    (interpreter work plus memory streaming, like the ops themselves) just
    before and just after the timed work, and scales the work's wall time by
    REF_NOMINAL_S over the kernel's mean time.
    """

    def __init__(self, np):
        self._np = np
        self._buf = np.zeros((276, 4000))
        self._col = np.zeros(276)
        self._row = np.zeros(4000)

    def reference(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        for _ in range(20):
            self._np.subtract(self._buf, self._np.outer(self._col, self._row), out=self._buf)
        return time.perf_counter() - t0

    def measure(self, fn):
        """Run fn; return (result or the exception, wall s, adjusted s)."""
        before = self.reference()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller counts the op as failed
            result = exc
        wall = time.perf_counter() - t0
        after = self.reference()
        return result, wall, wall * REF_NOMINAL_S / ((before + after) / 2)


@dataclass(frozen=True)
class OpRecord:
    n_pass: int
    position: int  # index in the workload's op list
    traced: bool
    wall: float
    seconds: float  # wall time adjusted to the host's speed
    outcome: object  # workloads.Outcome, or None when the op failed to run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, seed, workdir) -> None:
    """One set-up: a fresh interpreter imports numpy and dpsynth, then the
    workload builds its inputs in this process."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, dpsynth"
    subprocess.run([sys.executable, "-c", code], check=True)
    workload.setup(seed, workdir)


def environment(numpy_version):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def run_passes(workload, seconds, trace, tracer, clock):
    """Repeat the op list; with tracing, odd passes are traced.

    Returns one record per op and, for each traced pass, its counters.
    """
    ops = workload.ops()
    records, pass_counts = [], []
    start = time.perf_counter()
    n_pass = 0
    while True:
        traced = trace and n_pass % 2 == 1
        before = dict(tracer.counts)
        for position, op in enumerate(ops):
            run = (lambda: tracer.op(workload.name, op)) if traced else op
            raw, wall, adjusted = clock.measure(run)
            try:
                if isinstance(raw, Exception):
                    raise raw
                outcome = workload.check(raw)
            except Exception:  # an op that raises or cannot be checked fails
                traceback.print_exc()
                outcome = None
            records.append(OpRecord(n_pass, position, traced, wall, adjusted, outcome))
        if traced:
            pass_counts.append({
                k: v - before.get(k, 0) for k, v in tracer.counts.items()
                if v != before.get(k, 0)
            })
        n_pass += 1
        used = time.perf_counter() - start
        if used + used / n_pass > seconds and (not trace or n_pass >= 2):
            return records, pass_counts


def op_times(records, field="seconds") -> list[float]:
    """Each op's median time over the passes of the run, one per op in the list."""
    by_position: dict[int, list[float]] = {}
    for r in records:
        by_position.setdefault(r.position, []).append(getattr(r, field))
    return [statistics.median(times) for times in by_position.values()]


def problems_of(records):
    """Failed ops, and outputs that differ from the same op's first pass."""
    problems, failed = [], 0
    first_digest = {}
    for r in records:
        where = f"pass {r.n_pass} op {r.position}"
        if r.outcome is None:
            failed += 1
            problems.append(f"{where}: raised")
            continue
        if r.outcome.problems:
            failed += 1
            problems.extend(f"{where}: {p}" for p in r.outcome.problems)
        if first_digest.setdefault(r.position, r.outcome.digest) != r.outcome.digest:
            problems.append(f"{where}: output differs from pass 0")
    return failed, problems


def end_to_end(records, failed, setup_s):
    times = op_times(records)
    outcomes = [r.outcome for r in records if r.outcome is not None]
    objectives = [x for o in outcomes for x in o.objectives]
    errors = [x for o in outcomes for x in o.errors]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "ok_frac": 1 - failed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fit_objective_mean": statistics.fmean(objectives) if objectives else math.nan,
        "synth_error_mean": statistics.fmean(errors) if errors else math.nan,
    }


def tail(times):
    """The highest whole percentile with at least ten op runs beyond it."""
    n = len(times)
    if n < 20:
        return None
    return math.floor(100 * (n - 10) / n), sorted(times)[n - 11], n


def per_layer(records, table, tracer, pass_counts):
    n_traced = len(pass_counts)
    metrics = {}
    for name, kind in LAYER_TIMES:
        metrics[f"{name}.{kind}"] = (table.get(name, {}).get(kind, 0.0) / n_traced, "s")
    counts = pass_counts[0]
    for key, unit in LAYER_COUNTS.items():
        metrics[key] = (counts.get(key, 0), unit)
    support = counts.get("optimize.solved_points", 0)
    metrics["optimize.active_frac"] = (
        counts.get("optimize.active_points", 0) / support if support else 0.0, "fraction"
    )
    metrics["optimize.tableau_mb"] = (tracer.peaks.get("optimize.tableau_mb", 0.0), "MB")
    for key, traced in (("trace.op_s_p50", True), ("trace.untraced_op_s_p50", False)):
        times = op_times([r for r in records if r.traced == traced])
        metrics[key] = (statistics.median(times), "s")
    return metrics


def span_table_lines(table, op_seconds):
    yield f"{'span':42} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'self%':>6}"
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100 * row["self_s"] / op_seconds
        yield (f"{name:42} {row['calls']:8d} {row['busy_s']:10.4f} "
               f"{row['self_s']:10.4f} {share:6.1f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dpsynth" / "__init__.py").is_file():
        print(f"error: no dpsynth package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    import numpy
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    while time.perf_counter() - t0 < SPIN_S:
        pass
    clock = HostClock(numpy)
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        workload = workloads.WORKLOADS[args.workload]()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            error, _, adjusted = clock.measure(lambda: set_up(workload, args.seed, workdir))
            if error is not None:
                raise error
            setup_times.append(adjusted)
        tracer = tracing.Tracer()
        records, pass_counts = run_passes(
            workload, args.seconds, args.trace == 1, tracer, clock
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, problems = problems_of(records)
    lines = []
    if args.trace:
        if any(counts != pass_counts[0] for counts in pass_counts):
            problems.append(f"counters differ between traced passes: {pass_counts}")
        table = tracer.summary()
        lines.extend(span_table_lines(table, sum(r.wall for r in records if r.traced)))
        metrics = per_layer(records, table, tracer, pass_counts)
        overhead = metrics["trace.op_s_p50"][0] / metrics["trace.untraced_op_s_p50"][0] - 1
        lines.append(f"tracing overhead = {100 * overhead:+.2f}% of untraced op_s_p50")
    else:
        values = end_to_end(records, failed, statistics.median(setup_times))
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        walls = op_times(records, "wall")
        times = [r.wall for r in records]
        lines.append(f"failed_frac = {failed / len(records):.6g} "
                     f"({failed} of {len(records)} ops)")
        lines.append(f"unadjusted wall time: ops_per_s = {len(walls) / sum(walls):.6g} 1/s, "
                     f"op_s_p50 = {statistics.median(walls):.6g} s")
        op_tail = tail(times)
        lines.append(
            f"op_s_tail = {op_tail[1]:.6g} s (p{op_tail[0]} of {op_tail[2]} op runs)"
            if op_tail else f"op_s_tail = not reported: {len(times)} op runs, 20 needed"
        )
    env = environment(numpy.__version__)
    lines.append(f"env = {json.dumps(env)}")
    lines.extend(f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items())
    lines.extend(f"problem: {p}" for p in problems)
    print("\n".join(lines))

    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "setup_times_s": setup_times,
            "problems": problems, "metrics": metrics_json,
            "ops": [{"pass": r.n_pass, "position": r.position, "traced": r.traced,
                     "wall_s": r.wall, "adjusted_s": r.seconds} for r in records],
            "pass_counts": pass_counts,
            "spans": tracer.spans,
        })
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics_json,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
