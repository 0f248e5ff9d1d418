"""The repo benchmark: seeded, iteration-bounded GUOQ workloads, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload nisq-numerical --seed 1 --seconds 30 --trace 0

A run repeats *reps* of fixed, iteration-bounded work: each rep's outputs
are a pure function of its seeded inputs, and only its duration is
measured.  It makes at least ``MIN_REPS`` reps (or the workload's
``tail_reps``, if more) and then starts another only while that is
expected to end within ``--seconds``, so a run's length does not depend on
machine speed but its sample count does.  Quality metrics are taken over
the first ``MIN_REPS`` reps, which every run makes, so they are identical
across runs of one seed.  If those first reps are not done after
``GUARD_S``, the run stops and counts their jobs as failed.

Every job's output is checked: it must use only its gate set and lie within
its reported ``error_bound`` of its input by dense unitary distance.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced reps and prints the per-layer metrics, and writes the spans to
``.perfbench_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, and the exit code is 1
when any operation failed.  See ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: fewest reps a run makes, whatever ``--seconds`` says
MIN_REPS = 3
#: a run whose first ``MIN_REPS`` reps take longer than this gives up
GUARD_S = 150.0
#: interpreters whose one-time set-up is timed (this one and fresh ones);
#: ``setup_s`` takes their median
SETUP_SAMPLES = 5
#: ru_maxrss is in KiB on Linux
KIB_PER_MB = 1024.0


def _import_program(root: Path) -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    package = root / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no program at {package.parent}; run from a checkout root")
    sys.path.insert(0, str(root / "src"))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not the checkout")


def _time_setup(workload: str) -> float:
    """Seconds a fresh interpreter takes for ``workload``'s one-time set-up."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout.split()[-1])


def _geomean(values) -> float:
    values = list(values)
    if not values:
        return 1.0  # the empty product: no case had anything to reduce
    if min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _median(values) -> float:
    """Median, or 0 when no rep or job finished (such a run is failed anyway)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _tail(latencies: "list[float]") -> "tuple[float, float]":
    """``(value, percentile)`` of the highest percentile with 10 jobs beyond it.

    Nearest rank, and above the median: with fewer than 22 jobs no such
    percentile exists, and the rank just above the median stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def _rusage() -> "tuple[float, float, float]":
    """``(cpu seconds, self peak RSS MB, largest child peak RSS MB)``."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return cpu, own.ru_maxrss / KIB_PER_MB, children.ru_maxrss / KIB_PER_MB


def _print_rows(jobs) -> None:
    """One Snippet-1-style row per job: original -> optimized, with ratios."""
    from repro.distrib import circuit_fingerprint

    def cell(before: float, after: float) -> str:
        ratio = f"{after / before:.2f}" if before else "-"
        return f"{before:g}->{after:g} ({ratio})"

    print(f"{'case':<24} {'size':>16} {'depth':>16} {'2q':>14} {'T':>14} "
          f"{'objective cost':>26} {'latency':>8}  fingerprint")
    for job in jobs:
        if job.best is None:
            print(f"{job.label:<24} FAILED: {job.error}")
            continue
        original, best = job.circuit, job.best
        print(
            f"{job.label:<24} {cell(original.size(), best.size()):>16} "
            f"{cell(original.depth(), best.depth()):>16} "
            f"{cell(original.two_qubit_count(), best.two_qubit_count()):>14} "
            f"{cell(original.t_count(), best.t_count()):>14} "
            f"{cell(round(job.initial_cost, 6), round(job.best_cost, 6)):>26} "
            f"{job.latency:>7.3f}s  "
            f"{circuit_fingerprint(best)[:16]}"
        )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # time the one-time set-up, print it and exit (see _time_setup)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    setup_started = time.perf_counter()
    _import_program(root)
    from layers import build_tracer, layer_metrics
    from workloads import WORKLOADS, verify

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workload.setup()
    try:
        workload.warm_up()
        one_time_setup = time.perf_counter() - setup_started
        if args.setup_only:
            print(one_time_setup)
            return 0
        # Imports and suite builds happen once per process; time them in
        # fresh interpreters too, so that setup_s is a median.
        setup_samples = [one_time_setup]
        if not args.trace:
            setup_samples += [_time_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        tracer = build_tracer() if args.trace else None

        reps = []
        fixed_work_rusage = None
        traced = []
        untraced = []
        durations = []
        skipped_jobs = 0
        # A tail taken over a fixed number of reps needs all of them made.
        min_reps = max(MIN_REPS, workload.tail_reps or 0)
        cpu_before, _, _ = _rusage()
        loop_started = time.perf_counter()
        for index in itertools.count():
            elapsed = time.perf_counter() - loop_started
            if index >= min_reps:
                if elapsed + statistics.median(durations) > args.seconds:
                    break
            elif elapsed > GUARD_S:
                skipped_jobs += (min_reps - index) * (len(reps[-1].jobs) if reps else 1)
                break
            rep_started = time.perf_counter()
            try:
                if tracer is not None and index % 2 == 0:
                    with tracer.active():
                        rep = workload.run_rep(args.seed, index, tracer)
                    traced.append(rep)
                else:
                    rep = workload.run_rep(args.seed, index)
                    untraced.append(rep)
            except Exception:  # noqa: BLE001 - a broken rep fails its jobs, not the run
                traceback.print_exc()
                skipped_jobs += len(reps[-1].jobs) if reps else 1
                durations.append(time.perf_counter() - rep_started)
                continue
            for job in rep.jobs:
                job.error = verify(job)
            reps.append(rep)
            durations.append(time.perf_counter() - rep_started)
            if index == MIN_REPS - 1:
                # Peak RSS over the work every run makes; later reps would make
                # it grow with the number of reps that fit in --seconds.
                fixed_work_rusage = _rusage()
    finally:
        workload.close()
    loop_wall = time.perf_counter() - loop_started
    cpu_after, peak_self, peak_child = _rusage()
    if fixed_work_rusage is not None:
        _, peak_self, peak_child = fixed_work_rusage

    jobs = [job for rep in reps for job in rep.jobs]
    failed_jobs = [job for job in jobs if job.error is not None]
    attempted = len(jobs) + skipped_jobs
    failed = len(failed_jobs) + skipped_jobs
    for rep in reps:
        # Server counters: a request the job server failed or dropped is a
        # failure; a counter the server did not report counts as one too.
        for key in ("requests_failed", "requests_dropped"):
            if key in rep.counters:
                value = rep.counters[key]
                failed += 1 if value is None else int(value)
        attempted += int(rep.counters.get("requests_received") or 0)
    for job in failed_jobs:
        print(f"FAILED {job.label}: {job.error}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} reps={len(reps)} jobs={len(jobs)}")
    _print_rows(jobs)
    done = [job for job in jobs if job.error is None]
    graded = [job for rep in reps[:MIN_REPS] for job in rep.jobs if job.error is None]
    twoq = _geomean(j.best.two_qubit_count() / j.circuit.two_qubit_count()
                    for j in graded if j.circuit.two_qubit_count())
    t_ratio = _geomean(j.best.t_count() / j.circuit.t_count() for j in graded if j.circuit.t_count())
    cost = _geomean(j.best_cost / j.initial_cost for j in graded if j.initial_cost)
    print(f"geomean  2q {twoq:.4f}  T {t_ratio:.4f}  cost {cost:.4f}  "
          f"over the {len(graded)} jobs of the first {MIN_REPS} reps")

    if args.trace:
        metrics = layer_metrics(
            tracer, traced, untraced, workload.workers, cpu_after - cpu_before, loop_wall
        )
        out = root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{args.workload}-{args.seed}.json")
    else:
        latencies = [job.latency for job in done]
        tail_reps = reps[:workload.tail_reps] if workload.tail_reps else reps
        tail_latencies = [job.latency for rep in tail_reps for job in rep.jobs if job.error is None]
        tail, percentile = _tail(tail_latencies) if tail_latencies else (0.0, 0.0)
        metrics = {
            "setup_s": (_median(setup_samples) + _median(r.setup_s for r in reps), "s"),
            "wall_s": (_median(r.wall_s for r in reps), "s"),
            "job_p50_s": (_median(latencies), "s"),
            "job_tail_s": (tail, "s"),
            "twoq_ratio": (twoq, "ratio"),
            "t_ratio": (t_ratio, "ratio"),
            "cost_ratio": (cost, "ratio"),
            "peak_rss_mb": (peak_self + peak_child, "MB"),
        }
        # Printed, not gated (see WORKLOADS.md): a healthy run fails nothing,
        # and the first improvement of a served job is too noisy to bound.
        print(f"job_tail_s is p{percentile:.1f} of {len(tail_latencies)} jobs of {len(tail_reps)} reps")
        print(f"failed_frac {failed / attempted if attempted else 1.0:.4f} ratio "
              f"({failed} of {attempted} operations)")
        if workload.streams_incumbents:
            firsts = [job.first_incumbent for job in done if job.first_incumbent is not None]
            print(f"first_incumbent_p50_s {_median(firsts):.6g} s (over {len(firsts)} jobs that improved)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
