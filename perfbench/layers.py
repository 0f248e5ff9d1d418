"""Layer boundaries the traced run times, and the per-layer metrics.

Every wrapped name is a public entry point of one ``repro`` layer (plus the
worker entry point of the process pool, which is how a portfolio round
reaches its workers).  Counters are taken where the work happens: synthesis
outcomes at the synthesizer, objective evaluations at the
``scipy.optimize.minimize`` boundary the numerical module calls, cache round
trips at the tcp client.
"""

from __future__ import annotations

import statistics

from tracing import JOB_ATTR, Tracer


def _counted(key: str, success=None):
    """``after`` hook: count calls of ``key`` and, optionally, successes."""

    def after(tracer: Tracer, args, result, record) -> None:
        tracer.count(f"{key}.calls")
        if success is not None and success(result):
            tracer.count(f"{key}.ok")

    return after


def _count_nfev(tracer: Tracer, args, result, record) -> None:
    tracer.count("synthesis.template.nfev", int(getattr(result, "nfev", 0)))


def _count_batch(tracer: Tracer, args, result, record) -> None:
    tracer.count("synthesis.batch.calls")
    tracer.count("synthesis.batch.items", len(result))


def _tag_optimizer(tracer: Tracer, args, optimizer, record) -> None:
    # case_optimizer(job, ...): serve jobs carry their id as the inline case name
    job = args[0]
    circuits = getattr(job, "inline_circuits", ()) or ()
    if circuits:
        setattr(optimizer, JOB_ATTR, circuits[0][0])
        tracer.opened[circuits[0][0]] = record[2]


def _tag_run(tracer: Tracer, args, run, record) -> None:
    setattr(run, JOB_ATTR, getattr(args[0], JOB_ATTR, None))


def _record_submit(tracer: Tracer, args, job_id, record) -> None:
    tracer.submitted[job_id] = record[2]


def build_tracer() -> Tracer:
    """A tracer with every layer boundary registered (not yet installed)."""
    from repro.circuits.circuit import Circuit
    from repro.core import instantiate
    from repro.core.guoq import GuoqRun
    from repro.core.transformations import ResynthesisTransformation, RewriteTransformation
    from repro.distrib import worker
    from repro.parallel import backends
    from repro.parallel.portfolio import PortfolioOptimizer, PortfolioRun
    from repro.perf.cache import ResynthesisCache
    from repro.perf.shared_cache import TcpCacheBackend
    from repro.serve.scheduler import JobScheduler
    from repro.synthesis import annealing, batch, numerical

    tracer = Tracer()
    wrap = tracer.wrap
    # core
    wrap(instantiate, "default_transformations", "core.default_transformations")
    wrap(GuoqRun, "step", "core.step")
    wrap(
        ResynthesisTransformation,
        "apply",
        "core.resynthesis",
        after=_counted("core.resynthesis", success=lambda r: r is not None),
    )
    # rewrite (the rule library, reached through the engine's rewrite transformation)
    wrap(
        RewriteTransformation,
        "apply",
        "rewrite.apply",
        after=_counted("rewrite.apply", success=lambda r: r is not None),
    )
    # synthesis
    wrap(batch.BatchResynthesizer, "resynthesize_batch", "synthesis.batch", after=_count_batch)
    wrap(
        numerical.TemplateSynthesizer,
        "synthesize",
        "synthesis.template.synthesize",
        after=_counted("synthesis.template.synthesize", success=lambda r: r is not None),
    )
    wrap(numerical, "minimize", "synthesis.template", after=_count_nfev)
    wrap(
        annealing.CliffordTSynthesizer,
        "synthesize",
        "synthesis.cliffordt",
        after=_counted("synthesis.cliffordt", success=lambda r: r is not None),
    )
    # circuits
    wrap(Circuit, "unitary", "circuits.unitary")
    # perf
    wrap(ResynthesisCache, "get", "perf.cache.get")
    for op in ("get_many", "put_many", "synth_batch"):
        wrap(TcpCacheBackend, op, "perf.cache.rpc")
    # parallel
    tracer.wrap_round(backends.RoundExecutor, "run_round", "parallel.round")
    tracer.wrap_worker_entry(backends, "_step_engine", "parallel.worker_step")
    wrap(PortfolioOptimizer, "start", "parallel.start", after=_tag_run)
    wrap(
        PortfolioRun,
        "step_round",
        "parallel.step_round",
        job_of=lambda args: getattr(args[0], JOB_ATTR, None),
    )
    # distrib
    wrap(worker, "case_optimizer", "distrib.case_optimizer", after=_tag_optimizer)
    # serve
    wrap(JobScheduler, "submit", "serve.submit", after=_record_submit)
    wrap(JobScheduler, "tick", "serve.tick")
    return tracer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, traced, untraced, workers: int, cpu_s: float, loop_wall: float) -> dict:
    """Per-layer metrics, ``name -> (value, unit)``, from the traced reps.

    The engine counters come from the program's own per-job results
    (``GuoqResult``/``PortfolioResult.perf``); ``workers`` is the number of
    engines stepping at once; ``cpu_s`` and ``loop_wall`` cover every rep.
    """
    runs = [job.result for rep in traced for job in rep.jobs if job.result is not None]
    traced_wall = sum(rep.wall_s for rep in traced)
    c = tracer.counters
    perf = [run.perf for run in runs if run.perf is not None]
    phase = lambda name: sum(p.phase_seconds.get(name, 0.0) for p in perf)  # noqa: E731
    iterations = sum(p.iterations for p in perf)
    accepted = rejected = 0
    for run in runs:
        for engine in getattr(run, "worker_results", None) or [run]:
            accepted += engine.accepted
            rejected += engine.rejected
    caches = [stats for p in perf for stats in p.caches]
    lookups = sum(stats.lookups for stats in caches)
    template = tracer.durations("synthesis.template")
    opened = [
        tracer.opened[job] - tracer.submitted[job]
        for job in tracer.opened
        if job in tracer.submitted
    ]
    # engine steps a portfolio round ran: in pool workers or, serially, in-process
    busy = tracer.total_under("core.step", "parallel.round")
    served = lambda key: sum(rep.counters.get(key) or 0 for rep in traced)  # noqa: E731
    metrics = {
        "core.iters": (iterations, "count"),
        "core.iters_per_s": (_ratio(iterations, traced_wall), "1/s"),
        "core.accept_ratio": (_ratio(accepted, accepted + rejected), "ratio"),
        "core.phase.resynthesis_s": (phase("resynthesis"), "s"),
        "core.phase.rewrite_s": (phase("rewrite"), "s"),
        "core.phase.cost_s": (phase("cost"), "s"),
        "core.rewrite_skips": (sum(p.rewrite_skips for p in perf), "count"),
        "core.resynth_fire_ratio": (
            _ratio(c.get("core.resynthesis.ok", 0), c.get("core.resynthesis.calls", 0)),
            "ratio",
        ),
        "synthesis.template.calls": (len(template), "count"),
        "synthesis.template.s": (sum(template), "s"),
        "synthesis.template.p50_s": (_median(template), "s"),
        "synthesis.template.success_ratio": (
            _ratio(
                c.get("synthesis.template.synthesize.ok", 0),
                c.get("synthesis.template.synthesize.calls", 0),
            ),
            "ratio",
        ),
        "synthesis.template.nfev": (c.get("synthesis.template.nfev", 0), "count"),
        "synthesis.cliffordt.calls": (c.get("synthesis.cliffordt.calls", 0), "count"),
        "synthesis.cliffordt.s": (tracer.total("synthesis.cliffordt"), "s"),
        "synthesis.cliffordt.success_ratio": (
            _ratio(c.get("synthesis.cliffordt.ok", 0), c.get("synthesis.cliffordt.calls", 0)),
            "ratio",
        ),
        "synthesis.batch.calls": (c.get("synthesis.batch.calls", 0), "count"),
        "synthesis.batch.items": (c.get("synthesis.batch.items", 0), "count"),
        "rewrite.apply.calls": (c.get("rewrite.apply.calls", 0), "count"),
        "rewrite.apply.s": (tracer.total("rewrite.apply"), "s"),
        "rewrite.apply.fire_ratio": (
            _ratio(c.get("rewrite.apply.ok", 0), c.get("rewrite.apply.calls", 0)),
            "ratio",
        ),
        "circuits.unitary.calls": (len(tracer.durations("circuits.unitary")), "count"),
        "circuits.unitary.s": (tracer.total("circuits.unitary"), "s"),
        "perf.cache.lookups": (lookups, "count"),
        "perf.cache.hit_ratio": (_ratio(sum(s.hits for s in caches), lookups), "ratio"),
        "perf.cache.remote_hits": (sum(s.remote_hits for s in caches), "count"),
        "perf.cache.puts": (sum(s.puts for s in caches), "count"),
        "perf.cache.get_s": (tracer.total("perf.cache.get"), "s"),
        "perf.cache.rpc.calls": (len(tracer.durations("perf.cache.rpc")), "count"),
        "perf.cache.rpc.s": (tracer.total("perf.cache.rpc"), "s"),
        "perf.cache.dropped_requests": (sum(p.cache_dropped_requests for p in perf), "count"),
        "perf.cache.verify_failures": (sum(p.cache_verify_failures for p in perf), "count"),
        "parallel.round.calls": (len(tracer.durations("parallel.round")), "count"),
        "parallel.round.s": (tracer.total("parallel.round"), "s"),
        "parallel.worker_busy_s": (busy, "s"),
        "parallel.utilization": (_ratio(busy, traced_wall * workers), "ratio"),
        "serve.queue_wait_p50_s": (_median(opened), "s"),
        "serve.rpc.p50_s": (_median(v for rep in traced for v in rep.counters.get("rpc_latencies", ())), "s"),
        "serve.quanta": (served("quanta"), "count"),
        "serve.batch_jobs": (served("batch_jobs"), "count"),
        "serve.requests_failed": (served("requests_failed"), "count"),
        "distrib.case_optimizer.s": (tracer.total("distrib.case_optimizer"), "s"),
        "proc.cpu_s": (cpu_s, "s"),
        "proc.cpu_per_wall": (_ratio(cpu_s, loop_wall), "ratio"),
        "trace.coverage": (tracer.coverage([rep.window for rep in traced]), "ratio"),
        "trace.overhead_s": (
            _median(rep.wall_s for rep in traced) - _median(rep.wall_s for rep in untraced)
            if untraced else 0.0,
            "s",
        ),
    }
    return metrics
