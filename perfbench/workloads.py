"""The benchmark's workloads: seeded inputs, one rep of fixed work, checks.

Each workload runs a number of *reps*.  A rep is a fixed list of jobs (one
job = one optimization request: an engine call, a portfolio call, or one
served job) whose inputs come from ``(seed, rep)`` and whose work is bounded
by iterations, never by wall clock, so a rep's outputs are a pure function of
its inputs and only its duration depends on the machine.

The search seeds are fixed per case.  ``--seed`` draws what a user would
vary: the rotation angles of the NISQ circuits and the qubit labelling of the
Clifford+T circuits.  Drawing the search seed instead changes how many and
which blocks are resynthesized, and with it a rep's wall time by up to 5x
(random_param_5_60, 400 iterations, search seeds 0-4: 2.3-8.6 s), which no
affordable run length averages out.  ``WORKLOADS.md`` records how each
case and seed was chosen.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import time
from dataclasses import dataclass, field

import numpy as np

#: iteration-bounded runs must never stop on the wall clock
NO_TIME_LIMIT = 1e9
#: slack above ``error_bound`` allowed when checking an output against its
#: input by dense unitary distance: the numerical floor of the
#: Hilbert-Schmidt distance on the 4-7 qubit circuits used here
DISTANCE_FLOOR = 1e-7
#: a rep that runs this long is abandoned and its unfinished jobs fail
REP_TIMEOUT_S = 120.0


@dataclass
class Job:
    """One optimization request and what came back."""

    label: str
    circuit: object
    gate_set: str
    latency: float = 0.0
    #: served jobs only: submit -> first streamed improvement
    first_incumbent: "float | None" = None
    best: object = None
    best_cost: float = 0.0
    initial_cost: float = 0.0
    error_bound: float = 0.0
    result: object = None
    error: "str | None" = None


@dataclass
class Rep:
    """One rep: its set-up and work durations and its jobs."""

    setup_s: float
    wall_s: float
    jobs: "list[Job]"
    window: "tuple[float, float]"
    counters: dict = field(default_factory=dict)


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng([seed, rep])


def reangle(circuit, rng: np.random.Generator):
    """Same gates on the same qubits, every rotation angle drawn afresh."""
    from repro.circuits import Circuit

    out = Circuit(circuit.num_qubits, name=circuit.name)
    for inst in circuit:
        out.add(inst.gate, inst.qubits, [float(rng.uniform(-math.pi, math.pi)) for _ in inst.params])
    return out


def relabel(circuit, rng: np.random.Generator):
    """The same circuit on a random permutation of its qubits."""
    perm = rng.permutation(circuit.num_qubits)
    mapping = {qubit: int(perm[qubit]) for qubit in range(circuit.num_qubits)}
    out = circuit.remapped(mapping, circuit.num_qubits)
    out.name = circuit.name
    return out


#: dense unitary distances already computed, by input and output
#: fingerprint: a served stream repeats one job, and a dense unitary costs
#: more than serving it
_distances: "dict[tuple[str, str], float]" = {}


def verify(job: Job) -> "str | None":
    """Why ``job``'s output is wrong, or None when it checks out."""
    from repro.circuits import circuit_distance
    from repro.distrib import circuit_fingerprint
    from repro.gatesets import get_gate_set

    if job.error is not None:
        return job.error
    if job.best is None:
        return "no output circuit"
    outside = get_gate_set(job.gate_set).violations(job.best)
    if outside:
        return f"gates outside {job.gate_set}: {outside}"
    key = (circuit_fingerprint(job.circuit), circuit_fingerprint(job.best))
    if key not in _distances:
        _distances[key] = circuit_distance(job.circuit, job.best)
    distance = _distances[key]
    if not distance <= job.error_bound + DISTANCE_FLOOR:
        return f"distance {distance:.3e} exceeds error_bound {job.error_bound:.3e}"
    perf = getattr(job.result, "perf", None)
    if perf is None:
        return "no perf report, so cache drops cannot be checked"
    if perf.cache_dropped_requests:
        return f"cache dropped {perf.cache_dropped_requests} requests"
    return None


def _warm_clifford_t() -> None:
    from repro.circuits.gates import CX_MAT
    from repro.synthesis import CliffordTSynthesizer

    CliffordTSynthesizer(rng=0).synthesize(CX_MAT)


def _finish(job: Job, result, latency: float) -> None:
    job.latency = latency
    job.result = result
    job.best = result.best_circuit
    job.best_cost = result.best_cost
    job.initial_cost = result.initial_cost
    job.error_bound = result.error_bound


class _EngineWorkload:
    """A rep calls ``optimize`` once per case, in case order."""

    #: (suite case, fixed search seed)
    cases: "tuple[tuple[str, int], ...]" = ()
    streams_incumbents = False
    #: reps whose jobs ``job_tail_s`` ranks; ``None`` means all of them
    tail_reps = None

    def inputs(self, seed: int, rep: int) -> list:
        raise NotImplementedError

    def optimize(self, circuit, search_seed: int):
        raise NotImplementedError

    def run_rep(self, seed: int, rep: int, tracer=None) -> Rep:
        started = time.perf_counter()
        jobs = self.inputs(seed, rep)
        setup_s = time.perf_counter() - started
        begin = time.perf_counter()
        for job, search_seed in jobs:
            job_started = time.perf_counter()
            try:
                with _bench_span(tracer, job.label):
                    result = self.optimize(job.circuit, search_seed)
            except Exception as error:  # noqa: BLE001 - a failed job is counted, not fatal
                job.error = f"{type(error).__name__}: {error}"
                continue
            _finish(job, result, time.perf_counter() - job_started)
        end = time.perf_counter()
        return Rep(setup_s, end - begin, [job for job, _ in jobs], (begin, end))

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# nisq-numerical: the serial engine with numerical template resynthesis
# ---------------------------------------------------------------------------


class NisqNumerical(_EngineWorkload):
    """Serial engine (``optimize_circuit``) on ibm-eagle, fidelity objective.

    Numerical template synthesis does almost all the work; the private
    resynthesis cache mostly misses and writes.  ``parallel``, ``serve``,
    the network cache and Clifford+T synthesis stay idle.
    """

    name = "nisq-numerical"
    gate_set = "ibm-eagle"
    #: both take about 0.5 s per job
    cases = (("random_param_5_60", 4), ("vqe_6_d2", 1))
    iterations = 300
    workers = 1

    def setup(self) -> None:
        from repro.suite import nisq_suite, select_cases

        self.base = select_cases(nisq_suite("small"), [name for name, _ in self.cases])

    def warm_up(self) -> None:
        # Pulls in scipy's lazily imported optimizer modules.
        from repro.circuits.gates import CX_MAT
        from repro.synthesis import TemplateSynthesizer

        TemplateSynthesizer(max_layers=1, restarts=1, maxiter=5, rng=0).synthesize(CX_MAT)

    def inputs(self, seed: int, rep: int) -> list:
        from repro.gatesets import decompose_to_gate_set, get_gate_set

        rng = rep_rng(seed, rep)
        jobs = []
        for case, (_, search_seed) in zip(self.base, self.cases):
            circuit = decompose_to_gate_set(reangle(case.circuit, rng), get_gate_set(self.gate_set))
            circuit.name = case.name
            jobs.append((Job(f"{case.name}#{rep}", circuit, self.gate_set), search_seed))
        return jobs

    def optimize(self, circuit, search_seed: int):
        from repro.core import optimize_circuit

        return optimize_circuit(
            circuit,
            self.gate_set,
            objective="nisq",
            max_iterations=self.iterations,
            time_limit=NO_TIME_LIMIT,
            seed=search_seed,
            synthesis_time_budget=None,
        )


# ---------------------------------------------------------------------------
# ftqc-portfolio: the process portfolio with Clifford+T synthesis
# ---------------------------------------------------------------------------


class FtqcPortfolio(_EngineWorkload):
    """``optimize_circuit_portfolio`` with 2 ``processes`` workers, FTQC objective.

    Stresses BFS/annealing synthesis, the batch seam and the process pool's
    round pickling and exchange; numerical synthesis and the network cache
    stay idle.  Workers keep private caches, so the output does not depend on
    the backend.
    """

    name = "ftqc-portfolio"
    gate_set = "clifford+t"
    cases = (("tof_5", 3), ("barenco_tof_4", 3), ("rc_adder_3", 3), ("vbe_adder_2", 3))
    iterations = 300
    exchange_interval = 100
    workers = 2

    def setup(self) -> None:
        from repro.suite import lowered_suite, select_cases

        self.base = select_cases(
            lowered_suite(self.gate_set, "small"), [name for name, _ in self.cases]
        )

    def warm_up(self) -> None:
        _warm_clifford_t()

    def inputs(self, seed: int, rep: int) -> list:
        rng = rep_rng(seed, rep)
        return [
            (Job(f"{case.name}#{rep}", relabel(case.circuit, rng), self.gate_set), search_seed)
            for case, (_, search_seed) in zip(self.base, self.cases)
        ]

    def optimize(self, circuit, search_seed: int):
        from repro.parallel import optimize_circuit_portfolio

        return optimize_circuit_portfolio(
            circuit,
            self.gate_set,
            objective="ftqc",
            max_iterations=self.iterations,
            time_limit=NO_TIME_LIMIT,
            seed=search_seed,
            num_workers=self.workers,
            exchange_interval=self.exchange_interval,
            backend="processes",
        )


# ---------------------------------------------------------------------------
# serve-ftqc: the job server over a shared tcp cache store
# ---------------------------------------------------------------------------


class ServeFtqc:
    """An in-process ``JobServer`` over one loopback tcp cache store.

    One load-generator process on one client connection runs a closed loop
    per tenant, each with one job in flight, so two jobs are in flight
    across the two tenants.  Tenant ``b`` sends the distinct suite circuits
    in ``miss_heavy`` once each, at ``b_weight``; their blocks miss the
    store.  Tenant ``a`` sends ``a_jobs`` identical jobs.  The first runs
    alone and synthesizes its blocks into the store, so it never races a
    tenant ``b`` job for a shared block; every later one finds all of them
    there and does the same work, which makes the latency median a dense
    population rather than a mix of job classes.  Path:
    ``serve.scheduler`` -> ``distrib.case_optimizer`` ->
    ``PortfolioRun.step_round`` -> ``perf`` tcp store.  Every rep starts a
    fresh cache server and job server, so reps do not share cache state.
    """

    name = "serve-ftqc"
    gate_set = "clifford+t"
    #: the client reads each job's incumbent stream
    streams_incumbents = True
    #: the tail is a rank among a few slow jobs per rep, so it is taken over
    #: a fixed number of reps, which every run makes.  Over 5 reps the 11th
    #: slowest job is the middle of the ``rc_adder_3`` jobs and the ``a``
    #: jobs that finish with them; over 3 it was the slowest ``tof_5``.
    tail_reps = 5
    #: tenant ``b``: distinct suite circuits, so their blocks miss
    miss_heavy = (
        "tof_5", "barenco_tof_4", "rc_adder_3", "vbe_adder_2", "grover_3", "barenco_tof_3", "rc_adder_2",
    )
    b_iterations = 200
    #: tenant ``b``'s fair share: a ``b`` job gets 8 quanta for each of a
    #: tenant ``a`` job's, so its latency is its own work.  At equal weights
    #: each ``b`` job finished together with the ``a`` job beside it, and
    #: those pairs' order decided which job ``job_tail_s`` ranked.
    b_weight = 8.0
    #: tenant ``a``: one cache-friendly job, repeated.  1000 iterations on
    #: ``repeated_blocks(6, 5)`` with search seed 4 take about 60 ms once the
    #: store is warm and 3.5 s cold (search seed 2: 7.2 s cold).  Circuits of
    #: more than about 130 gates reach ``DISTANCE_FLOOR`` from rounding alone.
    a_jobs = 35
    a_iterations = 1000
    a_shape = (6, 5)
    a_seed = 4
    exchange_interval = 50
    #: client poll interval; well below the job latency median
    poll_s = 0.002
    workers = 1

    def warm_up(self) -> None:
        _warm_clifford_t()

    def setup(self) -> None:
        from repro.suite import lowered_suite, select_cases

        self.base = select_cases(lowered_suite(self.gate_set, "small"), self.miss_heavy)
        # Forked before any server thread exists; a spawned child would also
        # leave multiprocessing's resource-tracker process behind.
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._loadgen = context.Process(target=load_generator, args=(child,), name="perfbench-loadgen")
        self._loadgen.start()
        child.close()
        if not self._conn.poll(60.0) or self._conn.recv() != "ready":
            raise RuntimeError("load generator did not start")

    def inputs(self, seed: int, rep: int) -> list:
        from repro.serve import JobSpec
        from repro.suite.generators import repeated_blocks

        # The inputs do not depend on ``seed``: relabelling tenant b's
        # circuits changes which blocks they find in the store, and moved
        # ``tof_5`` between 0.32 s and 0.58 s, and the tail with it.
        jobs = [("b", case.circuit, self.b_iterations) for case in self.base]
        jobs += [("a", repeated_blocks(*self.a_shape), self.a_iterations)] * self.a_jobs
        return [
            JobSpec(
                circuit=circuit,
                name=f"{tenant}:{circuit.name}#{rep}",
                gate_set=self.gate_set,
                objective="ftqc",
                max_iterations=iterations,
                time_limit=NO_TIME_LIMIT,
                seed=index if tenant == "b" else self.a_seed,
                num_workers=1,
                exchange_interval=self.exchange_interval,
                backend="serial",
                tenant=tenant,
                weight=self.b_weight if tenant == "b" else 1.0,
            )
            for index, (tenant, circuit, iterations) in enumerate(jobs)
        ]

    def run_rep(self, seed: int, rep: int, tracer=None) -> Rep:
        from repro.distrib import start_tcp_cache_server
        from repro.serve import JobServer

        started = time.perf_counter()
        specs = self.inputs(seed, rep)
        cache_process, cache_address = start_tcp_cache_server()
        server = JobServer(cache=f"tcp://{cache_address[0]}:{cache_address[1]}")
        try:
            address = server.start()
            setup_s = time.perf_counter() - started
            begin = time.perf_counter()
            # Tenant a's first job runs alone, so its synthesis into the
            # store never races tenant b's for the same blocks.
            first_a = len(self.base)
            records = [None] * len(specs)
            rpc_latencies = []
            for phase in ([first_a], [i for i in range(len(specs)) if i != first_a]):
                self._conn.send((address, server.authkey, [specs[i] for i in phase], self.poll_s))
                if not self._conn.poll(REP_TIMEOUT_S + 30.0):
                    raise RuntimeError("load generator did not report back")
                phase_records, rpc, error = self._conn.recv()
                if error is not None:
                    raise RuntimeError(f"load generator failed: {error}")
                for index, record in zip(phase, phase_records):
                    records[index] = record
                rpc_latencies += rpc
            end = time.perf_counter()
            stats = server.stats()
            with server.lock:
                results = [server.scheduler.result(record["job_id"])[1] for record in records]
        finally:
            server.stop()
            cache_process.terminate()
            cache_process.join(10.0)
            if cache_process.is_alive():
                cache_process.kill()
                cache_process.join()
        jobs = []
        for spec, record, result in zip(specs, records, results):
            job = Job(spec.name, spec.circuit, self.gate_set, result=result)
            job.latency = record["done"] - record["submit"]
            if record["first"] is not None:
                job.first_incumbent = record["first"] - record["submit"]
            if record["state"] != "done" or record["best"] is None:
                job.error = f"job ended {record['state']}: {record['message']}"
            else:
                job.best, job.best_cost, job.initial_cost, job.error_bound = record["best"]
            jobs.append(job)
        counters = {
            "requests_received": stats.get("requests_received"),
            "requests_failed": stats.get("requests_failed"),
            "requests_dropped": stats.get("requests_dropped"),
            "quanta": stats.get("quanta"),
            "batch_jobs": stats.get("batch_jobs"),
            "rpc_latencies": rpc_latencies,
        }
        return Rep(setup_s, end - begin, jobs, (begin, end), counters)

    def close(self) -> None:
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._loadgen.join(30.0)
        if self._loadgen.is_alive():
            self._loadgen.kill()
            self._loadgen.join()


def load_generator(conn) -> None:
    """Client process: one connection, one closed loop per tenant."""
    conn.send("ready")
    while True:
        message = conn.recv()
        if message is None:
            return
        try:
            records, rpc = _closed_loop(*message)
        except Exception as error:  # noqa: BLE001 - reported to the parent, which fails the run
            conn.send((None, None, f"{type(error).__name__}: {error}"))
        else:
            conn.send((records, rpc, None))


def _closed_loop(address, authkey, specs, poll_s: float):
    """Submit each tenant's jobs in order, the next once the last is terminal."""
    from repro.serve import JobClient

    client = JobClient(address=address, authkey=authkey)
    rpc: "list[float]" = []

    def call(method, *args):
        started = time.perf_counter()
        value = method(*args)
        rpc.append(time.perf_counter() - started)
        return value

    records: "list[dict | None]" = [None] * len(specs)
    queues: "dict[str, list[int]]" = {}
    for index, spec in enumerate(specs):
        queues.setdefault(spec.tenant, []).append(index)
    live: "dict[str, dict]" = {}  # tenant -> its job in flight
    deadline = time.perf_counter() + REP_TIMEOUT_S
    try:
        while live or any(queues.values()):
            for tenant, queue in queues.items():
                if queue and tenant not in live:
                    index = queue.pop(0)
                    submitted = time.perf_counter()
                    job_id = call(client.submit, specs[index])
                    live[tenant] = {"job_id": job_id, "index": index, "submit": submitted, "first": None}
            for tenant, record in list(live.items()):
                job_id = record["job_id"]
                if record["first"] is None and call(client.incumbents, job_id, 1):
                    record["first"] = time.perf_counter()
                status = call(client.status, job_id)
                timed_out = time.perf_counter() > deadline
                if not status.terminal and not timed_out:
                    continue
                record["done"] = time.perf_counter()
                if timed_out and not status.terminal:
                    call(client.cancel, job_id)
                if record["first"] is None and call(client.incumbents, job_id, 1):
                    record["first"] = record["done"]
                _, result = call(client.result, job_id, False)
                record["state"] = "timeout" if timed_out and not status.terminal else status.state
                record["message"] = status.message
                record["best"] = (
                    None
                    if result is None
                    else (result.best_circuit, result.best_cost, result.initial_cost, result.error_bound)
                )
                records[record["index"]] = record
                del live[tenant]
            time.sleep(poll_s)
    finally:
        client.close()
    return records, rpc


WORKLOADS = {cls.name: cls for cls in (NisqNumerical, FtqcPortfolio, ServeFtqc)}


def _bench_span(tracer, label: str):
    """The benchmark's own span around one job (a no-op when untraced)."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span("bench.job", job=label)
