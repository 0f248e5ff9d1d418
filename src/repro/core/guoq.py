"""The GUOQ algorithm (Algorithm 1): randomized search over transformations.

GUOQ maintains a single candidate circuit and repeatedly

1. samples a transformation (resynthesis with small probability, otherwise a
   uniformly random rewrite rule — Section 5.3),
2. skips it when its epsilon would exceed the remaining error budget (line 6),
3. applies it (rewrites as a full pass, resynthesis to one random convex
   block),
4. accepts the result if the cost does not increase, and otherwise accepts it
   with the small simulated-annealing probability ``exp(-t * cost'/cost)``.

The best circuit seen so far is tracked and returned, so the algorithm is an
anytime optimizer — interrupting it at the time limit yields a valid result
whose total error is bounded by the accumulated epsilons (Theorems 4.2/5.3).

The search is exposed at two granularities:

* :meth:`GuoqOptimizer.optimize` — the blocking loop of Algorithm 1, exactly
  as in the paper;
* :meth:`GuoqOptimizer.start` — a resumable :class:`GuoqRun` engine that an
  external driver steps with :meth:`GuoqRun.step` and inspects with
  :meth:`GuoqRun.snapshot` at any point.  ``optimize`` is implemented on top
  of the engine and a seeded, iteration-bounded run is bit-identical between
  the two (see ``tests/test_guoq_regression.py``).  The step-wise form is what
  makes portfolio/parallel drivers (:mod:`repro.parallel`) possible: a run can
  be paused, shipped across a process boundary, given a better incumbent, and
  resumed without losing the anytime/history semantics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.objectives import CostFunction, TwoQubitGateCount
from repro.core.transformations import RewriteTransformation, Transformation
from repro.perf.report import PerfReport
from repro.utils.rng import ensure_rng

#: iterations per engine step used by the blocking ``optimize`` wrapper; the
#: time limit is re-checked every iteration, so the chunk size does not affect
#: semantics.
_OPTIMIZE_CHUNK = 256


@dataclass
class GuoqConfig:
    """Tunable parameters of the GUOQ search.

    Attributes mirror the paper's experimental setup: an error budget
    ``epsilon_budget`` (the hard constraint), temperature ``temperature = 10``
    (very small probability of accepting a worse candidate), and a resynthesis
    sampling probability of 1.5%.
    """

    epsilon_budget: float = 1e-6
    temperature: float = 10.0
    resynthesis_probability: float = 0.015
    time_limit: float = 10.0
    max_iterations: "int | None" = None
    seed: "int | None" = None
    track_history: bool = True
    #: skip re-applying a deterministic (rewrite) transformation that already
    #: failed to fire on the *current* circuit — a pure wall-clock
    #: optimization: the skipped pass would scan the whole circuit only to
    #: return None again, so the search trajectory is bit-identical
    memoize_rewrites: bool = True
    #: collect per-phase timers and cache statistics into ``GuoqResult.perf``
    collect_perf: bool = True
    #: gather each step quantum's resynthesis-cache miss set and dispatch it
    #: as one batch at the step boundary (a batched prefetch of the missed
    #: buckets — counter-neutral and trajectory-preserving, so seeded runs
    #: are bit-identical with this on or off; see ``docs/batching.md``)
    batch_resynthesis: bool = True


@dataclass
class SearchHistoryPoint:
    """One improvement event: when the incumbent best cost dropped."""

    elapsed: float
    iteration: int
    cost: float
    two_qubit_count: int
    total_count: int


@dataclass
class GuoqResult:
    """Result of a GUOQ run."""

    best_circuit: Circuit
    best_cost: float
    initial_cost: float
    error_bound: float
    iterations: int
    elapsed: float
    accepted: int
    rejected: int
    skipped_budget: int
    history: list[SearchHistoryPoint] = field(default_factory=list)
    applications_by_transformation: dict[str, int] = field(default_factory=dict)
    #: hot-path instrumentation (phase timers, throughput, cache stats);
    #: None when the run was configured with ``collect_perf=False``
    perf: "PerfReport | None" = None

    @property
    def cost_reduction(self) -> float:
        """Relative reduction of the objective, ``1 - best/initial``."""
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.best_cost / self.initial_cost


@dataclass(frozen=True)
class GuoqSearchState:
    """Lightweight snapshot of an in-flight run (no circuits attached)."""

    iteration: int
    elapsed: float
    best_cost: float
    current_cost: float
    initial_cost: float
    error_bound: float
    error_current: float
    accepted: int
    rejected: int
    skipped_budget: int
    done: bool


class GuoqRun:
    """A resumable GUOQ search: the loop body of Algorithm 1, externally driven.

    Obtained from :meth:`GuoqOptimizer.start`.  Drivers call :meth:`step` to
    advance the search by a bounded number of iterations and may interleave
    :meth:`snapshot` (anytime result), :meth:`inject_incumbent` (portfolio
    best-state exchange), or pickling (the run carries no open resources, so
    it can cross a process boundary between steps).

    Wall-clock accounting only accumulates while the run is actively stepping,
    so a paused run does not burn its time budget.
    """

    def __init__(self, optimizer: "GuoqOptimizer", circuit: Circuit) -> None:
        self._optimizer = optimizer
        self._config = optimizer.config
        self._rng = ensure_rng(optimizer.config.seed)
        self._current = circuit
        self._best = circuit
        self._cost_current = optimizer.cost(circuit)
        self._cost_best = self._cost_current
        self._initial_cost = self._cost_current
        self._error_current = 0.0
        self._error_best = 0.0
        self._iterations = 0
        self._quanta = 0
        self._last_step_iterations = 0
        self._accepted = 0
        self._rejected = 0
        self._skipped = 0
        self._elapsed = 0.0
        self._done = False
        self._history: list[SearchHistoryPoint] = []
        self._applications: dict[str, int] = {}
        # No-fire memo: names of deterministic transformations that returned
        # None on the current circuit.  Invalidated whenever the current
        # candidate changes (accept or incumbent injection); keyed by name so
        # the memo survives the pickle round-trips of the process backend.
        self._nofire: set[str] = set()
        self._nofire_skips = 0
        self._batch_dispatches = 0
        self._phase_seconds = {"rewrite": 0.0, "resynthesis": 0.0, "cost": 0.0}
        self._phase_calls = {"rewrite": 0, "resynthesis": 0, "cost": 0}
        if self._config.track_history:
            self._history.append(_history_point(0.0, 0, self._cost_best, self._best))

    # -- driving ------------------------------------------------------------

    def step(self, iterations: int = 1) -> bool:
        """Advance by up to ``iterations`` loop iterations.

        Returns ``True`` while the run can continue, ``False`` once a limit
        (time or iteration) has been reached.  The time limit is re-checked on
        every iteration, exactly like the blocking loop.
        """
        if self._done:
            return False
        config = self._config
        optimizer = self._optimizer
        rng = self._rng
        base = self._elapsed
        # Step-quantum accounting for external schedulers (repro.serve):
        # quanta counts the step() calls that actually ran, and the iteration
        # delta of each is published as ``last_step_iterations``.
        self._quanta += 1
        quantum_start = self._iterations
        resume = time.monotonic()
        try:
            for _ in range(iterations):
                if base + (time.monotonic() - resume) >= config.time_limit:
                    self._done = True
                    break
                if (
                    config.max_iterations is not None
                    and self._iterations >= config.max_iterations
                ):
                    self._done = True
                    break
                self._iterations += 1

                transformation = optimizer._sample_transformation(rng)
                if self._error_current + transformation.epsilon > config.epsilon_budget:
                    self._skipped += 1
                    continue
                if (
                    config.memoize_rewrites
                    and transformation.deterministic
                    and transformation.name in self._nofire
                ):
                    # The transformation is a pure function of the circuit and
                    # already failed to fire on this exact candidate: applying
                    # it again would rescan the circuit and return None.  The
                    # skip draws no rng and mutates no search state, so the
                    # trajectory is bit-identical with the memo on or off.
                    self._nofire_skips += 1
                    continue

                if config.collect_perf:
                    phase = (
                        "rewrite"
                        if isinstance(transformation, RewriteTransformation)
                        else "resynthesis"
                    )
                    apply_started = time.perf_counter()
                    result = transformation.apply(self._current, rng)
                    self._phase_seconds[phase] += time.perf_counter() - apply_started
                    self._phase_calls[phase] += 1
                else:
                    result = transformation.apply(self._current, rng)
                if result is None:
                    if transformation.deterministic:
                        self._nofire.add(transformation.name)
                    continue

                if config.collect_perf:
                    cost_started = time.perf_counter()
                    cost_candidate = optimizer.cost(result.circuit)
                    self._phase_seconds["cost"] += time.perf_counter() - cost_started
                    self._phase_calls["cost"] += 1
                else:
                    cost_candidate = optimizer.cost(result.circuit)
                accept = cost_candidate <= self._cost_current
                if not accept and self._cost_current > 0:
                    probability = math.exp(
                        -config.temperature * cost_candidate / self._cost_current
                    )
                    accept = rng.random() < probability
                if not accept:
                    self._rejected += 1
                    continue

                self._accepted += 1
                self._applications[transformation.name] = (
                    self._applications.get(transformation.name, 0) + 1
                )
                self._current = result.circuit
                self._cost_current = cost_candidate
                self._error_current += result.charged_epsilon
                self._nofire.clear()

                if self._cost_current < self._cost_best:
                    self._best = self._current
                    self._cost_best = self._cost_current
                    self._error_best = self._error_current
                    if config.track_history:
                        self._history.append(
                            _history_point(
                                base + (time.monotonic() - resume),
                                self._iterations,
                                self._cost_best,
                                self._best,
                            )
                        )
        finally:
            self._elapsed = base + (time.monotonic() - resume)
            self._last_step_iterations = self._iterations - quantum_start
        if config.batch_resynthesis:
            self._dispatch_miss_batch()
        return not self._done

    def _dispatch_miss_batch(self) -> None:
        """Turn this quantum's cache misses into one batched dispatch.

        Per attached cache: drain the ``(key, canonical)`` pairs recorded at
        miss time and batch-prefetch their buckets — one IPC round trip that
        pulls sibling workers' fresh entries into L1 instead of a round trip
        per future lookup.  Every failure degrades to doing nothing (the
        scalar paths already resolved this worker's own misses); nothing here
        can drop a miss or perturb the search trajectory.
        """
        for transformation in self._optimizer.transformations:
            cache = getattr(getattr(transformation, "resynthesizer", None), "cache", None)
            if cache is None:
                continue
            missed = cache.drain_missed_items()
            if not missed:
                continue
            if cache.backend.kind != "local":
                cache.prefetch_keys([key for key, _ in missed])
                self._batch_dispatches += 1

    def inject_incumbent(
        self, circuit: Circuit, cost: "float | None" = None, error: float = 0.0
    ) -> bool:
        """Adopt an externally found incumbent as the current candidate.

        Used by portfolio drivers to exchange best states between workers:
        ``error`` must be the incumbent's accumulated approximation error so
        the epsilon-budget accounting (Theorem 4.2) stays sound.  Returns
        ``True`` when the incumbent strictly improved this run's best.
        """
        if cost is None:
            cost = self._optimizer.cost(circuit)
        self._current = circuit
        self._cost_current = cost
        self._error_current = error
        self._nofire.clear()
        if cost < self._cost_best:
            self._best = circuit
            self._cost_best = cost
            self._error_best = error
            if self._config.track_history:
                self._history.append(
                    _history_point(self._elapsed, self._iterations, cost, circuit)
                )
            return True
        return False

    # -- inspection ---------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done

    @property
    def iterations(self) -> int:
        return self._iterations

    @property
    def quanta(self) -> int:
        """How many ``step()`` quanta have run (scheduler accounting)."""
        return self._quanta

    @property
    def last_step_iterations(self) -> int:
        """Iterations consumed by the most recent ``step()`` quantum."""
        return self._last_step_iterations

    @property
    def elapsed(self) -> float:
        """Active search time accumulated so far (pauses excluded)."""
        return self._elapsed

    @property
    def best_circuit(self) -> Circuit:
        return self._best

    @property
    def best_cost(self) -> float:
        return self._cost_best

    @property
    def current_circuit(self) -> Circuit:
        return self._current

    @property
    def current_cost(self) -> float:
        return self._cost_current

    @property
    def error_bound(self) -> float:
        """Accumulated epsilon of the best circuit."""
        return self._error_best

    @property
    def error_current(self) -> float:
        """Accumulated epsilon of the current candidate."""
        return self._error_current

    @property
    def history(self) -> list[SearchHistoryPoint]:
        return list(self._history)

    def state(self) -> GuoqSearchState:
        """Scalar snapshot of the run, cheap enough to ship every round."""
        return GuoqSearchState(
            iteration=self._iterations,
            elapsed=self._elapsed,
            best_cost=self._cost_best,
            current_cost=self._cost_current,
            initial_cost=self._initial_cost,
            error_bound=self._error_best,
            error_current=self._error_current,
            accepted=self._accepted,
            rejected=self._rejected,
            skipped_budget=self._skipped,
            done=self._done,
        )

    def perf_report(self) -> PerfReport:
        """Hot-path instrumentation for the run so far (see :mod:`repro.perf`)."""
        caches = {}
        notes: list[str] = []
        for transformation in self._optimizer.transformations:
            cache = getattr(getattr(transformation, "resynthesizer", None), "cache", None)
            if cache is not None:
                caches[cache.token] = cache.stats()
                for note in getattr(cache, "notes", ()):
                    if note not in notes:
                        notes.append(note)
        return PerfReport(
            iterations=self._iterations,
            elapsed=self._elapsed,
            phase_seconds=dict(self._phase_seconds),
            phase_calls=dict(self._phase_calls),
            rewrite_skips=self._nofire_skips,
            batch_dispatches=self._batch_dispatches,
            caches=list(caches.values()),
            notes=notes,
        )

    def snapshot(self) -> GuoqResult:
        """Anytime result: valid whether or not the run has finished."""
        return GuoqResult(
            best_circuit=self._best,
            best_cost=self._cost_best,
            initial_cost=self._initial_cost,
            error_bound=self._error_best,
            iterations=self._iterations,
            elapsed=self._elapsed,
            accepted=self._accepted,
            rejected=self._rejected,
            skipped_budget=self._skipped,
            history=list(self._history),
            applications_by_transformation=dict(self._applications),
            perf=self.perf_report() if self._config.collect_perf else None,
        )

    result = snapshot


def _history_point(
    elapsed: float, iteration: int, cost: float, circuit: Circuit
) -> SearchHistoryPoint:
    return SearchHistoryPoint(
        elapsed=elapsed,
        iteration=iteration,
        cost=cost,
        two_qubit_count=circuit.two_qubit_count(),
        total_count=circuit.size(),
    )


class GuoqOptimizer:
    """Reusable GUOQ driver bound to a transformation set and cost function."""

    def __init__(
        self,
        transformations: list[Transformation],
        cost: "CostFunction | None" = None,
        config: "GuoqConfig | None" = None,
    ) -> None:
        if not transformations:
            raise ValueError("GUOQ needs at least one transformation")
        self.transformations = list(transformations)
        self.cost = cost if cost is not None else TwoQubitGateCount()
        self.config = config if config is not None else GuoqConfig()
        self._rewrites = [
            t for t in self.transformations if isinstance(t, RewriteTransformation)
        ]
        self._resynths = [
            t for t in self.transformations if not isinstance(t, RewriteTransformation)
        ]

    # -- transformation sampling (Section 5.3, "Weighing fast & slow") -------

    def _sample_transformation(self, rng: np.random.Generator) -> Transformation:
        if self._resynths and (
            not self._rewrites or rng.random() < self.config.resynthesis_probability
        ):
            return self._resynths[int(rng.integers(0, len(self._resynths)))]
        return self._rewrites[int(rng.integers(0, len(self._rewrites)))]

    # -- main loop (Algorithm 1) ---------------------------------------------

    def start(self, circuit: Circuit) -> GuoqRun:
        """Begin a resumable search on ``circuit`` without running it."""
        return GuoqRun(self, circuit)

    def optimize(self, circuit: Circuit) -> GuoqResult:
        """Run the search on ``circuit`` until the time/iteration limit."""
        run = self.start(circuit)
        while run.step(_OPTIMIZE_CHUNK):
            pass
        return run.result()

    @staticmethod
    def _history_point(
        elapsed: float, iteration: int, cost: float, circuit: Circuit
    ) -> SearchHistoryPoint:
        return _history_point(elapsed, iteration, cost, circuit)


def guoq(
    circuit: Circuit,
    transformations: list[Transformation],
    cost: "CostFunction | None" = None,
    config: "GuoqConfig | None" = None,
) -> GuoqResult:
    """Functional entry point matching Algorithm 1's signature."""
    return GuoqOptimizer(transformations, cost=cost, config=config).optimize(circuit)
