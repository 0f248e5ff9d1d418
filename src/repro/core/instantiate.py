"""Instantiating the framework for a gate set, and the high-level API.

:func:`default_transformations` builds the transformation set the paper's
evaluation uses for a given gate set: the QUESO-style rewrite-rule library
plus one resynthesis transformation (numerical templates for parameterized
gate sets, Clifford+T search for the fault-tolerant set).

:func:`optimize_circuit` is the one-call public entry point: pick a gate set,
an objective (or a NISQ/FTQC preset), a time budget, and get back the
optimized circuit together with search statistics.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.guoq import GuoqConfig, GuoqOptimizer, GuoqResult
from repro.core.objectives import (
    CostFunction,
    FTQC_DEFAULT_OBJECTIVE,
    NegativeLogFidelity,
    TwoQubitGateCount,
)
from repro.core.transformations import (
    ResynthesisTransformation,
    Transformation,
    rewrite_transformations,
)
from repro.gatesets.base import GateSet, get_gate_set
from repro.noise.devices import device_for_gate_set
from repro.perf.cache import ResynthesisCache
from repro.perf.shared_cache import BackendSpec, parse_backend_spec
from repro.rewrite.library import rules_for_gate_set
from repro.synthesis.resynth import CliffordTResynthesizer, NumericalResynthesizer


def default_transformations(
    gate_set: "GateSet | str",
    epsilon: float = 1e-6,
    include_rewrites: bool = True,
    include_resynthesis: bool = True,
    synthesis_time_budget: float = 2.0,
    max_block_qubits: int = 3,
    rng: "int | np.random.Generator | None" = None,
    resynthesis_cache: "ResynthesisCache | BackendSpec | bool | str | None" = True,
    cache_size: int = 512,
) -> list[Transformation]:
    """Build the default transformation set for a gate set.

    ``include_rewrites`` / ``include_resynthesis`` exist so the Q2 ablations
    (GUOQ-REWRITE, GUOQ-RESYNTH) can be expressed by simply dropping half of
    the transformation set.

    ``resynthesis_cache`` controls the hot-path memo of resynthesis outcomes
    (:class:`repro.perf.ResynthesisCache`): ``True`` (default) attaches a
    fresh private cache of ``cache_size`` entries, ``False``/``None``
    disables caching, an existing cache instance is attached as-is (e.g. a
    ``shared=True`` cache reused across portfolio workers), and a backend
    spec string (``"local:"``/``"server:"``/``"tcp://host:port"``, see
    :func:`repro.perf.parse_backend_spec`) builds a fresh *shared* cache on
    that backend.  With the spec form the caller still owns the lifecycle:
    the built cache hangs off the resynthesis transformation
    (``transformations[-1].resynthesizer.cache``) and a ``"server:"`` store
    holds a live process until ``cache.close()`` — prefer passing a
    cache instance you construct (or the portfolio's
    ``share_resynthesis_cache``, which closes what it opens) when building
    transformation sets in a loop.
    """
    if isinstance(gate_set, str):
        gate_set = get_gate_set(gate_set)
    transformations: list[Transformation] = []
    if include_rewrites:
        transformations.extend(rewrite_transformations(rules_for_gate_set(gate_set)))
    if include_resynthesis:
        if gate_set.parameterized:
            resynthesizer = NumericalResynthesizer(
                gate_set,
                epsilon=epsilon,
                max_layers=4,
                restarts=1,
                maxiter=100,
                time_budget=synthesis_time_budget,
                max_qubits=max_block_qubits,
                rng=rng,
            )
        else:
            resynthesizer = CliffordTResynthesizer(
                epsilon=epsilon,
                max_qubits=min(max_block_qubits, 2),
                rng=rng,
            )
        if resynthesis_cache is True:
            # ``True`` here means "private cache", not a backend spec — it
            # predates and is orthogonal to the spec grammar, so no warning.
            resynthesis_cache = ResynthesisCache(maxsize=cache_size)
        elif isinstance(resynthesis_cache, (str, BackendSpec)):
            spec = parse_backend_spec(resynthesis_cache, parameter="resynthesis_cache")
            resynthesis_cache = ResynthesisCache(maxsize=cache_size, shared=True, backend=spec)
        # Explicit identity checks: an *empty* cache has len() == 0 and would
        # read as falsy, yet it must still be attached.
        if resynthesis_cache is not None and resynthesis_cache is not False:
            resynthesizer.attach_cache(resynthesis_cache)
        transformations.append(
            ResynthesisTransformation(resynthesizer, max_block_qubits=max_block_qubits)
        )
    if not transformations:
        raise ValueError("at least one of rewrites/resynthesis must be included")
    return transformations


def default_objective(gate_set: "GateSet | str", mode: str = "nisq") -> CostFunction:
    """The evaluation's default objective for a gate set.

    ``mode="nisq"`` maximizes fidelity under the gate set's default device
    model (which is dominated by the two-qubit gate count); ``mode="ftqc"``
    uses the weighted T-then-CX objective of Example 5.1; ``mode="2q"`` is the
    bare two-qubit count.
    """
    if isinstance(gate_set, str):
        gate_set = get_gate_set(gate_set)
    if mode == "nisq":
        return NegativeLogFidelity(device_for_gate_set(gate_set.name))
    if mode == "ftqc":
        return FTQC_DEFAULT_OBJECTIVE
    if mode == "2q":
        return TwoQubitGateCount()
    raise ValueError(f"unknown objective mode {mode!r} (expected 'nisq', 'ftqc', or '2q')")


def optimize_circuit(
    circuit: Circuit,
    gate_set: "GateSet | str",
    objective: "CostFunction | str" = "nisq",
    epsilon_budget: float = 1e-6,
    time_limit: float = 10.0,
    max_iterations: "int | None" = None,
    seed: "int | None" = None,
    include_rewrites: bool = True,
    include_resynthesis: bool = True,
    synthesis_time_budget: float = 2.0,
) -> GuoqResult:
    """Optimize ``circuit`` (already lowered into ``gate_set``) with GUOQ."""
    if isinstance(gate_set, str):
        gate_set = get_gate_set(gate_set)
    if isinstance(objective, str):
        objective = default_objective(gate_set, objective)
    transformations = default_transformations(
        gate_set,
        epsilon=epsilon_budget,
        include_rewrites=include_rewrites,
        include_resynthesis=include_resynthesis,
        synthesis_time_budget=synthesis_time_budget,
        rng=seed,
    )
    config = GuoqConfig(
        epsilon_budget=epsilon_budget,
        time_limit=time_limit,
        max_iterations=max_iterations,
        seed=seed,
    )
    return GuoqOptimizer(transformations, cost=objective, config=config).optimize(circuit)
