"""End-to-end compilation pipelines built on the pass manager.

The paper's flow (Sec. VI-B) — decompose, place/route, rebase to
{u3, rz, cz}, crosstalk-aware schedule — is one configuration of a
:class:`~repro.compiler.passes.PassManager`; :func:`build_pass_manager`
assembles it at one of three optimization levels:

======  =========================================================
``-O0`` paper-faithful: exactly the four stages, stochastic router
``-O1`` (default) adds inverse-gate cancellation before routing and
        after rebasing
``-O2`` aggressive: deterministic lookahead router plus
        commutation-aware fusion across CZ barriers
======  =========================================================

The ``pipeline`` name picks the router family: ``"default"`` follows the
optimization level (stochastic below ``-O2``, lookahead at ``-O2``), while
``"stochastic"`` and ``"lookahead"`` force one router at every level.

:func:`compile_circuit` remains the one-call facade the rest of the codebase
uses; it now returns a :class:`CompiledCircuit` that also carries the
per-pass metrics trace, so every downstream consumer (runtime sweeps,
fidelity attribution, reports) can see where its gates, SWAPs, and depth
came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import time

import numpy as np

from .. import telemetry
from ..circuits.circuit import QuantumCircuit
from .coupling import CouplingMap, smallest_grid_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (backends -> compiler)
    from ..backends.target import Target
from .layout import Layout
from .lookahead import LookaheadRoute
from .optimization import CancelInverseGates, CommutationAwareFusion
from .passes import (
    BuildInitialLayout,
    DecomposeToTwoQubit,
    PassManager,
    PassRecord,
    PropertySet,
    RebaseToCZ,
    ScheduleCrosstalkAware,
    StochasticRoute,
    ValidateBasis,
    ValidateCoupling,
)
from .scheduling import Schedule

#: Valid optimization levels, lowest to highest.
OPT_LEVELS = (0, 1, 2)

#: Named pipelines (router families).
PIPELINE_NAMES = ("default", "stochastic", "lookahead")

#: Default optimization level of :func:`compile_circuit` and the runtime.
DEFAULT_OPT_LEVEL = 1


@dataclass
class CompiledCircuit:
    """Result of compiling a logical circuit for one target device."""

    source: QuantumCircuit
    physical_circuit: QuantumCircuit
    coupling: CouplingMap
    initial_layout: Layout
    final_layout: Layout
    schedule: Schedule
    num_swaps: int
    opt_level: int = DEFAULT_OPT_LEVEL
    pipeline: str = "default"
    pass_trace: Tuple[PassRecord, ...] = field(default_factory=tuple)
    target: Optional["Target"] = None
    #: Moment profiles of ``schedule`` by SIMD group count, built on first use
    #: by :func:`repro.core.scheduler.compiled_profile`.
    simd_profiles: Dict[int, object] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def depth(self) -> int:
        """Scheduled depth (number of moments)."""
        return self.schedule.depth

    @property
    def num_cz_gates(self) -> int:
        """Number of CZ gates in the compiled circuit."""
        return self.physical_circuit.count("cz")

    @property
    def num_single_qubit_gates(self) -> int:
        """Number of single-qubit gates in the compiled circuit."""
        return self.physical_circuit.num_single_qubit_gates()

    def summary(self) -> dict:
        """Headline statistics, used by examples and EXPERIMENTS.md generation."""
        return {
            "name": self.source.name,
            "logical_qubits": self.source.num_qubits,
            "physical_qubits": self.coupling.num_qubits,
            "source_gates": len(self.source),
            "compiled_gates": len(self.physical_circuit),
            "cz_gates": self.num_cz_gates,
            "single_qubit_gates": self.num_single_qubit_gates,
            "swaps_inserted": self.num_swaps,
            "depth": self.depth,
            "opt_level": self.opt_level,
        }

    def trace_rows(self) -> List[dict]:
        """The per-pass metrics trace as JSON-able rows (may be empty)."""
        return [record.as_dict() for record in self.pass_trace]

    def logical_unitary(self, max_qubits: int = 12) -> np.ndarray:
        """The compiled circuit's action on the *logical* register.

        Simulates the physical circuit on every embedded logical basis state
        (via the initial layout) and reads the outcome back through the final
        layout, returning a ``2**n_logical`` square matrix.  Because routing
        only permutes tensor factors, physical qubits that hold no logical
        qubit stay in ``|0>`` and the extraction is exact.  This is what the
        equivalence tests compare across optimization levels (compilation
        preserves it up to global phase).
        """
        from ..circuits.simulator import simulate

        num_logical = self.source.num_qubits
        num_physical = self.coupling.num_qubits
        if num_physical > max_qubits:
            raise ValueError(
                f"logical_unitary simulates all {num_physical} physical qubits; "
                f"refusing beyond {max_qubits}"
            )
        dim_logical = 2**num_logical

        def embed(basis_index: int, layout: Layout) -> int:
            physical_index = 0
            for logical in range(num_logical):
                if (basis_index >> logical) & 1:
                    physical_index |= 1 << layout.physical(logical)
            return physical_index

        batch = np.zeros((dim_logical, 2**num_physical), dtype=complex)
        for basis_index in range(dim_logical):
            batch[basis_index, embed(basis_index, self.initial_layout)] = 1.0
        evolved = simulate(self.physical_circuit, initial_state=batch)

        unitary = np.empty((dim_logical, dim_logical), dtype=complex)
        for out_index in range(dim_logical):
            unitary[out_index, :] = evolved[:, embed(out_index, self.final_layout)]
        return unitary


def build_pass_manager(
    opt_level: int = DEFAULT_OPT_LEVEL,
    pipeline: str = "default",
    layout_strategy: str = "snake",
    routing_seed: int = 0,
    routing_trials: int = 2,
) -> PassManager:
    """Assemble the pass pipeline for one optimization level.

    Parameters
    ----------
    opt_level:
        0 (paper-faithful), 1 (default, adds cancellation), or 2
        (aggressive: lookahead router + commutation-aware fusion).
    pipeline:
        Router family: ``"default"`` picks by level, ``"stochastic"`` /
        ``"lookahead"`` force one router.
    layout_strategy, routing_seed, routing_trials:
        Initial-placement strategy and stochastic-router parameters
        (``routing_seed``/``routing_trials`` are ignored by the
        deterministic lookahead router).
    """
    if opt_level not in OPT_LEVELS:
        raise ValueError(f"unknown optimization level {opt_level}; valid: {OPT_LEVELS}")
    if pipeline not in PIPELINE_NAMES:
        raise ValueError(f"unknown pipeline '{pipeline}'; valid: {PIPELINE_NAMES}")

    if pipeline == "stochastic" or (pipeline == "default" and opt_level < 2):
        router = StochasticRoute(seed=routing_seed, trials=routing_trials)
    else:
        router = LookaheadRoute()

    passes = [DecomposeToTwoQubit()]
    if opt_level >= 1:
        passes.append(CancelInverseGates())
    passes.append(BuildInitialLayout(strategy=layout_strategy))
    passes.append(router)
    passes.append(RebaseToCZ(fuse=True))
    if opt_level >= 2:
        passes.append(CommutationAwareFusion())
    if opt_level >= 1:
        passes.append(CancelInverseGates())
    passes.append(ValidateBasis())
    passes.append(ValidateCoupling())
    passes.append(ScheduleCrosstalkAware())
    return PassManager(passes)


def compile_circuit(
    circuit: QuantumCircuit,
    coupling: Optional[CouplingMap] = None,
    layout_strategy: str = "snake",
    seed: int = 0,
    routing_trials: int = 2,
    opt_level: int = DEFAULT_OPT_LEVEL,
    pipeline: str = "default",
    routing_seed: Optional[int] = None,
    target: Optional["Target"] = None,
) -> CompiledCircuit:
    """Compile a logical circuit down to its target's scheduled native basis.

    Parameters
    ----------
    circuit:
        The logical circuit (any library gates).
    target:
        The device to compile for (a :class:`~repro.backends.target.Target`,
        usually from a registered :class:`~repro.backends.Backend`).  When
        omitted, one is built around ``coupling`` — or around the smallest
        square grid that fits the circuit, the paper's default.
    coupling:
        Bare device graph, for callers that have no backend; mutually
        exclusive with ``target``.
    layout_strategy:
        Initial placement strategy (``"snake"`` or ``"trivial"``).
    seed, routing_trials:
        Stochastic-router parameters; ``seed`` also seeds benchmark
        generators upstream, so ``routing_seed`` overrides it when the
        router's randomness must be pinned independently.
    opt_level, pipeline:
        Optimization level (0/1/2) and router family (see
        :func:`build_pass_manager`).
    """
    if target is not None and coupling is not None:
        raise ValueError("pass either a target or a bare coupling map, not both")
    if target is None:
        from ..backends.target import Target

        if coupling is None:
            coupling = smallest_grid_for(circuit.num_qubits)
        target = Target(name="ad-hoc", coupling=coupling)

    manager = build_pass_manager(
        opt_level=opt_level,
        pipeline=pipeline,
        layout_strategy=layout_strategy,
        routing_seed=seed if routing_seed is None else routing_seed,
        routing_trials=routing_trials,
    )
    properties = PropertySet({"target": target, "coupling": target.coupling})
    start = time.perf_counter()
    with telemetry.span(
        "compile.circuit",
        circuit=circuit.name or "circuit",
        qubits=circuit.num_qubits,
        opt_level=opt_level,
    ):
        physical, properties, trace = manager.run(circuit, properties)
    telemetry.counter("compile.circuits").inc()
    telemetry.histogram("compile.wall_s").observe(time.perf_counter() - start)

    return CompiledCircuit(
        source=circuit,
        physical_circuit=physical,
        coupling=target.coupling,
        initial_layout=properties["initial_layout"],
        final_layout=properties["final_layout"],
        schedule=properties["schedule"],
        num_swaps=properties["num_swaps"],
        opt_level=opt_level,
        pipeline=pipeline,
        pass_trace=tuple(trace),
        target=target,
    )
