"""Pass-manager substrate: the compiler as a sequence of composable passes.

The monolithic ``compile_circuit`` flow is rebuilt here as a
:class:`PassManager` running :class:`Pass` objects over a shared
:class:`PropertySet`.  Two pass kinds exist:

* :class:`AnalysisPass` — reads the circuit, writes facts into the property
  set (layouts, schedules, validation results), never changes the circuit;
* :class:`TransformationPass` — returns a new circuit (decomposition,
  routing, rebasing, optimization).

Every pass execution is recorded as a :class:`PassRecord` carrying wall time
and before/after circuit metrics, so a compilation explains where its gates,
SWAPs, and depth came from.  The records travel on
:class:`~repro.compiler.pipeline.CompiledCircuit` and all the way into the
runtime's stored results.

Well-known property names used by the built-in passes:

======================  =====================================================
``target``              the :class:`~repro.backends.target.Target` being
                        compiled for (preferred; carries coupling and basis)
``coupling``            the device :class:`~repro.compiler.coupling.CouplingMap`
                        (kept for hand-built pipelines without a target)
``layout``              initial :class:`~repro.compiler.layout.Layout` (pre-routing)
``initial_layout``      layout snapshot the router started from
``final_layout``        layout after routing
``num_swaps``           SWAPs inserted by the router
``schedule``            the :class:`~repro.compiler.scheduling.Schedule`
``basis_violations``    gate count outside the target basis (must be 0)
``coupling_violations`` two-qubit gates on uncoupled pairs (must be 0)
======================  =====================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..circuits.circuit import QuantumCircuit
from .basis import count_basis_violations, decompose_to_two_qubit_gates, rebase_to_cz_basis
from .coupling import CouplingMap
from .layout import build_layout
from .routing import route_circuit
from .scheduling import crosstalk_aware_schedule


class PropertySet(dict):
    """Shared blackboard the passes of one compilation read and write.

    A plain dict with a ``require`` helper that turns a missing prerequisite
    into a clear error naming the pass that needed it.
    """

    def require(self, name: str, needed_by: str) -> object:
        if name not in self:
            raise KeyError(
                f"pass '{needed_by}' requires property '{name}' which no earlier "
                "pass produced; check the pipeline order"
            )
        return self[name]

    def device_coupling(self, needed_by: str) -> CouplingMap:
        """The device graph being compiled for.

        Prefers the ``target`` property (the backend-layer device
        description); falls back to a bare ``coupling`` so hand-built
        pipelines and tests can keep supplying the map directly.
        """
        target = self.get("target")
        if target is not None:
            return target.coupling
        return self.require("coupling", needed_by)


@dataclass(frozen=True)
class PassRecord:
    """Metrics of one executed pass (one row of the compile trace)."""

    name: str
    kind: str
    wall_time_s: float
    gates_before: int
    gates_after: int
    two_qubit_before: int
    two_qubit_after: int
    depth_before: int
    depth_after: int

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form, stored with runtime results (schema v3)."""
        return {
            "pass": self.name,
            "kind": self.kind,
            "wall_time_s": round(self.wall_time_s, 6),
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "two_qubit_before": self.two_qubit_before,
            "two_qubit_after": self.two_qubit_after,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
        }


class Pass:
    """Base class of all compiler passes.

    Subclasses implement :meth:`run`; :attr:`kind` distinguishes analysis
    from transformation passes.  The pass name defaults to the class name and
    is what shows up in traces and per-pass metrics tables.
    """

    kind = "pass"

    @property
    def name(self) -> str:
        return type(self).__name__

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> Optional[QuantumCircuit]:
        raise NotImplementedError


class AnalysisPass(Pass):
    """A pass that inspects the circuit and writes properties; returns None."""

    kind = "analysis"


class TransformationPass(Pass):
    """A pass that rewrites the circuit; returns the new circuit."""

    kind = "transformation"


class PassManager:
    """Runs an ordered list of passes, recording a per-pass metrics trace."""

    def __init__(self, passes: Optional[List[Pass]] = None):
        self._passes: List[Pass] = list(passes or [])

    @property
    def passes(self) -> Tuple[Pass, ...]:
        return tuple(self._passes)

    def append(self, pass_: Pass) -> "PassManager":
        self._passes.append(pass_)
        return self

    def run(
        self,
        circuit: QuantumCircuit,
        properties: Optional[PropertySet] = None,
    ) -> Tuple[QuantumCircuit, PropertySet, List[PassRecord]]:
        """Run every pass in order; returns (circuit, properties, trace)."""
        properties = properties if properties is not None else PropertySet()
        trace: List[PassRecord] = []
        # Metrics of the current circuit; each pass's "before" is the previous
        # pass's "after", so every boundary is measured exactly once.
        gates = len(circuit)
        two_qubit = circuit.num_two_qubit_gates()
        depth = circuit.depth()
        for pass_ in self._passes:
            start = time.perf_counter()
            with telemetry.span(f"compile.pass.{pass_.name}", kind=pass_.kind):
                result = pass_.run(circuit, properties)
            elapsed = time.perf_counter() - start
            if result is not None:
                if pass_.kind == "analysis":
                    raise TypeError(f"analysis pass '{pass_.name}' must not return a circuit")
                if result is circuit:
                    # The pass declared a no-op by returning the input object
                    # (e.g. cancel_inverse_gates with nothing to cancel); the
                    # boundary metrics are unchanged by definition.
                    gates_after, two_qubit_after, depth_after = gates, two_qubit, depth
                else:
                    circuit = result
                    gates_after = len(circuit)
                    two_qubit_after = circuit.num_two_qubit_gates()
                    depth_after = circuit.depth()
            else:
                gates_after, two_qubit_after, depth_after = gates, two_qubit, depth
            trace.append(
                PassRecord(
                    name=pass_.name,
                    kind=pass_.kind,
                    wall_time_s=elapsed,
                    gates_before=gates,
                    gates_after=gates_after,
                    two_qubit_before=two_qubit,
                    two_qubit_after=two_qubit_after,
                    depth_before=depth,
                    depth_after=depth_after,
                )
            )
            gates, two_qubit, depth = gates_after, two_qubit_after, depth_after
        return circuit, properties, trace


# ---------------------------------------------------------------------------
# The four paper stages (Sec. VI-B), extracted as passes.
# ---------------------------------------------------------------------------


class DecomposeToTwoQubit(TransformationPass):
    """Expand three-qubit gates so the router only sees 1- and 2-qubit gates."""

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        return decompose_to_two_qubit_gates(circuit)


class BuildInitialLayout(AnalysisPass):
    """Place logical qubits on the device grid (``layout`` property)."""

    def __init__(self, strategy: str = "snake"):
        self.strategy = strategy

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> None:
        coupling = properties.device_coupling(self.name)
        properties["layout"] = build_layout(circuit, coupling, strategy=self.strategy)


class StochasticRoute(TransformationPass):
    """SWAP insertion along randomised shortest paths, best of ``trials``."""

    def __init__(self, seed: int = 0, trials: int = 2):
        self.seed = seed
        self.trials = trials

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        coupling = properties.device_coupling(self.name)
        layout = properties.require("layout", self.name)
        result = route_circuit(circuit, coupling, layout, seed=self.seed, trials=self.trials)
        properties["initial_layout"] = result.initial_layout
        properties["final_layout"] = result.final_layout
        properties["num_swaps"] = result.num_swaps
        return result.circuit


class RebaseToCZ(TransformationPass):
    """Rewrite into the DigiQ {u3, rz, cz} basis, fusing 1q runs."""

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        return rebase_to_cz_basis(circuit)


class ValidateBasis(AnalysisPass):
    """Assert every gate is inside the target basis (post-rebase invariant).

    With no explicit ``basis`` the pass validates against the ``target``
    property's basis gates (falling back to the DigiQ default); an explicit
    ``basis`` always wins, so hand-built pipelines can check a stricter set.
    """

    def __init__(self, basis: Optional[Tuple[str, ...]] = None):
        self.basis = None if basis is None else tuple(basis)

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> None:
        basis = self.basis
        if basis is None:
            target = properties.get("target")
            basis = tuple(target.basis_gates) if target is not None else ("u3", "rz", "cz")
        violations = count_basis_violations(circuit, basis=basis)
        properties["basis_violations"] = violations
        if violations:
            raise RuntimeError(
                f"internal error: {violations} gates remain outside the "
                f"{{{', '.join(basis)}}} basis"
            )


class ValidateCoupling(AnalysisPass):
    """Assert every two-qubit gate sits on a device coupler (post-routing)."""

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> None:
        coupling = properties.device_coupling(self.name)
        adjacency = coupling._adjacency
        violations = sum(
            1
            for gate in circuit
            if len(gate.qubits) == 2 and gate.qubits[1] not in adjacency[gate.qubits[0]]
        )
        properties["coupling_violations"] = violations
        if violations:
            raise RuntimeError(
                f"internal error: {violations} two-qubit gates address uncoupled pairs"
            )


class ScheduleCrosstalkAware(AnalysisPass):
    """Group gates into moments under the adjacent-coupler CZ constraint."""

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> None:
        coupling = properties.device_coupling(self.name)
        properties["schedule"] = crosstalk_aware_schedule(circuit, coupling)
