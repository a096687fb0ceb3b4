"""Crosstalk-aware scheduling of CZ-basis circuits.

After routing and rebasing, the compiler groups gates into *moments*: sets of
gates that execute simultaneously.  Plain ASAP layering already guarantees
that no two gates in a moment share a qubit; the crosstalk-aware pass of the
paper [Murali et al., ASPLOS 2020] additionally forbids two CZ gates on
*adjacent couplers* (couplers that share a qubit or whose qubits are direct
neighbours on the device) from firing together, since their always-on
interactions interfere.  When a conflict arises, the offending CZ is deferred
to a later moment.

The output :class:`Schedule` is what the DigiQ SIMD scheduler and the
execution-time model consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.gate import Gate
from .coupling import CouplingMap


@dataclass
class Moment:
    """One scheduling step: gates that execute simultaneously."""

    gates: List[Gate] = field(default_factory=list)

    @property
    def single_qubit_gates(self) -> List[Gate]:
        return [g for g in self.gates if g.is_single_qubit]

    @property
    def two_qubit_gates(self) -> List[Gate]:
        return [g for g in self.gates if g.is_two_qubit]

    def qubits(self) -> Set[int]:
        """All qubits touched in this moment."""
        result: Set[int] = set()
        for gate in self.gates:
            result.update(gate.qubits)
        return result


@dataclass
class Schedule:
    """A sequence of moments covering every gate of a circuit."""

    moments: List[Moment]
    num_qubits: int

    @property
    def depth(self) -> int:
        """Number of moments."""
        return len(self.moments)

    def gate_count(self) -> int:
        """Total number of scheduled gates."""
        return sum(len(moment.gates) for moment in self.moments)

    def max_parallel_two_qubit(self) -> int:
        """Largest number of simultaneous two-qubit gates in any moment."""
        if not self.moments:
            return 0
        return max(len(m.two_qubit_gates) for m in self.moments)

    def max_parallel_single_qubit(self) -> int:
        """Largest number of simultaneous single-qubit gates in any moment."""
        if not self.moments:
            return 0
        return max(len(m.single_qubit_gates) for m in self.moments)

    def summary(self) -> dict:
        """Headline schedule metrics (used by the per-pass compile trace)."""
        return {
            "depth": self.depth,
            "gates": self.gate_count(),
            "max_parallel_two_qubit": self.max_parallel_two_qubit(),
            "max_parallel_single_qubit": self.max_parallel_single_qubit(),
        }


def crosstalk_aware_schedule(
    circuit: QuantumCircuit,
    coupling: Optional[CouplingMap] = None,
) -> Schedule:
    """Schedule a circuit with the crosstalk constraint on simultaneous CZs.

    Each gate is placed in the earliest moment that satisfies:

    * every earlier gate on the same qubits has already been scheduled
      (dependency order);
    * no other gate in the moment shares a qubit with it;
    * if the gate is a two-qubit gate and ``coupling`` is given, no other
      two-qubit gate in the moment sits on an adjacent coupler.
    """
    moments: List[Moment] = []
    moment_qubits: List[Set[int]] = []
    # Per-moment closure of crosstalk-blocked qubits: a two-qubit gate on
    # (u, v) blocks u, v, and every direct neighbour of either, so a later
    # two-qubit gate conflicts iff one of its endpoints lands in the
    # closure — the same answer as checking every pair of the moment's
    # couplers for a shared or directly coupled endpoint, without the scan.
    moment_blocked: List[Set[int]] = []
    frontier = [0] * circuit.num_qubits
    adjacency = coupling._adjacency if coupling is not None else None
    closure_cache: Dict[Tuple[int, int], Set[int]] = {}

    def closure(coupler: Tuple[int, int]) -> Set[int]:
        hit = closure_cache.get(coupler)
        if hit is None:
            u, v = coupler
            hit = {u, v}
            hit.update(adjacency[u])
            hit.update(adjacency[v])
            closure_cache[coupler] = hit
        return hit

    for gate in circuit:
        qubits = gate.qubits
        if len(qubits) == 1:
            index = frontier[qubits[0]]
            check_crosstalk = False
        else:
            index = max(frontier[q] for q in qubits)
            check_crosstalk = adjacency is not None and len(qubits) == 2
        while True:
            while len(moments) <= index:
                moments.append(Moment())
                moment_qubits.append(set())
                moment_blocked.append(set())
            used = moment_qubits[index]
            if not any(q in used for q in qubits):
                if not check_crosstalk:
                    break
                blocked = moment_blocked[index]
                if qubits[0] not in blocked and qubits[1] not in blocked:
                    break
            index += 1
        moments[index].gates.append(gate)
        moment_qubits[index].update(qubits)
        if check_crosstalk:
            moment_blocked[index].update(closure(tuple(sorted(qubits))))
        for q in qubits:
            frontier[q] = index + 1
    return Schedule(moments=moments, num_qubits=circuit.num_qubits)
