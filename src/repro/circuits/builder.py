"""Circuit builder with on-the-fly qubit allocation.

Arithmetic benchmark circuits (adders, the Grover square-root oracle) need
scratch ancillas whose count depends on the operand width.  The plain
:class:`~repro.circuits.circuit.QuantumCircuit` requires the qubit count up
front, so :class:`CircuitBuilder` records gates against symbolically allocated
qubit indices and materialises the final circuit once building is done.
"""

from __future__ import annotations

from typing import List, Sequence

from .circuit import QuantumCircuit
from .gate import Gate


class CircuitBuilder:
    """Accumulates gates while allowing new qubit registers to be allocated."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._num_qubits = 0
        self._gates: List[Gate] = []

    # -- qubit allocation ---------------------------------------------------------

    def allocate(self, count: int, label: str = "") -> List[int]:
        """Allocate ``count`` fresh qubits and return their indices."""
        if count < 0:
            raise ValueError("count must be non-negative")
        start = self._num_qubits
        self._num_qubits += count
        return list(range(start, start + count))

    def allocate_one(self, label: str = "") -> int:
        """Allocate a single fresh qubit."""
        return self.allocate(1, label)[0]

    @property
    def num_qubits(self) -> int:
        """Number of qubits allocated so far."""
        return self._num_qubits

    @property
    def num_gates(self) -> int:
        """Number of gates recorded so far."""
        return len(self._gates)

    # -- gate recording -----------------------------------------------------------

    def gate(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> None:
        """Record a gate."""
        self._gates.append(Gate(name, tuple(qubits), tuple(params)))

    def x(self, q: int) -> None:
        self.gate("x", (q,))

    def h(self, q: int) -> None:
        self.gate("h", (q,))

    def z(self, q: int) -> None:
        self.gate("z", (q,))

    def cx(self, control: int, target: int) -> None:
        self.gate("cx", (control, target))

    def cz(self, a: int, b: int) -> None:
        self.gate("cz", (a, b))

    def ccx(self, c0: int, c1: int, target: int) -> None:
        self.gate("ccx", (c0, c1, target))

    def append_gates(self, gates: Sequence[Gate]) -> None:
        """Record a sequence of pre-built gates."""
        self._gates.extend(gates)

    def checkpoint(self) -> int:
        """Mark the current position in the gate list."""
        return len(self._gates)

    # -- finalisation -------------------------------------------------------------

    def build(self) -> QuantumCircuit:
        """Materialise the recorded gates as a :class:`QuantumCircuit`."""
        if self._num_qubits == 0:
            raise ValueError("no qubits were allocated")
        circuit = QuantumCircuit(self._num_qubits, name=self.name)
        for gate in self._gates:
            circuit.append(gate)
        return circuit


def encode_integer(builder: CircuitBuilder, register: Sequence[int], value: int) -> None:
    """X-encode a classical integer into a register (qubit 0 of the register = LSB)."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >= (1 << len(register)):
        raise ValueError(f"value {value} does not fit in {len(register)} bits")
    for position, qubit in enumerate(register):
        if (value >> position) & 1:
            builder.x(qubit)
