"""Quantum circuit container.

:class:`QuantumCircuit` is a flat, ordered list of :class:`~repro.circuits.gate.Gate`
objects over a fixed number of qubits, with builder methods for the library
gates the benchmarks use and a handful of analysis helpers (gate counts,
depth) used by the compiler and the DigiQ scheduler.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gate import Gate
from .library import validate_gate


def circuit_fingerprint(circuit: "QuantumCircuit") -> str:
    """Stable SHA-256 fingerprint of a circuit's exact gate stream.

    Parameters are formatted to 13 significant figures (with ``-0.0``
    normalised to ``0.0``) so the fingerprint is stable against float
    formatting artefacts while still distinguishing any two physically
    different circuits.  The circuit's *name* is deliberately excluded:
    fingerprints are content addresses, and two identical circuits built
    under different labels must collide.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{circuit.num_qubits}\n".encode())
    for gate in circuit:
        params = ",".join(f"{p + 0.0:.12e}" for p in gate.params)
        hasher.update(f"{gate.name}:{gate.qubits}:{params}\n".encode())
    return hasher.hexdigest()


class QuantumCircuit:
    """An ordered sequence of gates acting on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, name: Optional[str] = None):
        if num_qubits < 1:
            raise ValueError(f"a circuit needs at least one qubit, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name or "circuit"
        self._gates: List[Gate] = []

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index) -> Gate:
        return self._gates[index]

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """The gates as an immutable tuple."""
        return tuple(self._gates)

    # -- building -----------------------------------------------------------------

    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append a validated gate; returns self for chaining."""
        validate_gate(gate)
        for qubit in gate.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"gate {gate} addresses qubit {qubit} outside circuit of "
                    f"{self.num_qubits} qubits"
                )
        self._gates.append(gate)
        return self

    def _append_fast(self, gate: Gate) -> None:
        """Append without validation (compiler hot paths).

        The caller guarantees the gate is library-valid and inside the
        circuit's qubit range — e.g. it was lifted from an already-validated
        circuit, or built from a layout that maps into this register.
        """
        self._gates.append(gate)

    def add(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> "QuantumCircuit":
        """Append a gate by name."""
        return self.append(Gate(name, tuple(qubits), tuple(params)))

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        """Append many gates in one bulk operation.

        Every gate is validated up front, then the whole batch lands with a
        single list extend — no gate is appended unless all of them pass, so
        a failed extend leaves the circuit untouched.
        """
        batch = list(gates)
        num_qubits = self.num_qubits
        for gate in batch:
            validate_gate(gate)
            for qubit in gate.qubits:
                if not 0 <= qubit < num_qubits:
                    raise ValueError(
                        f"gate {gate} addresses qubit {qubit} outside circuit of "
                        f"{num_qubits} qubits"
                    )
        self._gates.extend(batch)
        return self

    # Named builders (the ones used by benchmarks and the compiler).

    def x(self, q: int) -> "QuantumCircuit":
        return self.add("x", (q,))

    def z(self, q: int) -> "QuantumCircuit":
        return self.add("z", (q,))

    def h(self, q: int) -> "QuantumCircuit":
        return self.add("h", (q,))

    def rx(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("rx", (q,), (theta,))

    def ry(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("ry", (q,), (theta,))

    def rz(self, phi: float, q: int) -> "QuantumCircuit":
        return self.add("rz", (q,), (phi,))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.add("cx", (control, target))

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        return self.add("cz", (a, b))

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.add("swap", (a, b))

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add("rzz", (a, b), (theta,))

    def cp(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add("cp", (a, b), (theta,))

    def ccx(self, c0: int, c1: int, target: int) -> "QuantumCircuit":
        return self.add("ccx", (c0, c1, target))

    # -- transformations ----------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """A shallow copy (gates are immutable so this is effectively deep)."""
        other = QuantumCircuit(self.num_qubits, name or self.name)
        other._gates = list(self._gates)
        return other

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Append another circuit (must have the same qubit count)."""
        if other.num_qubits != self.num_qubits:
            raise ValueError(
                f"cannot compose circuits of {self.num_qubits} and {other.num_qubits} qubits"
            )
        return self.extend(other.gates)

    def remapped(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """A copy with every gate's qubits remapped through ``mapping``."""
        target_size = num_qubits if num_qubits is not None else self.num_qubits
        other = QuantumCircuit(target_size, self.name)
        for gate in self._gates:
            other.append(gate.remapped(mapping))
        return other

    # -- serialization ------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form: name, width, and the exact gate stream.

        The gate list preserves application order, so
        :meth:`from_dict` round-trips any circuit bit-for-bit — this is what
        lets user-submitted circuits cross the runtime's worker-process
        boundary and participate in content-addressed job keys.
        """
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "gates": [
                [gate.name, list(gate.qubits), list(gate.params)] for gate in self._gates
            ],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "QuantumCircuit":
        """Inverse of :meth:`as_dict`."""
        circuit = QuantumCircuit(int(data["num_qubits"]), name=data.get("name"))
        for name, qubits, params in data["gates"]:
            circuit.add(name, tuple(qubits), tuple(params))
        return circuit

    # -- analysis -----------------------------------------------------------------

    def count(self, name: str) -> int:
        """Number of gates with the given name."""
        name = name.lower()
        return sum(1 for gate in self._gates if gate.name == name)

    def num_single_qubit_gates(self) -> int:
        """Number of one-qubit gates."""
        return sum(1 for gate in self._gates if len(gate.qubits) == 1)

    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates."""
        return sum(1 for gate in self._gates if len(gate.qubits) == 2)

    def depth(self) -> int:
        """Circuit depth (length of the longest qubit-dependency chain)."""
        frontier = [0] * self.num_qubits
        for gate in self._gates:
            qubits = gate.qubits
            if len(qubits) == 1:
                q = qubits[0]
                frontier[q] += 1
            else:
                level = max(frontier[q] for q in qubits) + 1
                for q in qubits:
                    frontier[q] = level
        return max(frontier) if frontier else 0

    def two_qubit_pairs(self) -> Counter:
        """Histogram of (sorted) qubit pairs touched by two-qubit gates."""
        pairs = Counter()
        for gate in self._gates:
            if gate.is_two_qubit:
                pairs[tuple(sorted(gate.qubits))] += 1
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self._gates)}, depth={self.depth()})"
        )
