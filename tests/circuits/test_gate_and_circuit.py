"""Unit and property tests for the circuit IR (Gate, QuantumCircuit)."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.circuits.library import inverse_gate
from repro.circuits.simulator import circuit_unitary


class TestGate:
    def test_normalisation(self):
        gate = Gate("CZ", (1, 0))
        assert gate.name == "cz"
        assert gate.qubits == (1, 0)
        assert gate.is_two_qubit

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("cz", (1, 1))

    def test_empty_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("x", ())

    def test_remapped(self):
        gate = Gate("cx", (0, 1)).remapped({0: 5, 1: 7})
        assert gate.qubits == (5, 7)


class TestCircuitBuilding:
    def test_named_builders_chain(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).rz(0.5, 2).ccx(0, 1, 2)
        assert len(circuit) == 4
        assert circuit.count("cx") == 1

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).x(2)

    def test_unknown_gate_rejected(self):
        with pytest.raises(KeyError):
            QuantumCircuit(2).add("warp", (0,))

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(1).add("rz", (0,))

    def test_compose_requires_same_width(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).compose(QuantumCircuit(3))

    def test_copy_is_independent(self):
        circuit = QuantumCircuit(2).h(0)
        clone = circuit.copy()
        clone.x(1)
        assert len(circuit) == 1
        assert len(clone) == 2


class TestCircuitAnalysis:
    def test_depth_of_parallel_layer(self):
        circuit = QuantumCircuit(4)
        for q in range(4):
            circuit.h(q)
        assert circuit.depth() == 1

    def test_depth_of_chain(self):
        circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2).cx(0, 1)
        assert circuit.depth() == 3

    def test_two_qubit_pairs(self):
        circuit = QuantumCircuit(5).cx(0, 3).cz(3, 0)
        assert circuit.two_qubit_pairs()[(0, 3)] == 2

    def test_counts(self):
        circuit = QuantumCircuit(2).h(0).h(1).cz(0, 1)
        assert circuit.num_single_qubit_gates() == 2
        assert circuit.num_two_qubit_gates() == 1
        assert circuit.count("h") == 2


def _inverse(circuit):
    """``circuit`` undone: its gates reversed, each replaced by its library inverse."""
    return QuantumCircuit(circuit.num_qubits).extend(map(inverse_gate, reversed(circuit.gates)))


class TestInverse:
    def test_inverse_composes_to_identity(self):
        circuit = QuantumCircuit(2).h(0).add("t", (1,)).cx(0, 1).rz(0.3, 0).add("s", (1,))
        identity = circuit.copy().compose(_inverse(circuit))
        unitary = circuit_unitary(identity)
        phase = unitary[0, 0]
        assert np.allclose(unitary, phase * np.eye(4), atol=1e-9)

    @given(
        st.lists(
            st.sampled_from(["h", "x", "s", "t", "sdg", "tdg", "z", "y"]),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_inverse_property_single_qubit(self, names):
        circuit = QuantumCircuit(1)
        for name in names:
            circuit.add(name, (0,))
        unitary = circuit_unitary(circuit.copy().compose(_inverse(circuit)))
        assert np.isclose(abs(unitary[0, 0]), 1.0, atol=1e-9)
        assert np.isclose(abs(unitary[0, 1]), 0.0, atol=1e-9)

    def test_remapped_circuit(self):
        circuit = QuantumCircuit(2).cx(0, 1)
        wider = circuit.remapped({0: 2, 1: 0}, num_qubits=3)
        assert wider.gates[0].qubits == (2, 0)
