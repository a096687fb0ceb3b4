"""Property-based tests of the statevector simulator core.

Random circuits check the simulator's algebraic contracts: agreement with the
full circuit unitary, unitarity of that unitary, operand-permutation
invariance of ``apply_gate``, and exact equivalence of the batched and
per-state paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.circuits.simulator import (
    apply_gate,
    apply_matrix,
    circuit_unitary,
    simulate,
    zero_state,
)
from tests.oracles import basis_state_index

#: Gate names by arity, with their parameter counts (subset of the library
#: that covers parameter-free, parameterised, symmetric and asymmetric gates).
ONE_QUBIT = [("h", 0), ("x", 0), ("y", 0), ("s", 0), ("t", 0), ("sx", 0),
             ("rx", 1), ("ry", 1), ("rz", 1), ("p", 1), ("u3", 3)]
TWO_QUBIT = [("cx", 0), ("cz", 0), ("swap", 0), ("iswap", 0), ("rzz", 1), ("cp", 1)]
THREE_QUBIT = [("ccx", 0), ("ccz", 0)]

#: Two-qubit gates invariant under operand exchange.
SYMMETRIC_TWO_QUBIT = ["cz", "swap", "rzz", "cp"]

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi,
                   allow_nan=False, allow_infinity=False)


@st.composite
def random_circuits(draw, min_qubits=1, max_qubits=5, max_gates=12):
    num_qubits = draw(st.integers(min_qubits, max_qubits))
    circuit = QuantumCircuit(num_qubits)
    pools = [ONE_QUBIT]
    if num_qubits >= 2:
        pools.append(TWO_QUBIT)
    if num_qubits >= 3:
        pools.append(THREE_QUBIT)
    for _ in range(draw(st.integers(1, max_gates))):
        name, num_params = draw(st.sampled_from([g for pool in pools for g in pool]))
        arity = 1 if (name, num_params) in ONE_QUBIT else (
            2 if (name, num_params) in TWO_QUBIT else 3
        )
        qubits = draw(
            st.lists(
                st.integers(0, num_qubits - 1), min_size=arity, max_size=arity,
                unique=True,
            )
        )
        params = tuple(draw(angles) for _ in range(num_params))
        circuit.append(Gate(name, tuple(qubits), params))
    return circuit


@settings(max_examples=30, deadline=None)
@given(random_circuits())
def test_simulate_agrees_with_circuit_unitary(circuit):
    """simulate(c) must equal circuit_unitary(c) @ |0...0>."""
    state = simulate(circuit)
    expected = circuit_unitary(circuit) @ zero_state(circuit.num_qubits)
    assert np.allclose(state, expected, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(random_circuits())
def test_circuit_unitary_is_unitary(circuit):
    unitary = circuit_unitary(circuit)
    dim = 2**circuit.num_qubits
    assert np.allclose(unitary.conj().T @ unitary, np.eye(dim), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(random_circuits())
def test_simulate_preserves_norm(circuit):
    assert abs(np.linalg.norm(simulate(circuit)) - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(SYMMETRIC_TWO_QUBIT),
    st.integers(2, 5),
    st.data(),
)
def test_apply_gate_invariant_under_operand_permutation(name, num_qubits, data):
    """Exchange-symmetric gates give identical states for either operand order."""
    qubits = data.draw(
        st.lists(st.integers(0, num_qubits - 1), min_size=2, max_size=2, unique=True)
    )
    params = (data.draw(angles),) if name in ("rzz", "cp") else ()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    state /= np.linalg.norm(state)
    forward = apply_gate(state, Gate(name, tuple(qubits), params), num_qubits)
    backward = apply_gate(state, Gate(name, tuple(reversed(qubits)), params), num_qubits)
    assert np.allclose(forward, backward, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(random_circuits(min_qubits=2, max_qubits=4), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_batched_apply_matches_per_state_apply(circuit, batch, seed):
    """A (B, 2**n) batch must evolve exactly like B independent statevectors."""
    rng = np.random.default_rng(seed)
    dim = 2**circuit.num_qubits
    states = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    batched = simulate(circuit, initial_state=states)
    singles = np.stack([simulate(circuit, initial_state=states[i]) for i in range(batch)])
    assert np.allclose(batched, singles, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8))
def test_basis_state_index_round_trips(num_qubits):
    for index in (0, 2**num_qubits - 1, 2 ** (num_qubits - 1)):
        bits = [(index >> q) & 1 for q in range(num_qubits)]
        assert basis_state_index(bits, num_qubits=num_qubits) == index


class TestValidation:
    def test_basis_state_index_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="3 bits for a register of 4 qubits"):
            basis_state_index([1, 0, 1], num_qubits=4)

    def test_basis_state_index_rejects_non_bits(self):
        with pytest.raises(ValueError, match="bits must be 0/1"):
            basis_state_index([0, 2])

    def test_basis_state_index_without_width_still_works(self):
        assert basis_state_index([1, 1]) == 3

    def test_zero_state_and_simulate_agree_on_empty_register_message(self):
        with pytest.raises(ValueError, match="a circuit needs at least one qubit, got 0"):
            zero_state(0)
        with pytest.raises(ValueError, match="a circuit needs at least one qubit, got 0"):
            QuantumCircuit(0)

    def test_simulate_rejects_wrong_initial_dimension(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        with pytest.raises(ValueError, match="expected"):
            simulate(circuit, initial_state=np.ones(3, dtype=complex))

    def test_apply_matrix_rejects_mismatched_matrix(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_matrix(zero_state(2), np.eye(2), (0, 1), 2)

    def test_gateless_circuit_simulates_to_initial_state(self):
        circuit = QuantumCircuit(2)
        assert np.allclose(simulate(circuit), zero_state(2))
        assert np.allclose(circuit_unitary(circuit), np.eye(4))
