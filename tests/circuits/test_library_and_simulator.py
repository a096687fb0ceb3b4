"""Tests for the gate library matrices and the statevector simulator."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.circuits.library import (
    DIGIQ_BASIS,
    KNOWN_GATES,
    gate_matrix,
    gate_spec,
    inverse_gate,
    validate_gate,
)
from repro.circuits.simulator import (
    apply_matrix,
    circuit_unitary,
    dominant_bitstring,
    measure_probabilities,
    sample_counts,
    simulate,
    zero_state,
)
from tests.oracles import basis_state_index, is_unitary


class TestLibrary:
    def test_every_known_gate_has_matrix_and_is_unitary(self):
        for name in sorted(KNOWN_GATES):
            spec = gate_spec(name)
            params = tuple(0.31 * (i + 1) for i in range(spec.num_params))
            gate = Gate(name, tuple(range(spec.num_qubits)), params)
            matrix = gate_matrix(gate)
            assert matrix.shape == (2**spec.num_qubits,) * 2
            assert is_unitary(matrix)

    def test_digiq_basis_subset_of_known(self):
        assert DIGIQ_BASIS <= KNOWN_GATES

    def test_unknown_gate_lookup(self):
        with pytest.raises(KeyError):
            gate_spec("nope")

    def test_inverse_gate_roundtrip(self):
        for name in ("s", "t", "rx", "rz", "u3", "sx", "cp"):
            spec = gate_spec(name)
            params = tuple(0.7 for _ in range(spec.num_params))
            gate = Gate(name, tuple(range(spec.num_qubits)), params)
            inverse = inverse_gate(gate)
            product = gate_matrix(inverse) @ gate_matrix(gate)
            phase = product[0, 0]
            assert np.allclose(product, phase * np.eye(product.shape[0]), atol=1e-9)

    def test_validate_gate_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            validate_gate(Gate("cz", (0,)))


class TestSimulator:
    def test_zero_state(self):
        state = zero_state(3)
        assert state[0] == 1.0 and np.isclose(np.linalg.norm(state), 1.0)

    def test_basis_state_index_little_endian(self):
        assert basis_state_index([1, 0, 0]) == 1
        assert basis_state_index([0, 1, 1]) == 6

    def test_x_flips_qubit_zero(self):
        state = simulate(QuantumCircuit(2).x(0))
        assert np.isclose(abs(state[1]), 1.0)

    def test_bell_state(self):
        state = simulate(QuantumCircuit(2).h(0).cx(0, 1))
        probs = measure_probabilities(state)
        assert np.isclose(probs[0], 0.5) and np.isclose(probs[3], 0.5)

    def test_cz_phase(self):
        state = simulate(QuantumCircuit(2).x(0).x(1).cz(0, 1))
        assert np.isclose(state[3], -1.0)

    def test_ccx_truth_table(self):
        for a in (0, 1):
            for b in (0, 1):
                circuit = QuantumCircuit(3)
                if a:
                    circuit.x(0)
                if b:
                    circuit.x(1)
                circuit.ccx(0, 1, 2)
                result = dominant_bitstring(simulate(circuit))
                target_bit = int(result[0])  # qubit 2 is the leftmost character
                assert target_bit == (a & b)

    def test_swap(self):
        state = simulate(QuantumCircuit(2).x(0).swap(0, 1))
        assert dominant_bitstring(state) == "10"

    def test_circuit_unitary_matches_simulation(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).t(1)
        unitary = circuit_unitary(circuit)
        assert is_unitary(unitary)
        assert np.allclose(unitary[:, 0], simulate(circuit))

    def test_large_circuit_rejected(self):
        with pytest.raises(ValueError):
            simulate(QuantumCircuit(25))

    def test_sample_counts_deterministic_seed(self):
        state = simulate(QuantumCircuit(2).h(0))
        counts_a = sample_counts(state, shots=100, seed=3)
        counts_b = sample_counts(state, shots=100, seed=3)
        assert counts_a == counts_b
        assert sum(counts_a.values()) == 100

    def test_sample_counts_keys_have_register_width(self):
        # Regression: width must come from the state's last axis, not its
        # total size — they only coincide for unbatched input.
        state = simulate(QuantumCircuit(3).h(0).x(2))
        counts = sample_counts(state, shots=50, seed=0)
        assert all(len(key) == 3 for key in counts)

    def test_sample_counts_rejects_batched_states(self):
        batch = np.tile(zero_state(2), (4, 1))
        with pytest.raises(ValueError, match="batched"):
            sample_counts(batch, shots=10, seed=0)

    def test_dominant_bitstring_rejects_batched_states(self):
        batch = np.tile(zero_state(2), (4, 1))
        with pytest.raises(ValueError, match="batched"):
            dominant_bitstring(batch)

    def test_non_power_of_two_state_rejected(self):
        with pytest.raises(ValueError, match="power-of-two"):
            dominant_bitstring(np.full(3, np.sqrt(1 / 3)))

    def test_apply_matrix_skips_zero_entries(self):
        """Zero entries are skipped, not multiplied: an infinite amplitude
        that only zero entries read stays out of the result, and each
        matrix gets its own nonzero pattern, however often it was seen."""
        state = np.array([1.0, np.inf], dtype=complex)
        for _ in range(2):
            keep0 = apply_matrix(state, np.diag([1.0, 0.0]), (0,), 1)
            assert np.array_equal(keep0, [1.0, 0.0])
            lower = np.array([[0.0, 0.0], [2.0, 0.0]])
            assert np.array_equal(apply_matrix(state, lower, (0,), 1), [0.0, 2.0])
        pair = np.array([1.0, 2.0, 3.0, np.inf], dtype=complex)
        swap_low = np.zeros((4, 4))
        swap_low[0, 1] = swap_low[1, 0] = swap_low[2, 2] = 1.0
        out = apply_matrix(pair, swap_low, (0, 1), 2)
        assert np.array_equal(out, [2.0, 1.0, 3.0, 0.0])

    def test_sample_counts_tally_matches_loop_reference(self):
        state = simulate(QuantumCircuit(3).h(0).h(1).cx(1, 2))
        probs = np.abs(state) ** 2
        probs /= probs.sum()
        counts = sample_counts(state, shots=500, seed=11)
        outcomes = np.random.default_rng(11).choice(probs.size, size=500, p=probs)
        reference = {}
        for outcome in outcomes:
            key = format(int(outcome), "03b")
            reference[key] = reference.get(key, 0) + 1
        assert counts == reference

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_single_x_places_excitation(self, num_qubits, target):
        target = target % num_qubits
        state = simulate(QuantumCircuit(num_qubits).x(target))
        assert np.isclose(abs(state[1 << target]), 1.0)

    @given(st.lists(st.sampled_from(["h", "t", "s", "x", "z"]), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved(self, names):
        circuit = QuantumCircuit(2)
        for index, name in enumerate(names):
            circuit.add(name, (index % 2,))
        state = simulate(circuit)
        assert np.isclose(np.linalg.norm(state), 1.0)
