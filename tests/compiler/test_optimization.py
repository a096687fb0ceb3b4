"""Tests for the optimization passes: cancellation, fusion, lookahead routing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.simulator import circuit_unitary
from repro.compiler import (
    GridCouplingMap,
    cancel_inverse_gates,
    commutation_aware_fusion,
    lookahead_route_circuit,
    snake_layout,
)
from tests.oracles import are_coupled


def assert_same_unitary(a: QuantumCircuit, b: QuantumCircuit, atol: float = 1e-8):
    """The two circuits implement the same unitary up to global phase."""
    ua, ub = circuit_unitary(a), circuit_unitary(b)
    index = np.unravel_index(np.argmax(np.abs(ua)), ua.shape)
    assert abs(ub[index]) > 1e-12, "unitaries differ in support"
    phase = ub[index] / ua[index]
    assert abs(abs(phase) - 1.0) < atol
    np.testing.assert_allclose(ub, phase * ua, atol=atol)


class TestCancelInverseGates:
    def test_adjacent_self_inverse_pairs_vanish(self):
        circuit = QuantumCircuit(2).h(0).h(0).cx(0, 1).cx(0, 1).x(1).x(1)
        assert len(cancel_inverse_gates(circuit)) == 0

    def test_cascading_cancellation(self):
        circuit = QuantumCircuit(2).add("t", (0,)).cx(0, 1).cx(0, 1).add("tdg", (0,))
        assert len(cancel_inverse_gates(circuit)) == 0

    def test_symmetric_gate_operand_order_ignored(self):
        circuit = QuantumCircuit(2).cz(0, 1).cz(1, 0)
        assert len(cancel_inverse_gates(circuit)) == 0

    def test_cx_operand_order_respected(self):
        circuit = QuantumCircuit(2).cx(0, 1).cx(1, 0)
        assert len(cancel_inverse_gates(circuit)) == 2

    def test_rotation_merging_and_identity_drop(self):
        circuit = QuantumCircuit(1).rz(0.3, 0).rz(0.4, 0)
        merged = cancel_inverse_gates(circuit)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.7)
        circuit = QuantumCircuit(1).rz(0.3, 0).rz(-0.3, 0)
        assert len(cancel_inverse_gates(circuit)) == 0

    def test_rotation_merge_at_two_pi_drops(self):
        circuit = QuantumCircuit(1).rz(math.pi, 0).rz(math.pi, 0)
        assert len(cancel_inverse_gates(circuit)) == 0

    def test_intervening_gate_blocks_cancellation(self):
        circuit = QuantumCircuit(2).h(0).cz(0, 1).h(0)
        assert len(cancel_inverse_gates(circuit)) == 3

    def test_disjoint_gates_do_not_block(self):
        circuit = QuantumCircuit(3).h(0).x(2).h(0)
        result = cancel_inverse_gates(circuit)
        assert [g.name for g in result] == ["x"]

    def test_tdg_t_cancels(self):
        circuit = QuantumCircuit(1).add("tdg", (0,)).add("t", (0,)).add("s", (0,)).add("sdg", (0,))
        assert len(cancel_inverse_gates(circuit)) == 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_preserves_unitary_on_random_circuits(self, seed):
        circuit = _random_circuit(num_qubits=3, num_gates=20, seed=seed)
        assert_same_unitary(circuit, cancel_inverse_gates(circuit))


class TestCommutationAwareFusion:
    def test_rz_slides_through_cz_and_cancels(self):
        circuit = QuantumCircuit(2).rz(0.4, 0).cz(0, 1).rz(-0.4, 0)
        fused = commutation_aware_fusion(circuit)
        assert [g.name for g in fused] == ["cz"]

    def test_z_component_crosses_barrier(self):
        # h . rz: the ZYZ left factor of the pending unitary crosses the CZ
        # and merges with the far-side rz, leaving two 1q gates instead of three.
        circuit = QuantumCircuit(2).h(0).rz(0.3, 0).cz(0, 1).rz(-0.3, 0).h(0)
        fused = commutation_aware_fusion(circuit)
        assert fused.num_single_qubit_gates() < circuit.num_single_qubit_gates()
        assert_same_unitary(circuit, fused)

    def test_never_increases_gate_count(self):
        for seed in range(10):
            circuit = _random_circuit(num_qubits=4, num_gates=30, seed=seed, cz_only=True)
            assert len(commutation_aware_fusion(circuit)) <= len(circuit)

    def test_plain_runs_still_fuse(self):
        circuit = QuantumCircuit(1).h(0).add("t", (0,)).h(0)
        fused = commutation_aware_fusion(circuit)
        assert len(fused) == 1 and fused[0].name == "u3"

    def test_output_stays_in_cz_basis(self):
        circuit = QuantumCircuit(3)
        circuit.add("u3", (0,), (0.1, 0.2, 0.3)).rz(0.4, 1).cz(0, 1).add("u3", (1,), (0.5, 0.6, 0.7)).cz(1, 2)
        fused = commutation_aware_fusion(circuit)
        assert all(g.name in ("u3", "rz", "cz") for g in fused)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_preserves_unitary_on_random_circuits(self, seed):
        circuit = _random_circuit(num_qubits=3, num_gates=25, seed=seed, cz_only=True)
        assert_same_unitary(circuit, commutation_aware_fusion(circuit))


class TestLookaheadRouter:
    def test_routed_circuit_respects_coupling(self):
        grid = GridCouplingMap(3, 3)
        circuit = QuantumCircuit(9)
        circuit.cx(0, 8).cz(1, 7).cx(2, 6)
        layout = snake_layout(circuit, grid)
        result = lookahead_route_circuit(circuit, grid, layout)
        for gate in result.circuit:
            if gate.is_two_qubit:
                assert are_coupled(grid, *gate.qubits)

    def test_deterministic_by_construction(self):
        grid = GridCouplingMap(3, 3)
        circuit = QuantumCircuit(9)
        for a, b in ((0, 8), (3, 5), (1, 6), (2, 7)):
            circuit.cx(a, b)
        first = lookahead_route_circuit(circuit, grid, snake_layout(circuit, grid))
        second = lookahead_route_circuit(circuit, grid, snake_layout(circuit, grid))
        assert first.circuit.gates == second.circuit.gates
        assert first.num_swaps == second.num_swaps

    def test_adjacent_gates_need_no_swaps(self):
        grid = GridCouplingMap(2, 2)
        circuit = QuantumCircuit(4).cz(0, 1).cz(2, 3)
        result = lookahead_route_circuit(circuit, grid, snake_layout(circuit, grid))
        assert result.num_swaps == 0

    def test_repeated_distant_pair_moves_qubits_together(self):
        # After routing the first cx(0, 8), lookahead should leave the pair
        # adjacent so the repeats are free.
        grid = GridCouplingMap(3, 3)
        circuit = QuantumCircuit(9)
        for _ in range(4):
            circuit.cx(0, 8)
        result = lookahead_route_circuit(circuit, grid, snake_layout(circuit, grid))
        minimum = grid.distance_matrix()[
            snake_layout(circuit, grid).physical(0), snake_layout(circuit, grid).physical(8)
        ] - 1
        assert result.num_swaps == minimum

    def test_three_qubit_gates_rejected(self):
        grid = GridCouplingMap(3, 3)
        circuit = QuantumCircuit(9).ccx(0, 1, 2)
        with pytest.raises(ValueError, match="decompose"):
            lookahead_route_circuit(circuit, grid, snake_layout(circuit, grid))

    def test_bad_options_rejected(self):
        grid = GridCouplingMap(2, 2)
        circuit = QuantumCircuit(4).cz(0, 3)
        layout = snake_layout(circuit, grid)
        with pytest.raises(ValueError):
            lookahead_route_circuit(circuit, grid, layout, lookahead=-1)
        with pytest.raises(ValueError):
            lookahead_route_circuit(circuit, grid, layout, decay=0.0)


def _random_circuit(
    num_qubits: int, num_gates: int, seed: int, cz_only: bool = False
) -> QuantumCircuit:
    """A seeded random circuit over 1q rotations and two-qubit gates."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    single = ("h", "t", "tdg", "s", "x") if not cz_only else ("h", "t", "x")
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.35:
            name = single[int(rng.integers(len(single)))]
            circuit.add(name, (int(rng.integers(num_qubits)),))
        elif roll < 0.6:
            which = "rz" if rng.random() < 0.6 else "ry"
            circuit.add(
                which, (int(rng.integers(num_qubits)),), (float(rng.uniform(-np.pi, np.pi)),)
            )
        else:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            if cz_only:
                circuit.cz(a, b)
            else:
                name = ("cx", "cz", "swap")[int(rng.integers(3))]
                circuit.add(name, (a, b))
    return circuit
