"""Tests for the stochastic SWAP router and the CZ-basis rebase passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.simulator import circuit_unitary
from repro.compiler.basis import (
    count_basis_violations,
    decompose_to_two_qubit_gates,
    fuse_single_qubit_runs,
    rebase_to_cz_basis,
)
from repro.compiler.coupling import GridCouplingMap
from repro.compiler.layout import build_layout, trivial_layout
from repro.compiler.routing import route_circuit
from tests.oracles import are_coupled


def unitaries_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-7) -> bool:
    overlap = abs(np.trace(a.conj().T @ b)) / a.shape[0]
    return bool(np.isclose(overlap, 1.0, atol=atol))


class TestDecomposeToTwoQubit:
    def test_toffoli_expansion_is_equivalent(self):
        circuit = QuantumCircuit(3).ccx(0, 1, 2)
        expanded = decompose_to_two_qubit_gates(circuit)
        assert all(gate.num_qubits <= 2 for gate in expanded)
        assert unitaries_equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(expanded))

    def test_ccz_expansion_is_equivalent(self):
        circuit = QuantumCircuit(3).add("ccz", (0, 1, 2))
        expanded = decompose_to_two_qubit_gates(circuit)
        assert unitaries_equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(expanded))


class TestRebase:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda c: c.cx(0, 1),
            lambda c: c.swap(0, 1),
            lambda c: c.rzz(0.7, 0, 1),
            lambda c: c.cp(1.1, 0, 1),
            lambda c: c.add("iswap", (0, 1)),
        ],
    )
    def test_two_qubit_rules_preserve_unitary(self, builder):
        circuit = QuantumCircuit(2)
        builder(circuit)
        rebased = rebase_to_cz_basis(circuit)
        assert count_basis_violations(rebased) == 0
        assert unitaries_equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(rebased))

    def test_fuse_collapses_single_qubit_runs(self):
        circuit = QuantumCircuit(1).h(0).add("t", (0,)).add("s", (0,)).h(0).rz(0.3, 0)
        fused = fuse_single_qubit_runs(circuit)
        assert len(fused) == 1
        assert unitaries_equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(fused))

    def test_fuse_drops_identity_runs(self):
        circuit = QuantumCircuit(1).h(0).h(0)
        fused = fuse_single_qubit_runs(circuit)
        assert len(fused) == 0

    def test_full_circuit_rebase_equivalence(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).add("t", (1,)).swap(1, 2).rzz(0.4, 0, 2).h(2)
        rebased = rebase_to_cz_basis(circuit)
        assert count_basis_violations(rebased) == 0
        assert unitaries_equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(rebased))

    @given(st.integers(min_value=0, max_value=2**12 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_clifford_t_circuits_rebase_equivalently(self, spec):
        names = ["h", "t", "s", "x", "cx", "cz"]
        circuit = QuantumCircuit(3)
        value = spec
        for _ in range(6):
            name = names[value % len(names)]
            value //= len(names)
            if name in ("cx", "cz"):
                circuit.add(name, ((value % 3), (value + 1) % 3) if (value % 3) != (value + 1) % 3 else (0, 1))
            else:
                circuit.add(name, (value % 3,))
        rebased = rebase_to_cz_basis(circuit)
        assert unitaries_equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(rebased))


class TestRouting:
    def test_adjacent_gates_need_no_swaps(self):
        grid = GridCouplingMap(2, 2)
        circuit = QuantumCircuit(4).cz(0, 1).cz(2, 3)
        result = route_circuit(circuit, grid, trivial_layout(circuit, grid), seed=0)
        assert result.num_swaps == 0

    def test_distant_gate_gets_routed(self):
        grid = GridCouplingMap(3, 3)
        circuit = QuantumCircuit(9).cz(0, 8)
        result = route_circuit(circuit, grid, trivial_layout(circuit, grid), seed=0)
        assert result.num_swaps >= grid.distance_matrix()[0, 8] - 1
        # After routing, every two-qubit gate acts on coupled physical qubits.
        for gate in result.circuit:
            if gate.is_two_qubit and gate.name != "swap":
                assert are_coupled(grid, *gate.qubits)
        for gate in result.circuit:
            if gate.name == "swap":
                assert are_coupled(grid, *gate.qubits)

    def test_routing_preserves_semantics_small(self):
        grid = GridCouplingMap(2, 2)
        circuit = QuantumCircuit(4).h(0).cx(0, 3).add("t", (3,)).cx(1, 2).cz(0, 2)
        layout = trivial_layout(circuit, grid)
        result = route_circuit(circuit, grid, layout, seed=1)
        # Undo the final permutation with explicit swaps, then compare unitaries.
        routed = result.circuit.copy()
        final = {q: result.final_layout.physical(q) for q in range(circuit.num_qubits)}
        # Build permutation: logical i currently at physical final[i]; move back to i.
        perm = dict(final)
        for logical in sorted(perm):
            current = perm[logical]
            if current != logical:
                routed.swap(current, logical)
                for other, position in perm.items():
                    if position == logical:
                        perm[other] = current
                        break
                perm[logical] = logical
        assert unitaries_equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(routed))

    def test_three_qubit_gates_rejected(self):
        grid = GridCouplingMap(2, 2)
        circuit = QuantumCircuit(4).ccx(0, 1, 2)
        with pytest.raises(ValueError):
            route_circuit(circuit, grid, trivial_layout(circuit, grid))

    def test_more_trials_never_hurt(self):
        grid = GridCouplingMap(4, 4)
        circuit = QuantumCircuit(16)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.choice(16, size=2, replace=False)
            circuit.cz(int(a), int(b))
        layout = build_layout(circuit, grid, "snake")
        single = route_circuit(circuit, grid, layout.copy(), seed=3, trials=1)
        multi = route_circuit(circuit, grid, layout.copy(), seed=3, trials=6)
        assert multi.num_swaps <= single.num_swaps
