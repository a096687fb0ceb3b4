"""Contracts of the compiler's raw-speed fast paths.

The speed pass (incremental scorer, distance tables, zero-churn plumbing)
kept every public contract intact; these tests pin the contracts so later
micro-optimizations can't silently drop them:

* ``Layout`` still validates through its public constructor, while ``copy``
  (the router's fast path) produces independent, consistent layouts;
* candidate-path caches serve fresh lists — callers mutating a result must
  not corrupt later queries;
* closed-form distance matrices agree with per-source BFS on every topology,
  and every path query walks exactly the matrix's distance;
* ``PassManager`` recognises identity no-ops by object identity and skips
  recomputing boundary metrics;
* circuit plumbing: all-or-nothing ``extend``, no-op ``Gate.remapped``, and
  no-op optimization passes returning the input object.
"""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate, fast_gate
from repro.circuits.library import gate_matrix
from repro.compiler.coupling import (
    GridCouplingMap,
    HeavyHexCouplingMap,
    LineCouplingMap,
    TorusCouplingMap,
)
from repro.compiler.layout import Layout
from repro.compiler.optimization import cancel_inverse_gates, commutation_aware_fusion
from repro.compiler.passes import PassManager, TransformationPass

TOPOLOGIES = {
    "grid": GridCouplingMap(rows=4, cols=5),
    "line": LineCouplingMap(num_sites=11),
    "heavy_hex": HeavyHexCouplingMap(rows=3, cols=5),
    "torus": TorusCouplingMap(rows=4, cols=5),
}


class TestLayoutFastConstructor:
    def test_public_constructor_still_rejects_duplicate_physical(self):
        with pytest.raises(ValueError, match="same physical"):
            Layout({0: 3, 1: 3}, num_physical=8)

    def test_public_constructor_still_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside device"):
            Layout({0: 8}, num_physical=8)
        with pytest.raises(ValueError, match="outside device"):
            Layout({0: -1}, num_physical=8)

    def test_copy_is_independent_and_consistent(self):
        layout = Layout({0: 2, 1: 5, 2: 0}, num_physical=8)
        clone = layout.copy()
        clone.swap_physical(2, 5)
        # The original is untouched...
        assert layout.physical(0) == 2
        assert layout.physical(1) == 5
        # ...and the clone's forward/inverse maps stayed consistent.
        assert clone.physical(0) == 5
        assert clone.physical(1) == 2
        assert clone._p2l.get(5) == 0
        assert clone._p2l.get(2) == 1
        assert clone.num_physical == layout.num_physical


class TestCandidatePathCache:
    def test_cached_paths_are_immutable_tuples(self):
        line = TOPOLOGIES["line"]
        cached = line.cached_candidate_paths(1, 7)
        assert isinstance(cached, tuple)
        assert all(isinstance(path, tuple) for path in cached)
        assert line.cached_candidate_paths(1, 7) is cached  # memoized


class TestDistanceMatrix:
    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_matches_per_source_bfs(self, kind):
        coupling = TOPOLOGIES[kind]
        matrix = coupling.distance_matrix()
        n = coupling.num_qubits
        assert matrix.shape == (n, n)
        for source in range(n):
            bfs = coupling._distances_from(source)
            for target in range(n):
                assert matrix[source, target] == bfs[target], (
                    f"{kind}: distance_matrix[{source},{target}] disagrees with BFS"
                )

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_matrix_is_shared_and_read_only(self, kind):
        coupling = TOPOLOGIES[kind]
        matrix = coupling.distance_matrix()
        assert matrix is coupling.distance_matrix()
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 99

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_distance_query_agrees_with_matrix(self, kind):
        # Every path query walks exactly distance_matrix()[a, b] couplers.
        coupling = TOPOLOGIES[kind]
        matrix = coupling.distance_matrix()
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = (int(q) for q in rng.integers(0, coupling.num_qubits, size=2))
            paths = [coupling.shortest_path(a, b), coupling.random_shortest_path(a, b, rng)]
            paths += coupling.cached_candidate_paths(a, b)
            assert {len(path) - 1 for path in paths} == {matrix[a, b]}


class _DepthCountingCircuit(QuantumCircuit):
    """A circuit that counts how often its depth is recomputed."""

    def __init__(self, num_qubits):
        super().__init__(num_qubits)
        self.depth_calls = 0

    def depth(self):
        self.depth_calls += 1
        return super().depth()


class _IdentityPass(TransformationPass):
    """Declares a no-op by returning the input circuit object."""

    def run(self, circuit, properties):
        return circuit


class TestPassManagerIdentityShortCircuit:
    def test_identity_result_skips_metric_recompute(self):
        circuit = _DepthCountingCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2)
        manager = PassManager([_IdentityPass(), _IdentityPass()])
        out, _, trace = manager.run(circuit)
        assert out is circuit
        # One boundary measurement up front, none per identity pass.
        assert circuit.depth_calls == 1
        for record in trace:
            assert record.gates_before == record.gates_after == 3
            assert record.depth_before == record.depth_after

    def test_real_transformation_still_measured(self):
        class DropAll(TransformationPass):
            def run(self, circuit, properties):
                return QuantumCircuit(circuit.num_qubits, name=circuit.name)

        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        _, _, trace = PassManager([DropAll()]).run(circuit)
        (record,) = trace
        assert record.gates_before == 2
        assert record.gates_after == 0


class TestCircuitPlumbing:
    def test_extend_is_all_or_nothing(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        batch = [Gate("x", (1,)), Gate("cx", (0, 5))]  # second is out of range
        with pytest.raises(ValueError, match="outside circuit"):
            circuit.extend(batch)
        assert len(circuit) == 1  # the valid leading gate did not land

    def test_extend_rejects_invalid_gate_without_partial_append(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(KeyError, match="unknown gate"):
            circuit.extend([Gate("x", (0,)), Gate("nonsense", (1,))])
        assert len(circuit) == 0

    def test_remapped_identity_returns_self(self):
        gate = Gate("cx", (2, 3))
        assert gate.remapped({2: 2, 3: 3}) is gate

    def test_remapped_change_returns_new_gate(self):
        gate = Gate("cx", (2, 3))
        moved = gate.remapped({2: 0, 3: 1})
        assert moved is not gate
        assert moved.qubits == (0, 1)

    def test_fast_gate_matches_validated_gate(self):
        fast = fast_gate("rz", (1,), (0.5,))
        slow = Gate("rz", (1,), (0.5,))
        assert fast == slow
        np.testing.assert_array_equal(gate_matrix(fast), gate_matrix(slow))

    def test_cancel_inverse_noop_returns_input_object(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).add("t", (1,))
        assert cancel_inverse_gates(circuit) is circuit

    def test_cancel_inverse_change_returns_new_circuit(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(0).cx(0, 1)
        out = cancel_inverse_gates(circuit)
        assert out is not circuit
        assert len(out) == 1

    def test_fusion_noop_returns_input_object(self):
        # A bare CZ-basis circuit with nothing to fuse.
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1)
        assert commutation_aware_fusion(circuit) is circuit

    def test_fusion_change_returns_new_circuit(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.3, 0).rz(0.4, 0)
        out = commutation_aware_fusion(circuit)
        assert out is not circuit
        assert len(out) == 1
