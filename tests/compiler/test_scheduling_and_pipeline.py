"""Tests for crosstalk-aware scheduling and the end-to-end compile pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import build_benchmark
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.coupling import (
    GridCouplingMap,
    HeavyHexCouplingMap,
    LineCouplingMap,
    TorusCouplingMap,
)
from repro.compiler.pipeline import compile_circuit
from repro.compiler.scheduling import crosstalk_aware_schedule
from tests.oracles import are_coupled, asap_schedule


class TestASAPSchedule:
    def test_every_gate_scheduled_once(self):
        circuit = QuantumCircuit(4).h(0).cx(0, 1).cx(2, 3).cz(1, 2).h(3)
        schedule = asap_schedule(circuit)
        assert schedule.gate_count() == len(circuit)

    def test_no_qubit_conflicts_within_moment(self):
        circuit = QuantumCircuit(5)
        for q in range(5):
            circuit.h(q)
        circuit.cx(0, 1).cx(1, 2).cx(3, 4)
        schedule = asap_schedule(circuit)
        for moment in schedule.moments:
            qubits = [q for gate in moment.gates for q in gate.qubits]
            assert len(qubits) == len(set(qubits))

    def test_parallel_layer_single_moment(self):
        circuit = QuantumCircuit(6)
        for q in range(6):
            circuit.h(q)
        assert asap_schedule(circuit).depth == 1


#: One device of every built-in topology family.
COUPLINGS = {
    "grid": GridCouplingMap(rows=3, cols=3),
    "line": LineCouplingMap(num_sites=8),
    "heavy_hex": HeavyHexCouplingMap(rows=2, cols=3),
    "torus": TorusCouplingMap(rows=3, cols=3),
}


def couplers_adjacent(coupling, a, b):
    """True if two couplers share a qubit or have directly coupled endpoints."""
    if set(a) & set(b):
        return True
    return any(are_coupled(coupling, x, y) for x in a for y in b)


class TestCrosstalkAwareSchedule:
    def test_adjacent_couplers_not_simultaneous(self):
        grid = GridCouplingMap(1, 4)
        circuit = QuantumCircuit(4).cz(0, 1).cz(2, 3).cz(1, 2)
        schedule = crosstalk_aware_schedule(circuit, grid)
        for moment in schedule.moments:
            couplers = [tuple(sorted(g.qubits)) for g in moment.two_qubit_gates]
            for i, a in enumerate(couplers):
                for b in couplers[i + 1 :]:
                    assert not (set(a) & set(b))
                    assert not any(are_coupled(grid, x, y) for x in a for y in b)

    def test_crosstalk_constraint_increases_depth(self):
        grid = GridCouplingMap(1, 4)
        circuit = QuantumCircuit(4).cz(0, 1).cz(2, 3)
        plain = asap_schedule(circuit)
        aware = crosstalk_aware_schedule(circuit, grid)
        # (0,1) and (2,3) are adjacent couplers on a line, so they must split.
        assert plain.depth == 1
        assert aware.depth == 2

    def test_without_coupling_map_equivalent_to_asap(self):
        circuit = QuantumCircuit(4).cz(0, 1).cz(2, 3).h(0)
        assert crosstalk_aware_schedule(circuit, None).depth == asap_schedule(circuit).depth

    def test_dependency_order_respected(self):
        grid = GridCouplingMap(2, 2)
        circuit = QuantumCircuit(4).h(0).cz(0, 1).h(1)
        schedule = crosstalk_aware_schedule(circuit, grid)
        position = {}
        for index, moment in enumerate(schedule.moments):
            for gate in moment.gates:
                position[id(gate)] = index
        gates = list(circuit)
        assert position[id(gates[0])] < position[id(gates[1])] < position[id(gates[2])]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_schedule_covers_all_gates_random(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        grid = GridCouplingMap(3, 3)
        circuit = QuantumCircuit(9)
        for _ in range(15):
            if rng.random() < 0.5:
                circuit.h(int(rng.integers(9)))
            else:
                qubit = int(rng.integers(9))
                neighbors = grid.neighbors(qubit)
                circuit.cz(qubit, int(rng.choice(neighbors)))
        schedule = crosstalk_aware_schedule(circuit, grid)
        assert schedule.gate_count() == len(circuit)
        for moment in schedule.moments:
            qubits = [q for gate in moment.gates for q in gate.qubits]
            assert len(qubits) == len(set(qubits))


class TestCompilePipeline:
    def test_compiled_circuit_in_basis_and_routed(self):
        circuit = build_benchmark("ising", num_qubits=9)
        compiled = compile_circuit(circuit, seed=0)
        assert compiled.physical_circuit.num_qubits == compiled.coupling.num_qubits
        for gate in compiled.physical_circuit:
            assert gate.name in ("u3", "rz", "cz")
            if gate.is_two_qubit:
                assert are_coupled(compiled.coupling, *gate.qubits)

    def test_summary_fields(self):
        circuit = build_benchmark("bv", num_qubits=9)
        compiled = compile_circuit(circuit, seed=0)
        summary = compiled.summary()
        assert summary["logical_qubits"] == circuit.num_qubits
        assert summary["cz_gates"] == compiled.num_cz_gates
        assert summary["depth"] == compiled.schedule.depth > 0

    def test_explicit_coupling_map_respected(self):
        circuit = QuantumCircuit(6).cx(0, 5)
        grid = GridCouplingMap(2, 3)
        compiled = compile_circuit(circuit, coupling=grid, seed=0)
        assert compiled.coupling is grid

    def test_circuit_larger_than_device_rejected(self):
        circuit = QuantumCircuit(10)
        circuit.h(0)
        with pytest.raises(ValueError):
            compile_circuit(circuit, coupling=GridCouplingMap(3, 3))


@pytest.mark.parametrize("kind", sorted(COUPLINGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_crosstalk_schedule_never_pairs_adjacent_couplers(kind, data):
    """No moment holds two two-qubit gates that share a qubit or sit on
    directly coupled endpoints, for random circuits on every topology."""
    coupling = COUPLINGS[kind]
    couplers = coupling.couplers()
    n = coupling.num_qubits
    circuit = QuantumCircuit(n)
    ops = data.draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("h"), st.integers(0, n - 1)),
                st.tuples(st.just("cz"), st.sampled_from(couplers)),
                st.tuples(
                    st.just("cz"),
                    st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                ),
            ),
            max_size=60,
        )
    )
    for name, operand in ops:
        if name == "h":
            circuit.h(operand)
        else:
            circuit.cz(*operand)
    schedule = crosstalk_aware_schedule(circuit, coupling)
    assert schedule.gate_count() == len(circuit)
    for moment in schedule.moments:
        pairs = [tuple(gate.qubits) for gate in moment.two_qubit_gates]
        for i, a in enumerate(pairs):
            for b in pairs[i + 1 :]:
                assert not couplers_adjacent(coupling, a, b)
