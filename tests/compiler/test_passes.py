"""Tests for the pass-manager framework and the optimization-level pipelines."""

import pytest

from repro.circuits.benchmarks import build_benchmark
from repro.circuits.circuit import QuantumCircuit
from repro.compiler import (
    AnalysisPass,
    GridCouplingMap,
    PassManager,
    PropertySet,
    TransformationPass,
    ValidateBasis,
    ValidateCoupling,
    build_pass_manager,
    compile_circuit,
)


class TestPropertySet:
    def test_require_present(self):
        props = PropertySet({"coupling": "x"})
        assert props.require("coupling", "SomePass") == "x"

    def test_require_missing_names_the_pass(self):
        with pytest.raises(KeyError, match="SomePass"):
            PropertySet().require("layout", "SomePass")


class TestPassManager:
    def test_passes_run_in_order_and_trace_covers_all(self):
        order = []

        class First(TransformationPass):
            def run(self, circuit, properties):
                order.append("first")
                out = circuit.copy()
                out.h(0)
                return out

        class Second(AnalysisPass):
            def run(self, circuit, properties):
                order.append("second")
                properties["gates_seen"] = len(circuit)

        manager = PassManager([First(), Second()])
        circuit = QuantumCircuit(2).x(0)
        result, props, trace = manager.run(circuit)
        assert order == ["first", "second"]
        assert props["gates_seen"] == len(result) == 2
        assert [record.name for record in trace] == ["First", "Second"]
        assert [record.kind for record in trace] == ["transformation", "analysis"]

    def test_trace_records_gate_deltas(self):
        class AddGates(TransformationPass):
            def run(self, circuit, properties):
                out = circuit.copy()
                out.h(0).cz(0, 1)
                return out

        _, _, trace = PassManager([AddGates()]).run(QuantumCircuit(2))
        record = trace[0]
        assert record.gates_before == 0 and record.gates_after == 2
        assert record.two_qubit_before == 0 and record.two_qubit_after == 1
        assert record.wall_time_s >= 0.0

    def test_analysis_pass_returning_circuit_rejected(self):
        class Broken(AnalysisPass):
            def run(self, circuit, properties):
                return circuit.copy()

        with pytest.raises(TypeError, match="Broken"):
            PassManager([Broken()]).run(QuantumCircuit(1))

    def test_record_roundtrips_through_dict(self):
        from repro.compiler import PassRecord

        _, _, trace = build_pass_manager(opt_level=0).run(
            build_benchmark("bv", num_qubits=5),
            PropertySet({"coupling": GridCouplingMap(2, 3)}),
        )
        for record in trace:
            # as_dict rounds wall time, so compare the serialized forms.
            assert PassRecord.from_dict(record.as_dict()).as_dict() == record.as_dict()


class TestValidationPasses:
    def test_validate_basis_rejects_foreign_gates(self):
        circuit = QuantumCircuit(2).cx(0, 1)
        with pytest.raises(RuntimeError, match="outside"):
            ValidateBasis().run(circuit, PropertySet())

    def test_validate_basis_accepts_target_basis(self):
        circuit = QuantumCircuit(2).rz(0.1, 0).u3(0.1, 0.2, 0.3, 1).cz(0, 1)
        props = PropertySet()
        ValidateBasis().run(circuit, props)
        assert props["basis_violations"] == 0

    def test_validate_coupling_rejects_distant_pairs(self):
        circuit = QuantumCircuit(9).cz(0, 8)
        props = PropertySet({"coupling": GridCouplingMap(3, 3)})
        with pytest.raises(RuntimeError, match="uncoupled"):
            ValidateCoupling().run(circuit, props)

    def test_validate_coupling_accepts_neighbours(self):
        circuit = QuantumCircuit(9).cz(0, 1)
        props = PropertySet({"coupling": GridCouplingMap(3, 3)})
        ValidateCoupling().run(circuit, props)
        assert props["coupling_violations"] == 0


def pass_names(manager):
    return [p.name for p in manager.passes]


class TestBuildPassManager:
    def test_level_pass_composition(self):
        names0 = pass_names(build_pass_manager(opt_level=0))
        names1 = pass_names(build_pass_manager(opt_level=1))
        names2 = pass_names(build_pass_manager(opt_level=2))
        assert "CancelInverseGates" not in names0
        assert "CommutationAwareFusion" not in names1
        assert names1.count("CancelInverseGates") == 2
        assert "CommutationAwareFusion" in names2
        assert "StochasticRoute" in names0 and "StochasticRoute" in names1
        assert "LookaheadRoute" in names2

    def test_every_level_validates_invariants(self):
        for level in (0, 1, 2):
            names = pass_names(build_pass_manager(opt_level=level))
            assert "ValidateBasis" in names and "ValidateCoupling" in names
            assert names[-1] == "ScheduleCrosstalkAware"

    def test_pipeline_forces_router_family(self):
        assert "LookaheadRoute" in pass_names(build_pass_manager(opt_level=0, pipeline="lookahead"))
        assert "StochasticRoute" in pass_names(build_pass_manager(opt_level=2, pipeline="stochastic"))

    def test_bad_level_and_pipeline_rejected(self):
        with pytest.raises(ValueError):
            build_pass_manager(opt_level=3)
        with pytest.raises(ValueError):
            build_pass_manager(pipeline="warp")


class TestCompileFacade:
    def test_compiled_circuit_carries_trace_and_level(self):
        circuit = build_benchmark("bv", num_qubits=6)
        compiled = compile_circuit(circuit, seed=0, opt_level=2)
        assert compiled.opt_level == 2
        assert compiled.summary()["opt_level"] == 2
        names = [record.name for record in compiled.pass_trace]
        assert names[0] == "DecomposeToTwoQubit" and "LookaheadRoute" in names
        rows = compiled.trace_rows()
        assert len(rows) == len(names)
        assert {"pass", "kind", "wall_time_s", "gates_after"} <= set(rows[0])

    def test_custom_pass_in_a_custom_pipeline(self):
        """The documented extension path: write a pass, run it in a manager."""

        class StripIdentities(TransformationPass):
            def run(self, circuit, properties):
                out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
                for gate in circuit:
                    if gate.name != "id":
                        out.append(gate)
                return out

        circuit = QuantumCircuit(2).id(0).h(0).id(1).cz(0, 1)
        manager = PassManager([StripIdentities()])
        result, _, trace = manager.run(circuit)
        assert [g.name for g in result] == ["h", "cz"]
        assert trace[0].gates_before - trace[0].gates_after == 2
