"""Circuit-level jobs (schema v5): user circuits through the runtime layer."""

import pickle

import pytest

from repro.circuits import QuantumCircuit, circuit_fingerprint
from repro.runtime import ExperimentSpec, execute_spec, job_key
from repro.runtime.jobs import execute_compile_group
from repro.runtime.store import canonical_json


def ghz(num_qubits: int = 4, name: str = "ghz") -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, name=name)
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    return circuit


class TestCircuitSerialization:
    def test_round_trip_preserves_gate_stream(self):
        circuit = ghz()
        circuit.rz(0.25, 2)
        clone = QuantumCircuit.from_dict(circuit.as_dict())
        assert clone.name == circuit.name
        assert clone.num_qubits == circuit.num_qubits
        assert clone.gates == circuit.gates
        assert circuit_fingerprint(clone) == circuit_fingerprint(circuit)


class TestCircuitSpecs:
    def test_user_circuit_spec_takes_width_and_label_from_circuit(self):
        spec = ExperimentSpec(backend="digiq-opt8", circuit=ghz(5, name="GHZ5"))
        assert spec.benchmark == "ghz5"  # labels normalise to lower case
        assert spec.num_qubits == 5
        assert spec.source_circuit() is spec.circuit

    def test_label_is_presentation_not_identity(self):
        a = ExperimentSpec(backend="digiq-opt8", circuit=ghz(4, name="one"))
        b = ExperimentSpec(backend="digiq-opt8", circuit=ghz(4, name="two"))
        assert job_key(a) == job_key(b)
        assert a.compile_group == b.compile_group

    def test_circuit_content_changes_the_key(self):
        base = ghz(4)
        other = ghz(4)
        other.rz(1e-9, 0)
        key_a = job_key(ExperimentSpec(backend="digiq-opt8", circuit=base))
        key_b = job_key(ExperimentSpec(backend="digiq-opt8", circuit=other))
        assert key_a != key_b

    def test_describe_records_the_fingerprint(self):
        circuit = ghz(4)
        spec = ExperimentSpec(backend="digiq-opt8", circuit=circuit)
        assert spec.describe()["circuit"] == circuit_fingerprint(circuit)

    def test_unknown_benchmark_still_rejected_without_a_circuit(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            ExperimentSpec(benchmark="ghz5", backend="digiq-opt8")


class TestWorkerPayloadPath:
    def test_compile_group_payload_carries_and_rebuilds_the_circuit(self):
        """A user-circuit spec crosses the pool boundary as a pickle, exactly."""
        circuit = ghz(4)
        spec = ExperimentSpec(backend="digiq-opt8", circuit=circuit)
        key = job_key(spec)
        shipped = pickle.loads(pickle.dumps(spec))
        assert shipped.circuit.gates == circuit.gates
        (result,) = execute_compile_group([shipped], [key])
        direct = execute_spec(spec)
        assert result.key == key == direct.key
        assert canonical_json(result.row) == canonical_json(direct.row)
        assert result.spec["circuit"] == circuit_fingerprint(circuit)

    def test_benchmark_payloads_still_omit_the_circuit(self):
        spec = ExperimentSpec(benchmark="bv", backend="digiq-opt8", num_qubits=8)
        shipped = pickle.loads(pickle.dumps(spec))
        assert shipped.circuit is None  # rebuilt from its generator, not shipped
        assert shipped == spec
        assert job_key(shipped) == job_key(spec)
