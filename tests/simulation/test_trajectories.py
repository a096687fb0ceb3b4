"""Tests of the Monte-Carlo trajectory engine and the fused-op fast path."""

import time

import numpy as np
import pytest

from repro.circuits.benchmarks import build_benchmark
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.simulator import simulate, zero_state
from repro.simulation import (
    MAX_DENSE_QUBITS,
    NoiseModel,
    TrajectoryResult,
    build_trajectory_plan,
    fuse_circuit,
    run_trajectories,
)


def small_benchmark(name="bv", num_qubits=6, seed=3):
    return build_benchmark(name, num_qubits=num_qubits, seed=seed)


class TestFusion:
    def test_fused_ops_preserve_semantics(self):
        for name in ("bv", "ising", "qgan"):
            circuit = small_benchmark(name)
            assert np.allclose(simulate(circuit), fuse_circuit(circuit).ideal_state, atol=1e-10)

    def test_fusion_reduces_op_count(self):
        circuit = small_benchmark("qgan")
        assert len(fuse_circuit(circuit).matrices) < len(circuit)

    def test_adjacent_single_qubit_runs_collapse_to_one_op(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).add("t", (0,)).add("s", (0,)).x(1)
        fused = fuse_circuit(circuit)
        assert len(fused.matrices) == 2
        assert all(len(qubits) == 1 for qubits in fused.qubits)

    def test_fused_kick_probability_combines_constituents(self):
        noise = NoiseModel.uniform(1, single_qubit_error=0.1)
        circuit = QuantumCircuit(1)
        circuit.h(0).add("t", (0,)).add("s", (0,))
        (probs,) = build_trajectory_plan(circuit, noise).kick_probs
        assert probs[0] == pytest.approx(1.0 - 0.9**3)

    def test_rz_gates_are_noise_free(self):
        noise = NoiseModel.uniform(1, single_qubit_error=0.1)
        circuit = QuantumCircuit(1)
        circuit.rz(0.3, 0).rz(-0.1, 0)
        (probs,) = build_trajectory_plan(circuit, noise).kick_probs
        assert probs == (0.0,)

    def test_two_qubit_kick_probability_matches_coupler_rate(self):
        noise = NoiseModel.uniform(2, cz_error=0.2)
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1)
        (probs,) = build_trajectory_plan(circuit, noise).kick_probs
        # No-kick probability of the whole gate must be exactly 1 - rate.
        no_kick = (1.0 - probs[0]) * (1.0 - probs[1])
        assert no_kick == pytest.approx(0.8)


class TestTrajectories:
    def test_zero_noise_gives_perfect_fidelity(self):
        circuit = small_benchmark()
        noise = NoiseModel.uniform(circuit.num_qubits, 0.0, 0.0)
        result = run_trajectories(circuit, noise, num_trajectories=10, seed=1)
        assert result.state_fidelity == pytest.approx(1.0, abs=1e-9)
        assert result.success_probability == pytest.approx(result.ideal_success, abs=1e-9)
        assert result.kicks == 0

    def test_noise_degrades_fidelity(self):
        circuit = small_benchmark("ising")
        noise = NoiseModel.uniform(circuit.num_qubits, 0.05, 0.05)
        result = run_trajectories(circuit, noise, num_trajectories=40, seed=1)
        assert result.kicks > 0
        assert result.state_fidelity < 0.999

    def test_fidelity_decreases_with_noise_strength(self):
        circuit = small_benchmark("ising")
        weak = NoiseModel.uniform(circuit.num_qubits, 1e-4, 1e-3)
        strong = NoiseModel.uniform(circuit.num_qubits, 0.05, 0.1)
        def fid(noise):
            return run_trajectories(
                circuit, noise, num_trajectories=60, seed=2
            ).state_fidelity

        assert fid(strong) < fid(weak)

    def test_result_row_shape(self):
        circuit = small_benchmark()
        noise = NoiseModel.uniform(circuit.num_qubits)
        row = run_trajectories(circuit, noise, num_trajectories=5, seed=0).as_row()
        assert set(row) == {
            "success_probability", "ideal_success", "state_fidelity", "trajectories",
        }
        assert row["trajectories"] == 5

    def test_rejects_mismatched_noise_model(self):
        circuit = small_benchmark()
        with pytest.raises(ValueError, match="noise model covers"):
            run_trajectories(circuit, NoiseModel.uniform(circuit.num_qubits + 1), 5)

    def test_rejects_registers_past_the_dense_ceiling(self):
        """A 25-qubit batch would need ``B * 2**25`` amplitudes; the plan
        refuses it before fusing or allocating anything."""
        width = MAX_DENSE_QUBITS + 1
        circuit = QuantumCircuit(width)
        for qubit in range(width):
            circuit.h(qubit)
        noise = NoiseModel.uniform(width)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"at most {MAX_DENSE_QUBITS}"):
            build_trajectory_plan(circuit, noise)
        with pytest.raises(ValueError, match=f"at most {MAX_DENSE_QUBITS}"):
            run_trajectories(circuit, noise, 100, batch_size=25)
        assert time.perf_counter() - start < 1.0

    def test_merge_rejects_mixed_widths(self):
        a = TrajectoryResult(2, (1.0,), (1.0,), 1.0, 0)
        b = TrajectoryResult(3, (1.0,), (1.0,), 1.0, 0)
        with pytest.raises(ValueError, match="different register widths"):
            TrajectoryResult.merge([a, b])

    def test_engine_and_serial_reference_agree(self):
        circuit = small_benchmark("ising")
        noise = NoiseModel.uniform(circuit.num_qubits, 0.01, 0.02)
        reference = run_trajectories(circuit, noise, 30, seed=5, batch_size=8)
        engine = run_trajectories(circuit, noise, 30, seed=5, batch_size=8)
        assert engine == reference


class TestBatchingSpeed:
    def test_batched_100_trajectories_beat_sequential_simulate_on_12_qubits(self):
        """Acceptance: batched simulation of 100 trajectories must be
        measurably faster than 100 sequential simulate() calls at 12 qubits."""
        circuit = build_benchmark("qgan", num_qubits=12, seed=3)
        batch_init = np.tile(zero_state(12), (25, 1))

        def sequential():
            for _ in range(100):
                simulate(circuit)

        def batched():
            for _ in range(4):
                simulate(circuit, initial_state=batch_init)

        def best_of(fn, repeats=3):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        batched()  # warm both caches before timing
        sequential_time = best_of(sequential)
        batched_time = best_of(batched)
        assert batched_time < sequential_time, (
            f"batched {batched_time:.3f}s not faster than sequential {sequential_time:.3f}s"
        )
