"""Seed-determinism guarantees: identical seeds must give identical results,
serially and across ProcessPoolExecutor workers."""

import numpy as np

from repro.circuits.benchmarks import build_benchmark
from repro.circuits.simulator import sample_counts, simulate
from repro.noise.variability import VariabilityModel
from repro.runtime.executor import WorkerPool
from repro.simulation import NoiseModel, run_trajectories


def _bv():
    return build_benchmark("bv", num_qubits=6, seed=3)


class TestSampleCountsDeterminism:
    def test_identical_seeds_identical_counts(self):
        state = simulate(_bv())
        assert sample_counts(state, shots=200, seed=42) == sample_counts(
            state, shots=200, seed=42
        )

    def test_different_seeds_may_differ(self):
        circuit = build_benchmark("ising", num_qubits=6)
        state = simulate(circuit)
        counts = [sample_counts(state, shots=50, seed=s) for s in range(5)]
        assert any(counts[0] != other for other in counts[1:])


class TestVariabilityDeterminism:
    def test_sample_qubits_identical_for_identical_seeds(self):
        frequencies = [6.21286, 4.14238, 5.02978, 6.21286]
        samples_a = VariabilityModel(seed=9).sample_qubits(frequencies)
        samples_b = VariabilityModel(seed=9).sample_qubits(frequencies)
        assert samples_a == samples_b

    def test_sample_error_scales_identical_for_identical_seeds(self):
        scales_a = VariabilityModel(seed=4).sample_error_scales(10)
        scales_b = VariabilityModel(seed=4).sample_error_scales(10)
        assert np.array_equal(scales_a, scales_b)
        assert np.all(scales_a > 0)

    def test_streams_advance(self):
        model = VariabilityModel(seed=4)
        first = model.sample_error_scales(5)
        second = model.sample_error_scales(5)
        assert not np.array_equal(first, second)


class TestTrajectoryDeterminism:
    def test_identical_seeds_identical_results(self):
        circuit = _bv()
        noise = NoiseModel.uniform(circuit.num_qubits, 0.02, 0.05)
        result_a = run_trajectories(circuit, noise, 40, seed=13, batch_size=16)
        result_b = run_trajectories(circuit, noise, 40, seed=13, batch_size=16)
        assert result_a == result_b

    def test_different_seeds_differ(self):
        circuit = _bv()
        noise = NoiseModel.uniform(circuit.num_qubits, 0.05, 0.1)
        result_a = run_trajectories(circuit, noise, 40, seed=1)
        result_b = run_trajectories(circuit, noise, 40, seed=2)
        assert result_a.fidelities != result_b.fidelities

    def test_parallel_workers_match_serial_exactly(self):
        """The headline guarantee: ProcessPoolExecutor runs are bit-identical
        to serial runs for the same (seed, trajectories, batch_size)."""
        circuit = _bv()
        noise = NoiseModel.uniform(circuit.num_qubits, 0.02, 0.05)
        serial = run_trajectories(circuit, noise, 48, seed=7, batch_size=12)
        with WorkerPool(2) as pool:
            parallel = run_trajectories(circuit, noise, 48, seed=7, batch_size=12, pool=pool)
        assert serial == parallel

    def test_more_batches_than_workers_match_serial_exactly(self):
        circuit = _bv()
        noise = NoiseModel.uniform(circuit.num_qubits, 0.02, 0.05)
        serial = run_trajectories(circuit, noise, 40, seed=7, batch_size=4)
        with WorkerPool(2) as pool:
            pooled = run_trajectories(circuit, noise, 40, seed=7, batch_size=4, pool=pool)
        assert pooled == serial

    def test_uneven_final_batch_is_handled(self):
        circuit = _bv()
        noise = NoiseModel.uniform(circuit.num_qubits, 0.02, 0.05)
        result = run_trajectories(circuit, noise, 10, seed=3, batch_size=4)
        assert result.num_trajectories == 10
