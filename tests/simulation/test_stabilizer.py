"""Tests of the Clifford/stabilizer fast path: tableau simulation, Pauli-frame
noise, and its exact agreement with the dense statevector kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import build_benchmark
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.simulator import measure_probabilities, simulate
from repro.simulation import NoiseModel, run_trajectories
from repro.simulation.stabilizer import (
    StabilizerTableau,
    advance_pauli_frames,
    build_scorer,
    dominant_stabilizer_bits,
    is_clifford_circuit,
    is_clifford_gate,
)
from repro.simulation.trajectories import (
    build_trajectory_plan,
    fuse_circuit,
    run_trajectory_batch,
)

#: One-qubit Clifford gates with no parameters.
CLIFFORD_1Q = ("h", "x", "y", "z", "s", "sdg", "sx")
#: Two-qubit Clifford gates with no parameters.
CLIFFORD_2Q = ("cx", "cz", "swap")


@st.composite
def clifford_circuits(draw, min_qubits=1, max_qubits=8, max_gates=24):
    num_qubits = draw(st.integers(min_qubits, max_qubits))
    circuit = QuantumCircuit(num_qubits)
    num_gates = draw(st.integers(1, max_gates))
    for _ in range(num_gates):
        if num_qubits >= 2 and draw(st.booleans()):
            name = draw(st.sampled_from(CLIFFORD_2Q))
            qubits = draw(
                st.lists(
                    st.integers(0, num_qubits - 1), min_size=2, max_size=2, unique=True
                )
            )
        else:
            name = draw(st.sampled_from(CLIFFORD_1Q))
            qubits = [draw(st.integers(0, num_qubits - 1))]
        circuit.add(name, tuple(qubits))
    return circuit


class TestCliffordDetection:
    def test_clifford_gates_recognised(self):
        for name in CLIFFORD_1Q:
            assert is_clifford_gate(QuantumCircuit(1).add(name, (0,))[-1])
        circuit = QuantumCircuit(2)
        for name in CLIFFORD_2Q:
            circuit.add(name, (0, 1))
        assert is_clifford_circuit(circuit)

    def test_half_turn_rz_is_clifford_other_angles_are_not(self):
        assert is_clifford_circuit(QuantumCircuit(1).rz(np.pi / 2, 0))
        assert is_clifford_circuit(QuantumCircuit(1).rz(-np.pi, 0))
        assert not is_clifford_circuit(QuantumCircuit(1).rz(0.3, 0))
        assert not is_clifford_circuit(QuantumCircuit(1).t(0))

    def test_bv_benchmark_is_clifford(self):
        assert is_clifford_circuit(build_benchmark("bv", num_qubits=6, seed=3))

    def test_qgan_benchmark_is_not(self):
        assert not is_clifford_circuit(build_benchmark("qgan", num_qubits=6, seed=3))


class TestTableau:
    def test_bell_state_dominant_bits(self):
        tableau = StabilizerTableau(2).apply_circuit(QuantumCircuit(2).h(0).cx(0, 1))
        # argmax over (0.5, 0, 0, 0.5) picks index 0.
        assert dominant_stabilizer_bits(tableau).tolist() == [0, 0]

    def test_x_layer_dominant_bits(self):
        tableau = StabilizerTableau(3).apply_circuit(QuantumCircuit(3).x(0).x(2))
        assert dominant_stabilizer_bits(tableau).tolist() == [1, 0, 1]

    @given(clifford_circuits(max_qubits=6, max_gates=16))
    @settings(max_examples=40, deadline=None)
    def test_dominant_outcome_matches_statevector_argmax(self, circuit):
        tableau = StabilizerTableau(circuit.num_qubits).apply_circuit(circuit)
        bits = dominant_stabilizer_bits(tableau)
        index = int(sum(int(bit) << q for q, bit in enumerate(bits)))
        probs = measure_probabilities(simulate(circuit))
        assert index == int(np.argmax(np.round(probs, 12)))

    def test_scorer_ideal_success_matches_statevector(self):
        for name, qubits in (("bv", 6), ("bv", 5)):
            circuit = build_benchmark(name, num_qubits=qubits, seed=3)
            scorer = build_scorer(circuit)
            probs = measure_probabilities(simulate(circuit))
            assert scorer.ideal_success == pytest.approx(
                float(probs[scorer.dominant_index]), abs=1e-9
            )


class TestFrameKernel:
    def test_frame_stream_matches_dense_kernel_draws(self):
        """Both kernels consume one hit draw + one pick draw per site, so the
        generator state after a batch is identical on either path."""
        circuit = build_benchmark("bv", num_qubits=6, seed=3)
        noise = NoiseModel.uniform(6, 0.02, 0.05)
        ops = tuple(fuse_circuit(circuit, noise))
        cumweights = noise.kick_cumulative_weights()
        from repro.simulation.trajectories import advance_noisy_batch

        rng_frames = np.random.default_rng(11)
        *_, kicks_frames = advance_pauli_frames(ops, 6, 8, rng_frames, cumweights)
        rng_dense = np.random.default_rng(11)
        _, kicks_dense = advance_noisy_batch(ops, 6, 8, rng_dense, cumweights)
        assert kicks_frames == kicks_dense
        assert rng_frames.bit_generator.state == rng_dense.bit_generator.state

    @given(clifford_circuits(min_qubits=2, max_qubits=8, max_gates=20), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_stabilizer_scores_equal_statevector_scores(self, circuit, seed):
        """The load-bearing equivalence: on any Clifford circuit, the
        stabilizer path reproduces the statevector path's per-trajectory
        fidelities and success probabilities exactly."""
        noise = NoiseModel.uniform(circuit.num_qubits, 0.05, 0.1)
        stab = build_trajectory_plan(circuit, noise, mode="stabilizer")
        dense = build_trajectory_plan(circuit, noise, mode="statevector")
        result_stab = run_trajectory_batch(stab, 6, np.random.default_rng(seed))
        result_dense = run_trajectory_batch(dense, 6, np.random.default_rng(seed))
        assert result_stab.kicks == result_dense.kicks
        assert np.allclose(result_stab.fidelities, result_dense.fidelities, atol=1e-9)
        assert np.allclose(
            result_stab.success_probs, result_dense.success_probs, atol=1e-9
        )
        assert result_stab.ideal_success == pytest.approx(
            result_dense.ideal_success, abs=1e-9
        )


class TestPlanSelection:
    def test_auto_picks_stabilizer_for_clifford(self):
        circuit = build_benchmark("bv", num_qubits=6, seed=3)
        noise = NoiseModel.uniform(6)
        assert build_trajectory_plan(circuit, noise).mode == "stabilizer"

    def test_auto_picks_statevector_for_non_clifford(self):
        circuit = build_benchmark("qgan", num_qubits=6, seed=3)
        noise = NoiseModel.uniform(6)
        assert build_trajectory_plan(circuit, noise).mode == "statevector"

    def test_forcing_stabilizer_on_non_clifford_raises(self):
        circuit = build_benchmark("qgan", num_qubits=6, seed=3)
        with pytest.raises(ValueError, match="Clifford"):
            build_trajectory_plan(circuit, NoiseModel.uniform(6), mode="stabilizer")

    def test_unknown_mode_rejected(self):
        circuit = build_benchmark("bv", num_qubits=6, seed=3)
        with pytest.raises(ValueError, match="mode"):
            build_trajectory_plan(circuit, NoiseModel.uniform(6), mode="tensor")

    def test_auto_and_forced_statevector_agree_on_bv(self):
        circuit = build_benchmark("bv", num_qubits=6, seed=3)
        noise = NoiseModel.uniform(6, 0.02, 0.05)
        auto = run_trajectories(circuit, noise, 30, seed=5, batch_size=10)
        forced = run_trajectories(
            circuit, noise, 30, seed=5, batch_size=10, mode="statevector", workers=1
        )
        assert auto.as_row() == forced.as_row()
        assert auto.kicks == forced.kicks

    def test_clifford_benchmark_runs_past_statevector_ceiling(self):
        """The headline capability: BV at 32 qubits, far above the 24-qubit
        dense ceiling, completes in well under a second."""
        circuit = build_benchmark("bv", num_qubits=32, seed=3)
        noise = NoiseModel.uniform(32, 0.01, 0.02)
        result = run_trajectories(circuit, noise, 20, seed=1)
        assert result.num_trajectories == 20
        assert 0.0 <= result.state_fidelity <= 1.0
