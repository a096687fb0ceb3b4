"""Optimization-level guarantees: equivalence, invariants, and the -O2 payoff.

The property-based tests pin the contract of the whole pass pipeline: at any
optimization level the compiled circuit acts on the logical register exactly
like the source circuit (up to global phase), stays inside the {u3, rz, cz}
basis, and respects the device coupling.  The payoff test asserts the
acceptance criterion: ``-O2`` strictly improves scheduled depth or CZ count
over ``-O0`` on at least 3 of the 6 paper benchmarks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import TABLE_IV_NAMES, build_benchmark
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.simulator import circuit_unitary
from repro.compiler import compile_circuit
from tests.oracles import are_coupled, logical_unitary


def random_logical_circuit(num_qubits: int, num_gates: int, seed: int) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name=f"random_{seed}")
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.4:
            name = ("h", "t", "s", "x", "sx")[int(rng.integers(5))]
            circuit.add(name, (int(rng.integers(num_qubits)),))
        elif roll < 0.6:
            name = ("rx", "ry", "rz")[int(rng.integers(3))]
            circuit.add(
                name, (int(rng.integers(num_qubits)),), (float(rng.uniform(-np.pi, np.pi)),)
            )
        elif roll < 0.9 or num_qubits < 3:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            name = ("cx", "cz", "swap", "cp")[int(rng.integers(4))]
            params = (float(rng.uniform(-np.pi, np.pi)),) if name == "cp" else ()
            circuit.add(name, (a, b), params)
        else:
            a, b, c = (int(q) for q in rng.choice(num_qubits, size=3, replace=False))
            circuit.ccx(a, b, c)
    return circuit


def aligned(reference: np.ndarray, other: np.ndarray, atol: float = 1e-8) -> bool:
    """True if ``other == e^{i phi} reference`` for some global phase."""
    index = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    if abs(other[index]) < 1e-12:
        return False
    phase = other[index] / reference[index]
    if abs(abs(phase) - 1.0) > atol:
        return False
    return np.allclose(other, phase * reference, atol=atol)


class TestLevelEquivalence:
    @given(
        num_qubits=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_optimized_levels_match_o0_up_to_global_phase(self, num_qubits, seed):
        circuit = random_logical_circuit(num_qubits, num_gates=12, seed=seed)
        baseline = logical_unitary(compile_circuit(circuit, seed=0, opt_level=0))
        for level in (1, 2):
            optimized = logical_unitary(compile_circuit(circuit, seed=0, opt_level=level))
            assert aligned(baseline, optimized), f"-O{level} diverged from -O0 (seed {seed})"

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_o0_matches_the_source_circuit(self, seed):
        circuit = random_logical_circuit(4, num_gates=10, seed=seed)
        logical = circuit_unitary(circuit)
        compiled = logical_unitary(compile_circuit(circuit, seed=0, opt_level=0))
        assert aligned(logical, compiled)


class TestLevelInvariants:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_basis_and_coupling_respected(self, level):
        circuit = build_benchmark("qgan", num_qubits=9, seed=1)
        compiled = compile_circuit(circuit, seed=1, opt_level=level)
        for gate in compiled.physical_circuit:
            assert gate.name in ("u3", "rz", "cz")
            if gate.is_two_qubit:
                assert are_coupled(compiled.coupling, *gate.qubits)
        # The validation passes recorded clean invariants in the trace.
        names = [record.name for record in compiled.pass_trace]
        assert "ValidateBasis" in names and "ValidateCoupling" in names

    @pytest.mark.parametrize("level", [1, 2])
    def test_optimization_never_adds_gates(self, level):
        circuit = build_benchmark("add1", num_qubits=12, seed=0)
        baseline = compile_circuit(circuit, seed=0, opt_level=0)
        optimized = compile_circuit(circuit, seed=0, opt_level=level)
        assert len(optimized.physical_circuit) <= len(baseline.physical_circuit)


class TestO2Payoff:
    def test_o2_improves_three_of_six_paper_benchmarks(self):
        """Acceptance criterion: -O2 strictly beats -O0 in scheduled depth or
        CZ count on at least 3 of the 6 Table IV benchmarks (16 qubits)."""
        improved = []
        for name in TABLE_IV_NAMES:
            circuit = build_benchmark(name, num_qubits=16, seed=0)
            baseline = compile_circuit(circuit, seed=0, opt_level=0)
            aggressive = compile_circuit(circuit, seed=0, opt_level=2)
            if (
                aggressive.depth < baseline.depth
                or aggressive.num_cz_gates < baseline.num_cz_gates
            ):
                improved.append(name)
        assert len(improved) >= 3, f"-O2 only improved {improved}"
