"""Functional tests for the Table IV NISQ benchmark generators."""

import numpy as np
import pytest

from repro.circuits.benchmarks import (
    BENCHMARK_NAMES,
    TABLE_IV_NAMES,
    bernstein_vazirani_circuit,
    build_benchmark,
    carry_lookahead_adder_circuit,
    cuccaro_adder_circuit,
    grover_sqrt_circuit,
    ising_chain_circuit,
    qaoa_maxcut_circuit,
    qaoa_maxcut_edges,
    qft_circuit,
    qgan_circuit,
)
from repro.circuits.simulator import (
    circuit_unitary,
    dominant_bitstring,
    measure_probabilities,
    simulate,
)
from tests.oracles import bernstein_vazirani_secret, register_value


class TestSuite:
    def test_all_benchmarks_build(self):
        for name in BENCHMARK_NAMES:
            assert len(build_benchmark(name, num_qubits=24)) > 0

    def test_table_iv_subset_unchanged(self):
        assert TABLE_IV_NAMES == ("qgan", "ising", "bv", "add1", "add2", "sqrt")
        assert set(TABLE_IV_NAMES) < set(BENCHMARK_NAMES)
        assert {"qft", "qaoa"} <= set(BENCHMARK_NAMES)

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            build_benchmark("nope")

    def test_scaling_changes_size(self):
        small = build_benchmark("bv", num_qubits=16)
        large = build_benchmark("bv", num_qubits=64)
        assert large.num_qubits > small.num_qubits


class TestBernsteinVazirani:
    def test_recovers_secret(self):
        circuit = bernstein_vazirani_circuit(num_bits=7, seed=11)
        expected = bernstein_vazirani_secret(circuit)
        bitstring = dominant_bitstring(simulate(circuit))
        # The ancilla (last qubit, leftmost character) ends in |1>; the data
        # register holds the secret.
        assert bitstring[0] == "1"
        assert bitstring[1:] == expected

    def test_explicit_secret_roundtrip(self):
        secret = [1, 0, 1, 1, 0]
        circuit = bernstein_vazirani_circuit(num_bits=5, secret=secret)
        recovered = bernstein_vazirani_secret(circuit)
        assert recovered == "".join(str(b) for b in reversed(secret))

    def test_deterministic_given_seed(self):
        a = bernstein_vazirani_circuit(num_bits=20, seed=3)
        b = bernstein_vazirani_circuit(num_bits=20, seed=3)
        assert bernstein_vazirani_secret(a) == bernstein_vazirani_secret(b)


class TestAdders:
    @pytest.mark.parametrize("a,b", [(3, 5), (7, 1), (0, 0), (15, 15)])
    def test_cuccaro_adds_correctly(self, a, b):
        circuit, layout = cuccaro_adder_circuit(num_bits=4, a_value=a, b_value=b)
        bitstring = dominant_bitstring(simulate(circuit))
        total = register_value(bitstring, list(layout.sum_register))
        total += register_value(bitstring, [layout.carry_out]) << 4
        assert total == a + b

    @pytest.mark.parametrize("a,b", [(2, 3), (5, 6), (0, 7)])
    def test_carry_lookahead_adds_correctly(self, a, b):
        circuit, layout = carry_lookahead_adder_circuit(num_bits=3, a_value=a, b_value=b)
        bitstring = dominant_bitstring(simulate(circuit))
        total = register_value(bitstring, list(layout.sum_register))
        assert total == a + b

    def test_adder_operand_validation(self):
        with pytest.raises(ValueError):
            cuccaro_adder_circuit(num_bits=2, a_value=9, b_value=0)

    def test_cuccaro_restores_operand_a(self):
        circuit, layout = cuccaro_adder_circuit(num_bits=3, a_value=5, b_value=2)
        bitstring = dominant_bitstring(simulate(circuit))
        assert register_value(bitstring, list(layout.a)) == 5


class TestGroverSqrt:
    @staticmethod
    def dominant_root(circuit, layout):
        """Most likely value of the result register after the search."""
        probs = measure_probabilities(simulate(circuit))
        num_qubits = circuit.num_qubits
        marginals = {}
        for index, p in enumerate(probs):
            if p < 1e-12:
                continue
            bits = format(index, f"0{num_qubits}b")
            value = register_value(bits, list(layout.y))
            marginals[value] = marginals.get(value, 0.0) + float(p)
        return max(marginals, key=marginals.get)

    def test_square_root_amplified(self):
        # 2 result bits keep the simulation at 16 qubits so the default
        # (non-slow) run stays fast; the 3-bit paper-shaped instance below is
        # the same code path at 23 qubits.
        circuit, layout = grover_sqrt_circuit(radicand=9, num_result_bits=2)
        assert self.dominant_root(circuit, layout) == 3

    @pytest.mark.slow
    def test_square_root_amplified_three_bits(self):
        circuit, layout = grover_sqrt_circuit(radicand=9, num_result_bits=3)
        assert self.dominant_root(circuit, layout) == 3


class TestQFT:
    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_matches_discrete_fourier_transform(self, num_qubits):
        dim = 2**num_qubits
        omega = np.exp(2j * np.pi / dim)
        dft = np.array(
            [[omega ** (j * k) for j in range(dim)] for k in range(dim)]
        ) / np.sqrt(dim)
        np.testing.assert_allclose(circuit_unitary(qft_circuit(num_qubits)), dft, atol=1e-9)

    def test_approximation_drops_smallest_rotations(self):
        exact = qft_circuit(8)
        approximate = qft_circuit(8, approximation_degree=3)
        assert approximate.count("cp") < exact.count("cp")
        assert approximate.count("h") == exact.count("h")

    def test_without_swaps_drops_reversal_network(self):
        assert qft_circuit(6, with_swaps=False).count("swap") == 0
        assert qft_circuit(6).count("swap") == 3

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            qft_circuit(0)
        with pytest.raises(ValueError):
            qft_circuit(4, approximation_degree=4)

    def test_compile_and_simulate_smoke(self):
        from repro.compiler import compile_circuit

        circuit = build_benchmark("qft", num_qubits=9, seed=0)
        compiled = compile_circuit(circuit, seed=0, opt_level=2)
        assert all(g.name in ("u3", "rz", "cz") for g in compiled.physical_circuit)
        state = simulate(compiled.physical_circuit)
        assert np.abs(np.vdot(state, state) - 1.0) < 1e-9


class TestQAOAMaxCut:
    def test_graph_is_ring_plus_chords(self):
        edges = qaoa_maxcut_edges(num_qubits=8, extra_chords=2, seed=0)
        as_sets = {tuple(sorted(edge)) for edge in edges}
        ring = {(q, (q + 1) % 8) for q in range(7)} | {(0, 7)}
        assert {tuple(sorted(e)) for e in ring} <= as_sets
        assert len(as_sets) == 10

    def test_deterministic_given_seed(self):
        a = qaoa_maxcut_circuit(num_qubits=10, seed=3)
        b = qaoa_maxcut_circuit(num_qubits=10, seed=3)
        assert a.gates == b.gates

    def test_seed_changes_graph_or_angles(self):
        a = qaoa_maxcut_circuit(num_qubits=10, seed=3)
        b = qaoa_maxcut_circuit(num_qubits=10, seed=4)
        assert a.gates != b.gates

    def test_layer_structure(self):
        circuit = qaoa_maxcut_circuit(num_qubits=6, num_layers=3, chord_fraction=0.0, seed=1)
        # p layers x one rzz per ring edge, one rx per qubit per layer.
        assert circuit.count("rzz") == 3 * 6
        assert circuit.count("rx") == 3 * 6
        assert circuit.count("h") == 6

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            qaoa_maxcut_circuit(num_qubits=1)
        with pytest.raises(ValueError):
            qaoa_maxcut_circuit(num_qubits=4, num_layers=0)
        with pytest.raises(ValueError):
            qaoa_maxcut_circuit(num_qubits=4, chord_fraction=1.5)

    def test_compile_and_simulate_smoke(self):
        from repro.compiler import compile_circuit

        circuit = build_benchmark("qaoa", num_qubits=9, seed=2)
        compiled = compile_circuit(circuit, seed=2, opt_level=2)
        assert all(g.name in ("u3", "rz", "cz") for g in compiled.physical_circuit)
        state = simulate(compiled.physical_circuit)
        assert np.abs(np.vdot(state, state) - 1.0) < 1e-9


class TestParametricGenerators:
    def test_ising_has_even_layer_structure(self):
        circuit = ising_chain_circuit(num_qubits=8, num_steps=2)
        assert circuit.count("rzz") > 0 or circuit.count("cz") > 0
        assert circuit.num_qubits == 8

    def test_qgan_deterministic_with_seed(self):
        a = qgan_circuit(num_qubits=8, seed=5)
        b = qgan_circuit(num_qubits=8, seed=5)
        assert [g.params for g in a] == [g.params for g in b]

    def test_qgan_has_entangling_layers(self):
        circuit = qgan_circuit(num_qubits=8, seed=5)
        assert circuit.num_two_qubit_gates() > 0
