"""Tests for the CircuitBuilder scratch-register helper."""

import pytest

from repro.circuits.builder import CircuitBuilder, encode_integer
from repro.circuits.simulator import dominant_bitstring, simulate
from tests.oracles import register_value


class TestAllocation:
    def test_allocate_returns_fresh_indices(self):
        builder = CircuitBuilder()
        first = builder.allocate(3)
        second = builder.allocate(2)
        assert first == [0, 1, 2]
        assert second == [3, 4]
        assert builder.num_qubits == 5

    def test_allocate_negative_rejected(self):
        with pytest.raises(ValueError):
            CircuitBuilder().allocate(-1)

    def test_build_without_qubits_rejected(self):
        with pytest.raises(ValueError):
            CircuitBuilder().build()


class TestEncoding:
    def test_encode_and_read_back(self):
        builder = CircuitBuilder()
        register = builder.allocate(4)
        encode_integer(builder, register, 11)
        circuit = builder.build()
        bitstring = dominant_bitstring(simulate(circuit))
        assert register_value(bitstring, register) == 11

    def test_encode_overflow_rejected(self):
        builder = CircuitBuilder()
        register = builder.allocate(2)
        with pytest.raises(ValueError):
            encode_integer(builder, register, 7)

    def test_encode_negative_rejected(self):
        builder = CircuitBuilder()
        register = builder.allocate(2)
        with pytest.raises(ValueError):
            encode_integer(builder, register, -1)
