"""Quantum circuit IR, gate library, simulator, and NISQ benchmark generators."""

from .builder import CircuitBuilder, encode_integer
from .circuit import QuantumCircuit, circuit_fingerprint
from .gate import Gate
from .library import (
    DIGIQ_BASIS,
    KNOWN_GATES,
    GateSpec,
    gate_matrix,
    gate_spec,
    inverse_gate,
    validate_gate,
)
from .simulator import (
    apply_gate,
    apply_matrix,
    circuit_unitary,
    dominant_bitstring,
    measure_probabilities,
    sample_counts,
    simulate,
    zero_state,
)

__all__ = [
    "CircuitBuilder",
    "DIGIQ_BASIS",
    "Gate",
    "GateSpec",
    "KNOWN_GATES",
    "QuantumCircuit",
    "apply_gate",
    "apply_matrix",
    "circuit_fingerprint",
    "circuit_unitary",
    "dominant_bitstring",
    "encode_integer",
    "gate_matrix",
    "gate_spec",
    "inverse_gate",
    "measure_probabilities",
    "sample_counts",
    "simulate",
    "validate_gate",
    "zero_state",
]
