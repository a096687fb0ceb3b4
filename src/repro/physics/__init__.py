"""Quantum-dynamics substrate used by the DigiQ reproduction.

This package contains everything needed to model transmon qubits driven by
SFQ pulse trains and flux pulses: operator/rotation utilities, single- and
two-transmon Hamiltonian models, bitstream propagation, and the fidelity
measures used throughout the paper's evaluation.
"""
