"""GHZ-phase benchmark: a non-Clifford circuit with a two-amplitude support.

One Hadamard opens a two-amplitude superposition, a CX ladder stretches it
into an ``n``-qubit GHZ core, and seeded layers of arbitrary ``rz`` phases
interleaved with further CX ladders dress it with non-Clifford structure —
without ever branching again.  The statevector therefore holds exactly two
nonzero amplitudes from the second gate to the last, at any register width.
It is a registered benchmark like the others; its fidelity runs on the dense
trajectory kernel, so they are bounded by that kernel's 24-qubit ceiling.
"""

from __future__ import annotations

import numpy as np

from ..circuit import QuantumCircuit


def ghz_phase_circuit(
    num_qubits: int = 32,
    num_layers: int = 3,
    seed: int = 7,
) -> QuantumCircuit:
    """Build a GHZ state dressed with seeded phase/entangling layers.

    Parameters
    ----------
    num_qubits:
        Register width (>= 2); the support stays at two amplitudes
        regardless of this value.
    num_layers:
        Number of (rz layer, CX ladder) repetitions after the initial GHZ
        preparation; depth scales linearly.
    seed:
        Seeds the rz angles, so instances are reproducible.
    """
    if num_qubits < 2:
        raise ValueError("the GHZ-phase benchmark needs at least 2 qubits")
    if num_layers < 1:
        raise ValueError("need at least one phase layer")
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name=f"ghz_{num_qubits}")
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    for _ in range(num_layers):
        for qubit in range(num_qubits):
            circuit.rz(float(rng.uniform(0.0, 2.0 * np.pi)), qubit)
        for qubit in range(num_qubits - 1):
            circuit.cx(qubit, qubit + 1)
    return circuit
