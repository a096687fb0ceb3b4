"""Bernstein-Vazirani benchmark.

The textbook BV circuit recovers an ``n``-bit secret string with a single
oracle query: Hadamards on all qubits, a phase oracle made of CX gates from
each secret-bit qubit into the ancilla, and a final layer of Hadamards.  The
paper's evaluation uses a 1024-bit instance (1023 data qubits + 1 ancilla on
the 1024-qubit device); the gate parallelism is low (the oracle CX gates all
share the ancilla), which is why BV shows almost no SIMD serialisation cost in
Fig. 9.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..circuit import QuantumCircuit


def bernstein_vazirani_circuit(
    num_bits: int = 1023,
    secret: Optional[Sequence[int]] = None,
    seed: int = 11,
) -> QuantumCircuit:
    """Build a Bernstein-Vazirani circuit over ``num_bits`` secret bits.

    The circuit uses ``num_bits + 1`` qubits (the last one is the oracle
    ancilla).  If ``secret`` is not given, a random secret with roughly half
    of the bits set is drawn from ``seed``.
    """
    if num_bits < 1:
        raise ValueError("need at least one secret bit")
    if secret is None:
        rng = np.random.default_rng(seed)
        secret = rng.integers(0, 2, size=num_bits).tolist()
    secret = [int(bit) for bit in secret]
    if len(secret) != num_bits or any(bit not in (0, 1) for bit in secret):
        raise ValueError("secret must be a 0/1 sequence of length num_bits")

    ancilla = num_bits
    circuit = QuantumCircuit(num_bits + 1, name=f"bv_{num_bits + 1}")

    # Prepare the ancilla in |-> and the data register in |+...+>.
    circuit.x(ancilla)
    circuit.h(ancilla)
    for qubit in range(num_bits):
        circuit.h(qubit)

    # Phase oracle: f(x) = secret . x
    for qubit, bit in enumerate(secret):
        if bit:
            circuit.cx(qubit, ancilla)

    for qubit in range(num_bits):
        circuit.h(qubit)
    # Return the ancilla to |1> so the final state is a computational basis state.
    circuit.h(ancilla)
    return circuit
