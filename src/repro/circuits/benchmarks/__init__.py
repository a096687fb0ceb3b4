"""NISQ benchmark generators (Table IV of the paper, plus extensions).

======  =========================================================
QGAN    Quantum generative adversarial learning ansatz
Ising   Digitized linear Ising spin-chain simulation
BV      Bernstein-Vazirani (1024-bit in the paper)
Add1    Cuccaro ripple-carry adder (256-bit in the paper)
Add2    Carry-lookahead adder (256-bit in the paper)
Sqrt10  10-bit square root via Grover search
QFT     Quantum Fourier transform (all-to-all; not in the paper)
QAOA    QAOA MaxCut on a seeded random graph (not in the paper)
GHZ     GHZ core + seeded phase layers (two-amplitude support)
======  =========================================================

:func:`build_benchmark` builds one of them scaled to a target device size.
Paper reproduction paths (Table IV, Fig. 9) use :data:`TABLE_IV_NAMES`; the
sweep runtime accepts everything in :data:`BENCHMARK_NAMES`.
"""

from __future__ import annotations

from ..circuit import QuantumCircuit
from .adders import (
    AdderLayout,
    carry_lookahead_adder_circuit,
    cuccaro_adder_circuit,
)
from .bernstein_vazirani import bernstein_vazirani_circuit
from .ghz import ghz_phase_circuit
from .grover_sqrt import GroverSqrtLayout, grover_sqrt_circuit
from .ising import ising_chain_circuit
from .qaoa import qaoa_maxcut_circuit, qaoa_maxcut_edges
from .qft import qft_circuit
from .qgan import qgan_circuit

#: The paper's six benchmarks, in the order Table IV lists them.
TABLE_IV_NAMES = ("qgan", "ising", "bv", "add1", "add2", "sqrt")

#: Every registered benchmark: Table IV plus the extended scenarios.
BENCHMARK_NAMES = TABLE_IV_NAMES + ("qft", "qaoa", "ghz")


def build_benchmark(name: str, num_qubits: int = 64, seed: int = 7) -> QuantumCircuit:
    """Build one Table IV benchmark scaled to (at most) ``num_qubits`` qubits.

    The paper evaluates all benchmarks on a 1024-qubit device; passing
    ``num_qubits=1024`` reproduces those instance sizes (BV 1024-bit,
    adders 256-bit, QGAN/Ising device-wide).  Smaller values produce
    structurally identical but smaller instances for quick runs and tests.
    """
    name = name.lower()
    if name == "qgan":
        return qgan_circuit(num_qubits=max(4, num_qubits), seed=seed)
    if name == "ising":
        return ising_chain_circuit(num_qubits=max(2, num_qubits))
    if name == "bv":
        return bernstein_vazirani_circuit(num_bits=max(1, num_qubits - 1), seed=seed)
    if name == "add1":
        width = max(1, (num_qubits - 2) // 4)
        circuit, _ = cuccaro_adder_circuit(num_bits=width)
        return circuit
    if name == "add2":
        width = max(1, num_qubits // 12)
        circuit, _ = carry_lookahead_adder_circuit(num_bits=width)
        return circuit
    if name == "sqrt":
        bits = 5 if num_qubits >= 40 else max(2, num_qubits // 8)
        circuit, _ = grover_sqrt_circuit(radicand=841 if bits == 5 else 9, num_result_bits=bits)
        return circuit
    if name == "qft":
        return qft_circuit(num_qubits=max(2, num_qubits))
    if name == "qaoa":
        return qaoa_maxcut_circuit(num_qubits=max(2, num_qubits), seed=seed)
    if name == "ghz":
        return ghz_phase_circuit(num_qubits=max(2, num_qubits), seed=seed)
    raise KeyError(f"unknown benchmark '{name}'; known: {BENCHMARK_NAMES}")


__all__ = [
    "AdderLayout",
    "BENCHMARK_NAMES",
    "GroverSqrtLayout",
    "TABLE_IV_NAMES",
    "bernstein_vazirani_circuit",
    "build_benchmark",
    "carry_lookahead_adder_circuit",
    "cuccaro_adder_circuit",
    "ghz_phase_circuit",
    "grover_sqrt_circuit",
    "ising_chain_circuit",
    "qaoa_maxcut_circuit",
    "qaoa_maxcut_edges",
    "qft_circuit",
    "qgan_circuit",
]
