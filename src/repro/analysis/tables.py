"""Regeneration of the paper's tables as structured data.

Each function returns a list of plain-dict rows so the benchmark harness and
the examples can print or assert on them directly:

* :func:`~repro.core.architecture.design_space_table` — Table I (qualitative
  design-space summary), kept beside the configurations it describes.
* :func:`parking_frequency_table_rows` — Table II (optimal parking
  frequencies and drift tolerance for Rz(phi) with N = 255).
* :func:`cell_library_table` — Table III (the RSFQ cell library).
* :func:`benchmark_table` — Table IV (the NISQ benchmark suite, with the
  instance sizes produced at a chosen device scale).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..circuits.benchmarks import TABLE_IV_NAMES, build_benchmark
from ..core.rz_delay import parking_frequency_table
from ..hardware.cells import table3_rows

#: Human-readable benchmark descriptions (Table IV).
BENCHMARK_DESCRIPTIONS: Dict[str, str] = {
    "qgan": "Quantum generative adversarial learning network",
    "ising": "Linear Ising model spin chain simulation",
    "bv": "Bernstein-Vazirani algorithm",
    "add1": "Ripple-carry adder (Cuccaro)",
    "add2": "Parallel carry-lookahead adder",
    "sqrt": "Square root via Grover search",
}


def parking_frequency_table_rows(
    error_threshold: float = 1e-4,
    n_slots: int = 255,
    frequencies: Optional[Sequence[float]] = None,
) -> List[Dict[str, float]]:
    """Table II rows: parking frequency, drift tolerance, worst-case Rz error."""
    return [row.as_row() for row in parking_frequency_table(
        frequencies=frequencies, error_threshold=error_threshold, n_slots=n_slots
    )]


def cell_library_table() -> List[Dict[str, float]]:
    """Table III rows: RSFQ cell name, area, JJ count, delay."""
    return table3_rows()


def benchmark_table(num_qubits: int = 64, seed: int = 7) -> List[Dict[str, object]]:
    """Table IV rows, with circuit statistics at the chosen device scale.

    Deliberately restricted to the paper's six benchmarks — the extended
    suite (QFT, QAOA) lives outside Table IV.
    """
    rows = []
    for name in TABLE_IV_NAMES:
        circuit = build_benchmark(name, num_qubits=num_qubits, seed=seed)
        rows.append(
            {
                "benchmark": name,
                "description": BENCHMARK_DESCRIPTIONS[name],
                "qubits": circuit.num_qubits,
                "gates": len(circuit),
                "two_qubit_gates": circuit.num_two_qubit_gates(),
                "depth": circuit.depth(),
            }
        )
    return rows
