"""Execution-time model and the Impossible-MIMD baseline (Fig. 9).

The paper normalises DigiQ's circuit execution time to an *Impossible MIMD*
controller: a hypothetical system with the same gate times as DigiQ (which
are also similar to today's microwave prototypes) but unlimited parallelism
and no decomposition overhead.  The comparison quantifies what the SIMD
restriction and the longer gate decompositions cost.

:func:`execution_time_ns` runs the SIMD scheduler; :func:`impossible_mimd_time_ns`
computes the baseline; :func:`normalized_execution_time` is their ratio (one
bar of Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..compiler.pipeline import CompiledCircuit
from .architecture import DigiQConfig, single_qubit_gate_time_ns
from .scheduler import SIMDScheduler, SIMDScheduleResult


@dataclass(frozen=True)
class ExecutionEstimate:
    """Execution time of one benchmark on one DigiQ configuration."""

    benchmark: str
    config_label: str
    digiq_time_ns: float
    mimd_time_ns: float
    total_cycles: int
    serialization_overhead: float

    @property
    def normalized_time(self) -> float:
        """DigiQ execution time normalised to the Impossible MIMD baseline."""
        if self.mimd_time_ns <= 0:
            return float("inf")
        return self.digiq_time_ns / self.mimd_time_ns

    def as_row(self) -> Dict[str, object]:
        """Row for the Fig. 9 table."""
        return {
            "benchmark": self.benchmark,
            "design": self.config_label,
            "digiq_time_us": self.digiq_time_ns * 1e-3,
            "mimd_time_us": self.mimd_time_ns * 1e-3,
            "normalized_time": self.normalized_time,
            "serialization_overhead": self.serialization_overhead,
        }


def execution_time_ns(compiled: CompiledCircuit, config: DigiQConfig) -> SIMDScheduleResult:
    """DigiQ execution time of a compiled circuit (SIMD scheduling result)."""
    return SIMDScheduler(config).schedule(compiled)


def impossible_mimd_time_ns(
    compiled: CompiledCircuit,
    config: DigiQConfig,
) -> float:
    """Execution time of the Impossible MIMD baseline, in ns.

    The baseline applies every moment's gates fully in parallel: a moment
    takes as long as its slowest gate — the CZ time for moments containing a
    two-qubit gate, one single-qubit gate time for moments of single-qubit
    gates, and nothing for moments that only carry virtual Rz gates.
    """
    single_gate_ns = max(
        single_qubit_gate_time_ns(config.group_frequency(group))
        for group in range(config.groups)
    )
    total = 0.0
    for moment in compiled.schedule.moments:
        two_qubit = pulsed = False
        for gate in moment.gates:
            width = len(gate.qubits)
            if width == 2:
                two_qubit = True
            elif width == 1 and gate.name != "rz":
                pulsed = True
        duration = config.cz_time_ns if two_qubit else 0.0
        if pulsed:
            duration = max(duration, single_gate_ns)
        total += duration
    return total


def normalized_execution_time(
    compiled: CompiledCircuit,
    config: DigiQConfig,
    benchmark_name: Optional[str] = None,
) -> ExecutionEstimate:
    """One Fig. 9 bar: DigiQ time over Impossible-MIMD time for a benchmark."""
    result = execution_time_ns(compiled, config)
    mimd = impossible_mimd_time_ns(compiled, config)
    return ExecutionEstimate(
        benchmark=benchmark_name or compiled.source.name,
        config_label=config.label,
        digiq_time_ns=result.total_time_ns,
        mimd_time_ns=mimd,
        total_cycles=result.total_cycles,
        serialization_overhead=result.serialization_overhead,
    )
