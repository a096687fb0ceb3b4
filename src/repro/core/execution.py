"""Execution-time model and the Impossible-MIMD baseline (Fig. 9).

The paper normalises DigiQ's circuit execution time to an *Impossible MIMD*
controller: a hypothetical system with the same gate times as DigiQ (which
are also similar to today's microwave prototypes) but unlimited parallelism
and no decomposition overhead.  The comparison quantifies what the SIMD
restriction and the longer gate decompositions cost.

:func:`execution_time_ns` runs the SIMD scheduler; :func:`impossible_mimd_time_ns`
computes the baseline; :func:`normalized_execution_time` is their ratio (one
bar of Fig. 9).  All three read the compiled circuit's moment profile
(:func:`~repro.core.scheduler.compiled_profile`), built once per SIMD group
count and shared by every design costed on that circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .. import telemetry
from ..compiler.pipeline import CompiledCircuit
from .architecture import DigiQConfig, single_qubit_gate_time_ns
from .scheduler import SIMDScheduler, SIMDScheduleResult, compiled_profile


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
    profile, _ = compiled_profile(compiled, config.groups)
    durations = []
    for _, num_two, has_u3, has_other_pulsed, _ in profile.classes:
        duration = config.cz_time_ns if num_two else 0.0
        if has_u3 or has_other_pulsed:
            duration = max(duration, single_gate_ns)
        durations.append(duration)
    # One moment at a time, left to right: a compensated sum() (Python
    # 3.12+) would change the last bits of the Fig. 9 ratio.
    total = 0.0
    for class_id in profile.class_ids:
        total += durations[class_id]
    return total


def normalized_execution_time(
    compiled: CompiledCircuit,
    config: DigiQConfig,
    benchmark_name: Optional[str] = None,
) -> ExecutionEstimate:
    """One Fig. 9 bar: DigiQ time over Impossible-MIMD time for a benchmark.

    Bumps ``simd.profile.hit`` or ``.miss`` once, for the compiled circuit's
    moment profile under ``config``'s group count.
    """
    _, hit = compiled_profile(compiled, config.groups)
    telemetry.counter("simd.profile.hit" if hit else "simd.profile.miss").inc()
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
