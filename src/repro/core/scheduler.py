"""SIMD scheduling of compiled circuits onto DigiQ (Sec. IV-B, Sec. VI-B.1).

The compiler produces a crosstalk-aware schedule of *moments* (sets of gates
with disjoint qubits).  DigiQ executes those moments under two additional
constraints that an ideal MIMD controller would not have:

* every single-qubit gate is a sequence of one or more controller cycles
  (its decomposition length);
* within one controller cycle, a SIMD group can broadcast at most ``BS``
  distinct SFQ gates (``BS`` distinct delay values for DigiQ_opt; the whole
  stored gate set for DigiQ_min, which therefore never serialises).

When the single-qubit gates of a moment need more distinct delay values than
``BS`` in some cycle, the extra qubits stall — this is the quantum gate
serialization the paper quantifies in Fig. 9.  :class:`SIMDScheduler` models
that cycle-by-cycle process and reports total controller cycles, per-moment
breakdowns, and the serialization overhead relative to a ``BS = infinity``
controller.

A group can only serialize when more than ``BS`` of its qubits need pulses
in the same moment: with at most ``BS`` requests, every cycle's distinct
delay values fit in the group's bitstreams.  So the scheduler costs most
moments from two cheap facts per gate, its pulse count and its group, and
consults the delay model (a SHA-256 hash, see :func:`_synthetic_delays`)
and the greedy grant loop only for moments where some group is
over-subscribed.
DigiQ_min never reads delay values at all, only sequence lengths.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..circuits.gate import Gate
from ..compiler.pipeline import CompiledCircuit
from ..compiler.scheduling import Moment, Schedule
from .architecture import DigiQConfig


@dataclass(frozen=True)
class GateRequirement:
    """Controller-cycle requirements of one scheduled single-qubit gate.

    Attributes
    ----------
    group:
        SIMD group of the gate's qubit.
    delays:
        The delay value needed in each of the gate's controller cycles
        (DigiQ_opt).  For DigiQ_min the values are the stored-gate indices,
        which never serialise, so they are informational only.
    """

    group: int
    delays: Tuple[int, ...]

    @property
    def cycles(self) -> int:
        """Number of controller cycles the gate occupies."""
        return len(self.delays)


@dataclass
class MomentCost:
    """Controller-cycle cost of one compiled moment."""

    index: int
    single_qubit_cycles: int
    two_qubit_cycles: int
    ideal_cycles: int
    num_single_qubit_gates: int
    num_two_qubit_gates: int

    @property
    def cycles(self) -> int:
        """Controller cycles this moment occupies (1q and 2q overlap)."""
        return max(self.single_qubit_cycles, self.two_qubit_cycles, 1 if (self.num_single_qubit_gates or self.num_two_qubit_gates) else 0)


@dataclass
class SIMDScheduleResult:
    """Output of the SIMD scheduler for one compiled circuit."""

    config: DigiQConfig
    moments: List[MomentCost]
    total_cycles: int
    ideal_cycles: int
    controller_cycle_ns: float

    @property
    def total_time_ns(self) -> float:
        """Total execution time in ns."""
        return self.total_cycles * self.controller_cycle_ns

    @property
    def serialization_overhead(self) -> float:
        """Fractional cycle overhead caused by the BS limit."""
        if self.ideal_cycles == 0:
            return 0.0
        return (self.total_cycles - self.ideal_cycles) / self.ideal_cycles

    def summary(self) -> Dict[str, float]:
        """Headline numbers as a plain dict."""
        return {
            "design": self.config.label,
            "total_cycles": self.total_cycles,
            "ideal_cycles": self.ideal_cycles,
            "total_time_ns": self.total_time_ns,
            "serialization_overhead": self.serialization_overhead,
        }


def _synthetic_pulses(gate: Gate, config: DigiQConfig) -> int:
    """Controller cycles of a single-qubit gate under the synthetic model.

    Virtual Rz gates take none.  DigiQ_opt needs two basis pulses for a
    generic ``u3`` and one for any other rotation; DigiQ_min needs its
    typical sequence depth for a ``u3`` and at least three gates otherwise.
    The count depends on the gate's name only.
    """
    if gate.name == "rz":
        return 0
    if config.is_opt:
        return 2 if gate.name == "u3" else 1
    typical = config.typical_u3_cycles()
    return typical if gate.name == "u3" else max(3, typical // 2)


def _synthetic_delays(gate: Gate, config: DigiQConfig) -> Tuple[int, ...]:
    """Deterministic per-qubit delay sequence of a single-qubit gate.

    Different qubits generally need different delay values for the same
    logical gate (their drifts differ), which is what drives serialization.
    The delays are derived from a stable SHA-256 hash of (qubit, gate name,
    rounded parameters, pulse index): deterministic across runs, different
    across qubits, uniform over the delay range.
    """
    qubit = gate.qubits[0]
    delays = []
    for step in range(_synthetic_pulses(gate, config)):
        payload = f"{qubit}:{gate.name}:{tuple(round(p, 6) for p in gate.params)}:{step}"
        digest = hashlib.sha256(payload.encode()).digest()
        delays.append(int.from_bytes(digest[:4], "little") % (config.n_delay_slots + 1))
    # Qubits in the same group asking for the same logical gate with the same
    # parameters and (near-)equal drift would share delays; the hash keyed by
    # qubit index models the common case where drift forces distinct values.
    return tuple(delays)


class SIMDScheduler:
    """Schedules compiled circuits onto a DigiQ controller configuration.

    Parameters
    ----------
    config:
        The DigiQ controller configuration (variant, G, BS, timings).
    """

    def __init__(self, config: DigiQConfig):
        self.config = config
        # Per-config constants, hoisted out of the per-moment loop.
        self._cz_cycles = config.cz_decomposed_cycles()
        self._cycle_ns = config.controller_cycle_ns()
        # Synthetic pulse count per gate name (see _synthetic_pulses).
        self._pulse_counts: Dict[str, int] = {}

    # -- per-moment scheduling -------------------------------------------------------

    def _single_qubit_cycles(self, requirements: Sequence[GateRequirement]) -> Tuple[int, int]:
        """(actual cycles, ideal cycles) needed by a moment's single-qubit gates.

        DigiQ_min broadcasts its whole stored gate set every cycle, so the
        moment simply takes as long as its deepest decomposition.  DigiQ_opt
        serialises when more than ``BS`` distinct delay values are requested
        in the same cycle; the model grants, each cycle, the ``BS`` delay
        values requested by the most waiting qubits.
        """
        if not requirements:
            return 0, 0
        ideal = max(req.cycles for req in requirements)
        if not self.config.is_opt:
            return ideal, ideal

        bs = self.config.bitstreams
        progress = {id(req): 0 for req in requirements}
        pending = [req for req in requirements if req.cycles > 0]
        cycles = 0
        while pending:
            cycles += 1
            # Votes for delay values, per group.
            votes: Dict[int, Counter] = {}
            for req in pending:
                votes.setdefault(req.group, Counter())[req.delays[progress[id(req)]]] += 1
            granted: Dict[int, set] = {
                group: {value for value, _ in counter.most_common(bs)}
                for group, counter in votes.items()
            }
            still_pending = []
            for req in pending:
                wanted = req.delays[progress[id(req)]]
                if wanted in granted[req.group]:
                    progress[id(req)] += 1
                if progress[id(req)] < req.cycles:
                    still_pending.append(req)
            pending = still_pending
            if cycles > 100000:  # pragma: no cover - safety valve
                raise RuntimeError("SIMD scheduling did not converge")
        return cycles, ideal

    def moment_cost(self, moment: Moment, index: int, num_qubits: int) -> MomentCost:
        """Controller-cycle cost of one compiled moment, from one pass over its gates.

        A single-qubit gate is known by two cheap facts: its synthetic pulse
        count and its group.  Delay values are hashed, and the greedy grant
        loop run, only when some group has more than ``BS`` gates that need
        pulses; otherwise every group's requests fit in its bitstreams each
        cycle and the moment takes its ideal cycles.
        """
        config = self.config
        pulse_counts = self._pulse_counts
        group_of_qubit = config.group_of_qubit
        pulsed: List[Tuple[Gate, int]] = []
        occupancy: Dict[int, int] = {}
        num_single = num_two = ideal_single = 0
        for gate in moment.gates:
            width = len(gate.qubits)
            if width == 2:
                num_two += 1
                continue
            if width != 1:
                continue
            num_single += 1
            group = group_of_qubit(gate.qubits[0], num_qubits)
            pulses = pulse_counts.get(gate.name)
            if pulses is None:
                pulses = pulse_counts[gate.name] = _synthetic_pulses(gate, config)
            if pulses:
                pulsed.append((gate, group))
                occupancy[group] = occupancy.get(group, 0) + 1
                if pulses > ideal_single:
                    ideal_single = pulses

        if not config.is_opt or max(occupancy.values(), default=0) <= config.bitstreams:
            # DigiQ_min broadcasts its whole gate set every cycle; DigiQ_opt
            # grants at most occupancy <= BS distinct delays per group.
            single_cycles = ideal_single
        else:
            single_cycles, ideal_single = self._single_qubit_cycles(
                [
                    GateRequirement(group=group, delays=_synthetic_delays(gate, config))
                    for gate, group in pulsed
                ]
            )
        # A software-calibrated CZ is an echo sequence of Uqq pulses with
        # interleaved single-qubit gates (Sec. V-B), so it occupies far more
        # than one pulse worth of controller cycles.
        two_qubit_cycles = self._cz_cycles if num_two else 0
        return MomentCost(
            index=index,
            single_qubit_cycles=single_cycles,
            two_qubit_cycles=two_qubit_cycles,
            ideal_cycles=max(ideal_single, two_qubit_cycles),
            num_single_qubit_gates=num_single,
            num_two_qubit_gates=num_two,
        )

    # -- whole-circuit scheduling -----------------------------------------------------

    def schedule(self, compiled: CompiledCircuit) -> SIMDScheduleResult:
        """Schedule a compiled circuit and return its controller-cycle cost."""
        return self.schedule_moments(compiled.schedule, compiled.coupling.num_qubits)

    def schedule_moments(self, schedule: Schedule, num_qubits: int) -> SIMDScheduleResult:
        """Schedule an explicit moment list (used by tests and ablations)."""
        costs = [
            self.moment_cost(moment, index, num_qubits)
            for index, moment in enumerate(schedule.moments)
        ]
        total = sum(cost.cycles for cost in costs)
        ideal = sum(cost.ideal_cycles for cost in costs)
        return SIMDScheduleResult(
            config=self.config,
            moments=costs,
            total_cycles=total,
            ideal_cycles=ideal,
            controller_cycle_ns=self._cycle_ns,
        )
