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

Those facts do not depend on the design, only on the group count G: one
pass over a compiled circuit's moments (:func:`moment_profile`) sorts them
into a few classes, and each design then costs each class once.  The
profile is kept on the :class:`~repro.compiler.pipeline.CompiledCircuit`
(:func:`compiled_profile`), so the designs of one Fig. 9 row share it.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

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
    """Output of the SIMD scheduler for one compiled circuit.

    The per-moment breakdown :attr:`moments` is built on first read.
    """

    config: DigiQConfig
    total_cycles: int
    ideal_cycles: int
    controller_cycle_ns: float
    moment_costs: Callable[[], List[MomentCost]] = field(repr=False, compare=False)

    @cached_property
    def moments(self) -> List[MomentCost]:
        """Cost of each moment, in schedule order."""
        return self.moment_costs()

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


class MomentProfile(NamedTuple):
    """A schedule's moments sorted into design-independent classes, for one G.

    A class is ``(num_single, num_two, has_u3, has_other_pulsed,
    max_occupancy)``: the moment's 1q and 2q gate counts, whether it holds a
    ``u3`` and whether another pulsed (non-``rz``) gate, and the largest
    number of pulsed gates in one group.
    """

    classes: Tuple[Tuple[int, int, bool, bool, int], ...]
    #: Number of moments in each class.
    counts: Tuple[int, ...]
    #: Index into ``classes`` of each moment, in schedule order.
    class_ids: Tuple[int, ...]


def moment_profile(schedule: Schedule, groups: int, num_qubits: int) -> MomentProfile:
    """One pass over ``schedule``'s moments, classed for ``groups`` SIMD groups."""
    index_of: Dict[tuple, int] = {}
    counts: List[int] = []
    class_ids: List[int] = []
    for moment in schedule.moments:
        occupancy: Dict[int, int] = {}
        num_single = num_two = most = 0
        has_u3 = has_other = False
        for gate in moment.gates:
            qubits = gate.qubits
            width = len(qubits)
            if width == 2:
                num_two += 1
                continue
            if width != 1:
                continue
            qubit = qubits[0]
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit {qubit} outside device of {num_qubits}")
            num_single += 1
            name = gate.name
            if name == "rz":
                continue
            if name == "u3":
                has_u3 = True
            else:
                has_other = True
            group = qubit % groups
            held = occupancy[group] = occupancy.get(group, 0) + 1
            if held > most:
                most = held
        key = (num_single, num_two, has_u3, has_other, most)
        class_id = index_of.get(key)
        if class_id is None:
            class_id = index_of[key] = len(counts)
            counts.append(0)
        counts[class_id] += 1
        class_ids.append(class_id)
    return MomentProfile(tuple(index_of), tuple(counts), tuple(class_ids))


def compiled_profile(compiled: CompiledCircuit, groups: int) -> Tuple[MomentProfile, bool]:
    """``compiled``'s moment profile for ``groups``, and whether it was already built.

    Two racing first calls may both build it; the profiles are equal, so
    either serves.
    """
    profiles = compiled.simd_profiles
    profile = profiles.get(groups)
    if profile is not None:
        return profile, True
    profile = profiles[groups] = moment_profile(
        compiled.schedule, groups, compiled.coupling.num_qubits
    )
    return profile, False


def _pulsed_gate_cycles(config: DigiQConfig) -> Tuple[int, int]:
    """Controller cycles of a ``u3`` and of any other pulsed gate, synthetic model.

    DigiQ_opt needs two basis pulses for a generic ``u3`` and one for any
    other rotation; DigiQ_min needs its typical sequence depth for a ``u3``
    and at least three gates otherwise.  Virtual Rz gates take none, so a
    gate's count depends on its name only.
    """
    if config.is_opt:
        return 2, 1
    typical = config.typical_u3_cycles()
    return typical, max(3, typical // 2)


def _synthetic_delays(gate: Gate, config: DigiQConfig) -> Tuple[int, ...]:
    """Deterministic per-qubit delay sequence of a single-qubit gate.

    Different qubits generally need different delay values for the same
    logical gate (their drifts differ), which is what drives serialization.
    The delays are derived from a stable SHA-256 hash of (qubit, gate name,
    rounded parameters, pulse index): deterministic across runs, different
    across qubits, uniform over the delay range.
    """
    qubit = gate.qubits[0]
    u3_cycles, other_cycles = _pulsed_gate_cycles(config)
    pulses = 0 if gate.name == "rz" else u3_cycles if gate.name == "u3" else other_cycles
    delays = []
    for step in range(pulses):
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
        """Controller-cycle cost of one moment, as :meth:`schedule_moments` costs it."""
        (cost,) = self.schedule_moments(Schedule([moment], num_qubits), num_qubits).moments
        return replace(cost, index=index)

    def _granted_cost(
        self, moment: Moment, cost: MomentCost, index: int, num_qubits: int
    ) -> MomentCost:
        """``cost`` of an over-subscribed moment, its 1q cycles from the greedy grant.

        Only here are delay values hashed, one requirement per pulsed gate in
        gate order (the grant breaks vote ties by request order).
        """
        config = self.config
        single_cycles, _ = self._single_qubit_cycles(
            [
                GateRequirement(
                    group=config.group_of_qubit(gate.qubits[0], num_qubits),
                    delays=_synthetic_delays(gate, config),
                )
                for gate in moment.gates
                if len(gate.qubits) == 1 and gate.name != "rz"
            ]
        )
        return replace(cost, index=index, single_qubit_cycles=single_cycles)

    # -- whole-circuit scheduling -----------------------------------------------------

    def schedule(self, compiled: CompiledCircuit) -> SIMDScheduleResult:
        """Schedule a compiled circuit and return its controller-cycle cost."""
        profile, _ = compiled_profile(compiled, self.config.groups)
        return self._schedule_profile(profile, compiled.schedule, compiled.coupling.num_qubits)

    def schedule_moments(self, schedule: Schedule, num_qubits: int) -> SIMDScheduleResult:
        """Schedule an explicit moment list (used by tests and ablations)."""
        profile = moment_profile(schedule, self.config.groups, num_qubits)
        return self._schedule_profile(profile, schedule, num_qubits)

    def _schedule_profile(
        self, profile: MomentProfile, schedule: Schedule, num_qubits: int
    ) -> SIMDScheduleResult:
        """Cost ``schedule`` from its moment profile under this scheduler's G.

        Each class is costed once.  A moment whose class over-subscribes a
        group (DigiQ_opt, occupancy > BS) goes through the greedy grant
        (:meth:`_granted_cost`).
        """
        config = self.config
        u3_cycles, other_cycles = _pulsed_gate_cycles(config)
        costs: List[MomentCost] = []
        over_subscribed: List[bool] = []
        for num_single, num_two, has_u3, has_other, max_occupancy in profile.classes:
            single = max(u3_cycles if has_u3 else 0, other_cycles if has_other else 0)
            # A software-calibrated CZ is an echo sequence of Uqq pulses with
            # interleaved single-qubit gates (Sec. V-B), so it occupies far
            # more than one pulse worth of controller cycles.
            two = self._cz_cycles if num_two else 0
            # The class's cost; _moment_costs gives each moment its own index.
            costs.append(MomentCost(-1, single, two, max(single, two), num_single, num_two))
            # DigiQ_min broadcasts its whole gate set every cycle; DigiQ_opt
            # grants at most occupancy <= BS distinct delays per group.
            over_subscribed.append(config.is_opt and max_occupancy > config.bitstreams)
        total = ideal = 0
        for cost, count, granting in zip(costs, profile.counts, over_subscribed):
            if not granting:
                total += count * cost.cycles
                ideal += count * cost.ideal_cycles
        granted: Dict[int, MomentCost] = {}
        if any(over_subscribed):
            for index, class_id in enumerate(profile.class_ids):
                if over_subscribed[class_id]:
                    cost = granted[index] = self._granted_cost(
                        schedule.moments[index], costs[class_id], index, num_qubits
                    )
                    total += cost.cycles
                    ideal += cost.ideal_cycles
        return SIMDScheduleResult(
            config=config,
            total_cycles=total,
            ideal_cycles=ideal,
            controller_cycle_ns=self._cycle_ns,
            moment_costs=partial(_moment_costs, profile.class_ids, costs, granted),
        )


def _moment_costs(
    class_ids: Sequence[int], costs: Sequence[MomentCost], granted: Dict[int, MomentCost]
) -> List[MomentCost]:
    """Each moment's cost: its class's, or its own where the grant ran."""
    return [
        granted[index] if index in granted else replace(costs[class_id], index=index)
        for index, class_id in enumerate(class_ids)
    ]
