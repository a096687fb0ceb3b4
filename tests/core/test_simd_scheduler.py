"""Pins the SIMD scheduler: the Fig. 9 controller-cycle model (Sec. IV-B).

Three layers of checks:

* **Goldens.**  ``golden_simd_schedules.json`` holds ``total_cycles``,
  ``ideal_cycles`` and ``serialization_overhead`` for every Table IV
  benchmark at 8, 16 and 36 requested qubits on a grid of DigiQ_opt
  (G in {1, 2, 4} x BS in {1, 2, 4, 8, 16}) and DigiQ_min (G in {1, 2} x
  BS in {2, 4}) controllers.  The small-BS / few-group corners serialize,
  so the greedy grant loop is pinned too, not only its short-circuits.
* **Reference oracle.**  :func:`reference_moment_cost` is the scheduler's
  original per-moment implementation (hash every gate's delays, then run
  the greedy grant loop), kept here verbatim.  The production scheduler
  must produce equal :class:`MomentCost` objects moment by moment.
* **Properties** of the model, over random moments on grid devices.
* **One moment profile per compiled circuit.**  The designs costed on one
  compiled circuit share its profile; totals and the Impossible-MIMD time
  must equal the per-moment reference, and a hand-built ``Schedule`` is
  always profiled afresh.

To regenerate the goldens after an intentional model change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/core/test_simd_scheduler.py
"""

import hashlib
import json
import os
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.circuits.benchmarks import TABLE_IV_NAMES, build_benchmark
from repro.circuits.gate import Gate
from repro.compiler import compile_circuit
from repro.compiler.scheduling import Moment, Schedule
from repro import telemetry
from repro.core import scheduler as scheduler_module
from repro.core.architecture import DigiQConfig, single_qubit_gate_time_ns
from repro.core.execution import normalized_execution_time
from repro.runtime.dispatch import compute_job_keys
from repro.runtime.jobs import execute_compile_group
from repro.runtime.spec import ExperimentSpec
from repro.core.scheduler import GateRequirement, MomentCost, SIMDScheduler
from tests.oracles import moment_cost, schedule_moments

GOLDEN_PATH = Path(__file__).parent / "golden_simd_schedules.json"

QUBITS = (8, 16, 36)

CONFIGS = {
    **{
        f"opt-g{groups}-bs{bs}": DigiQConfig.opt(groups=groups, bitstreams=bs)
        for groups in (1, 2, 4)
        for bs in (1, 2, 4, 8, 16)
    },
    **{
        f"min-g{groups}-bs{bs}": DigiQConfig.minimal(groups=groups, bitstreams=bs)
        for groups in (1, 2)
        for bs in (2, 4)
    },
}


@lru_cache(maxsize=None)
def compiled_benchmark(name, qubits):
    return compile_circuit(build_benchmark(name, num_qubits=qubits, seed=0), seed=0)


# -- reference oracle: the original per-moment model --------------------------------


def reference_delays(gate, config):
    if gate.name == "rz":
        return ()
    if config.is_opt:
        pulses = 2 if gate.name == "u3" else 1
    else:
        typical = config.typical_u3_cycles()
        pulses = typical if gate.name == "u3" else max(3, typical // 2)
    qubit = gate.qubits[0]
    delays = []
    for step in range(pulses):
        payload = f"{qubit}:{gate.name}:{tuple(round(p, 6) for p in gate.params)}:{step}"
        digest = hashlib.sha256(payload.encode()).digest()
        delays.append(int.from_bytes(digest[:4], "little") % (config.n_delay_slots + 1))
    return tuple(delays)


def reference_requirement(gate, config, num_qubits):
    qubit = gate.qubits[0]
    group = config.group_of_qubit(qubit, num_qubits)
    return GateRequirement(group=group, delays=reference_delays(gate, config))


def reference_single_qubit_cycles(requirements, config):
    if not requirements:
        return 0, 0
    ideal = max(req.cycles for req in requirements)
    if not config.is_opt:
        return ideal, ideal
    bs = config.bitstreams
    progress = {id(req): 0 for req in requirements}
    pending = [req for req in requirements if req.cycles > 0]
    cycles = 0
    while pending:
        cycles += 1
        votes = {}
        for req in pending:
            votes.setdefault(req.group, Counter())[req.delays[progress[id(req)]]] += 1
        granted = {
            group: {value for value, _ in counter.most_common(bs)}
            for group, counter in votes.items()
        }
        still_pending = []
        for req in pending:
            if req.delays[progress[id(req)]] in granted[req.group]:
                progress[id(req)] += 1
            if progress[id(req)] < req.cycles:
                still_pending.append(req)
        pending = still_pending
    return cycles, ideal


def reference_moment_cost(moment, index, num_qubits, config):
    requirements = [
        reference_requirement(gate, config, num_qubits)
        for gate in moment.single_qubit_gates
    ]
    single_cycles, ideal_single = reference_single_qubit_cycles(requirements, config)
    two_qubit_cycles = config.cz_decomposed_cycles() if moment.two_qubit_gates else 0
    return MomentCost(
        index=index,
        single_qubit_cycles=single_cycles,
        two_qubit_cycles=two_qubit_cycles,
        ideal_cycles=max(ideal_single, two_qubit_cycles),
        num_single_qubit_gates=len(moment.single_qubit_gates),
        num_two_qubit_gates=len(moment.two_qubit_gates),
    )


def assert_matches_reference(scheduler, schedule, num_qubits):
    result = schedule_moments(scheduler, schedule, num_qubits)
    expected = [
        reference_moment_cost(moment, index, num_qubits, scheduler.config)
        for index, moment in enumerate(schedule.moments)
    ]
    assert result.moments == expected
    assert result.total_cycles == sum(cost.cycles for cost in expected)
    assert result.ideal_cycles == sum(cost.ideal_cycles for cost in expected)
    for index, moment in enumerate(schedule.moments):
        assert moment_cost(scheduler, moment, index, num_qubits) == expected[index]


# -- goldens ------------------------------------------------------------------------


def golden_entry(result):
    return {
        "total_cycles": result.total_cycles,
        "ideal_cycles": result.ideal_cycles,
        "serialization_overhead": result.serialization_overhead,
    }


def current_goldens():
    return {
        f"{name}@{qubits}q/{label}": golden_entry(
            SIMDScheduler(config).schedule(compiled_benchmark(name, qubits))
        )
        for name in TABLE_IV_NAMES
        for qubits in QUBITS
        for label, config in CONFIGS.items()
    }


class TestGoldenSchedules:
    def test_schedules_match_golden(self):
        actual = current_goldens()
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_PATH.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
            pytest.skip("SIMD schedule goldens regenerated")
        assert actual == json.loads(GOLDEN_PATH.read_text())

    def test_golden_grid_reaches_the_greedy_grant_loop(self):
        # A moment with only virtual Rz gates is charged one cycle against an
        # ideal of zero; anything beyond that is real bitstream serialization.
        goldens = json.loads(GOLDEN_PATH.read_text())
        serializing = []
        for key, entry in goldens.items():
            case, label = key.split("/")
            name, qubits = case.split("@")
            compiled = compiled_benchmark(name, int(qubits[:-1]))
            virtual_only = sum(
                1
                for moment in compiled.schedule.moments
                if moment.gates and all(gate.name == "rz" for gate in moment.gates)
            )
            if entry["total_cycles"] - entry["ideal_cycles"] > virtual_only:
                serializing.append(key)
                assert label.startswith("opt-"), key
        assert len(serializing) >= 100


# -- the reference oracle, moment by moment -----------------------------------------


ORACLE_CASES = [
    pytest.param(
        name,
        qubits,
        marks=[pytest.mark.slow] if (name, qubits) == ("sqrt", 36) else [],
    )
    for name in TABLE_IV_NAMES
    for qubits in QUBITS
]


@pytest.mark.parametrize("name,qubits", ORACLE_CASES)
def test_moment_costs_match_reference_oracle(name, qubits):
    compiled = compiled_benchmark(name, qubits)
    for config in CONFIGS.values():
        assert_matches_reference(
            SIMDScheduler(config), compiled.schedule, compiled.coupling.num_qubits
        )


# -- properties of the model over random moments -------------------------------------


ONE_QUBIT_GATES = ("rz", "u3", "rx", "sx")


@st.composite
def random_schedules(draw):
    """A few moments of disjoint-qubit gates on a square grid device.

    Few distinct angles keep repeated (qubit, gate) requests likely, and
    the configs below use few delay slots, so groups often ask for equal
    delay values: that is where the greedy grant's vote counts matter.
    """
    num_qubits = draw(st.sampled_from((4, 9, 16, 36)))
    moments = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(range(num_qubits)))
        num_cz = draw(st.integers(0, num_qubits // 4))
        num_single = draw(st.integers(0, num_qubits - 2 * num_cz))
        gates = [Gate("cz", (order[2 * i], order[2 * i + 1])) for i in range(num_cz)]
        for qubit in order[2 * num_cz : 2 * num_cz + num_single]:
            name = draw(st.sampled_from(ONE_QUBIT_GATES))
            params = () if name == "sx" else (draw(st.sampled_from((0.0, 0.5, 1.5))),)
            gates.append(Gate(name, (qubit,), params))
        moments.append(Moment(draw(st.permutations(gates))))
    return Schedule(moments=moments, num_qubits=num_qubits)


def random_configs(variant=None):
    return st.builds(
        DigiQConfig,
        variant=st.sampled_from(("opt", "min")) if variant is None else st.just(variant),
        groups=st.integers(1, 4),
        bitstreams=st.integers(1, 8),
        n_delay_slots=st.sampled_from((1, 2, 3, 255)),
    )


def max_occupancy(moment, config):
    """Largest number of pulsed (non-Rz) single-qubit gates in one group."""
    occupancy = Counter(
        gate.qubits[0] % config.groups
        for gate in moment.gates
        if gate.is_single_qubit and gate.name != "rz"
    )
    return max(occupancy.values(), default=0)


def virtual_only(moment):
    """1 for a moment of only virtual Rz gates: charged a cycle, ideal 0."""
    return int(bool(moment.gates) and all(gate.name == "rz" for gate in moment.gates))


@settings(max_examples=150, deadline=None)
@given(random_schedules(), random_configs())
def test_random_moments_match_reference_oracle(schedule, config):
    assert_matches_reference(SIMDScheduler(config), schedule, schedule.num_qubits)


@settings(max_examples=150, deadline=None)
@given(random_schedules(), random_configs())
def test_total_cycles_at_least_ideal(schedule, config):
    result = schedule_moments(SIMDScheduler(config), schedule, schedule.num_qubits)
    assert result.total_cycles >= result.ideal_cycles
    assert result.serialization_overhead >= 0


@settings(max_examples=150, deadline=None)
@given(random_schedules(), random_configs())
def test_enough_bitstreams_never_serialize(schedule, config):
    config = replace(
        config,
        bitstreams=max(max_occupancy(moment, config) for moment in schedule.moments) or 1,
    )
    result = schedule_moments(SIMDScheduler(config), schedule, schedule.num_qubits)
    for moment, cost in zip(schedule.moments, result.moments):
        assert cost.single_qubit_cycles <= cost.ideal_cycles
        assert cost.cycles - cost.ideal_cycles == virtual_only(moment)


@settings(max_examples=150, deadline=None)
@given(random_schedules(), random_configs(variant="min"))
def test_digiq_min_never_serializes(schedule, config):
    result = schedule_moments(SIMDScheduler(config), schedule, schedule.num_qubits)
    for moment, cost in zip(schedule.moments, result.moments):
        deepest = max(
            (len(reference_delays(gate, config)) for gate in moment.gates if gate.is_single_qubit),
            default=0,
        )
        assert cost.single_qubit_cycles == deepest
        assert cost.cycles - cost.ideal_cycles == virtual_only(moment)


#: Seven gates in one group whose greedy grant takes more cycles at BS = 3
#: than at BS = 2.  Synthetic delays with 5 delay slots, in gate order:
#: (1, 2), (1,), (3,), (2, 0), (3,), (2, 3), (5, 3).  At BS = 3 the first
#: cycle grants 1, 3 and 2 (three two-vote ties, broken by request order);
#: the second grants three one-vote values in request order; both times the
#: lone request for 5 loses, and qubit 12's two pulses then run alone.
NON_MONOTONE_MOMENT = Moment(
    [
        Gate("u3", (14,), (1.5,)),
        Gate("rx", (7,), (1.5,)),
        Gate("rx", (13,), (0.5,)),
        Gate("u3", (0,), (0.0,)),
        Gate("rx", (11,), (1.5,)),
        Gate("u3", (15,), (1.5,)),
        Gate("u3", (12,), (1.5,)),
    ]
)


def test_greedy_grant_is_not_monotone_in_bitstreams():
    cycles = {}
    for bs in range(1, 8):
        config = DigiQConfig.opt(groups=1, bitstreams=bs, n_delay_slots=5)
        cost = moment_cost(SIMDScheduler(config), NON_MONOTONE_MOMENT, 0, 16)
        assert cost == reference_moment_cost(NON_MONOTONE_MOMENT, 0, 16, config)
        cycles[bs] = cost.cycles
    assert cycles == {1: 6, 2: 3, 3: 4, 4: 2, 5: 2, 6: 2, 7: 2}


def test_table_iv_cycles_non_increasing_in_bitstreams():
    goldens = json.loads(GOLDEN_PATH.read_text())
    for name in TABLE_IV_NAMES:
        for qubits in QUBITS:
            for groups in (1, 2, 4):
                totals = [
                    goldens[f"{name}@{qubits}q/opt-g{groups}-bs{bs}"]["total_cycles"]
                    for bs in (1, 2, 4, 8, 16)
                ]
                assert totals == sorted(totals, reverse=True), (name, qubits, groups)


def test_out_of_range_qubit_is_rejected():
    schedule = Schedule(moments=[Moment([Gate("rz", (4,), (0.5,))])], num_qubits=5)
    for config in (DigiQConfig.opt(), DigiQConfig.minimal()):
        with pytest.raises(ValueError, match="outside device"):
            schedule_moments(SIMDScheduler(config), schedule, 4)


# -- delays are hashed only where a group can serialize ------------------------------


def count_delay_calls(monkeypatch):
    calls = []
    original = scheduler_module._synthetic_delays

    def counting(gate, config):
        calls.append(gate)
        return original(gate, config)

    monkeypatch.setattr(scheduler_module, "_synthetic_delays", counting)
    return calls


def test_table_iv_designs_at_16q_never_hash_delays(monkeypatch):
    calls = count_delay_calls(monkeypatch)
    for backend in ("digiq-opt8", "digiq-opt16", "digiq-min2"):
        config = get_backend(backend).config
        for name in TABLE_IV_NAMES:
            SIMDScheduler(config).schedule(compiled_benchmark(name, 16))
    assert calls == []


def test_only_over_subscribed_groups_hash_delays(monkeypatch):
    calls = count_delay_calls(monkeypatch)
    config = DigiQConfig.opt(groups=1, bitstreams=2)
    compiled = compiled_benchmark("ising", 16)
    SIMDScheduler(config).schedule(compiled)
    over_subscribed = [
        moment for moment in compiled.schedule.moments if max_occupancy(moment, config) > 2
    ]
    assert over_subscribed
    assert len(calls) == sum(
        1 for moment in over_subscribed for gate in moment.gates
        if gate.is_single_qubit and gate.name != "rz"
    )


# -- one moment profile per compiled circuit ------------------------------------------


def reference_mimd_time_ns(schedule, config):
    """The Impossible-MIMD baseline, one moment at a time, left to right."""
    single_gate_ns = max(
        single_qubit_gate_time_ns(config.group_frequency(group)) for group in range(config.groups)
    )
    total = 0.0
    for moment in schedule.moments:
        two_qubit = any(len(gate.qubits) == 2 for gate in moment.gates)
        pulsed = any(len(gate.qubits) == 1 and gate.name != "rz" for gate in moment.gates)
        duration = config.cz_time_ns if two_qubit else 0.0
        if pulsed:
            duration = max(duration, single_gate_ns)
        total += duration
    return total


def reference_totals(schedule, num_qubits, config):
    """``(total_cycles, ideal_cycles, serialization_overhead)`` from the per-moment oracle."""
    total = ideal = 0
    for index, moment in enumerate(schedule.moments):
        cost = reference_moment_cost(moment, index, num_qubits, config)
        total += cost.cycles
        ideal += cost.ideal_cycles
    return total, ideal, (total - ideal) / ideal if ideal else 0.0


def count_profile_builds(monkeypatch):
    builds = []
    original = scheduler_module.moment_profile

    def counting(schedule, groups, num_qubits):
        builds.append(groups)
        return original(schedule, groups, num_qubits)

    monkeypatch.setattr(scheduler_module, "moment_profile", counting)
    return builds


@pytest.mark.parametrize("name,qubits", ORACLE_CASES)
def test_profiled_totals_and_mimd_time_match_the_reference(name, qubits):
    compiled = compiled_benchmark(name, qubits)
    num_qubits = compiled.coupling.num_qubits
    compiled.simd_profiles.clear()
    for label, config in CONFIGS.items():
        total, ideal, overhead = reference_totals(compiled.schedule, num_qubits, config)
        result = SIMDScheduler(config).schedule(compiled)
        estimate = normalized_execution_time(compiled, config)
        assert (result.total_cycles, result.ideal_cycles) == (total, ideal), label
        assert result.serialization_overhead == overhead, label
        assert estimate.total_cycles == total, label
        assert estimate.serialization_overhead == overhead, label
        mimd = reference_mimd_time_ns(compiled.schedule, config)
        assert estimate.mimd_time_ns.hex() == mimd.hex(), label
    assert sorted(compiled.simd_profiles) == [1, 2, 4]


def test_a_compile_group_of_three_designs_builds_one_profile(monkeypatch):
    builds = count_profile_builds(monkeypatch)
    specs = [
        ExperimentSpec(benchmark="bv", backend=backend, num_qubits=8, seed=11)
        for backend in ("digiq-opt8", "digiq-opt16", "digiq-min2")
    ]
    telemetry.reset()
    try:
        execute_compile_group(specs, compute_job_keys(specs))
        counters = telemetry.snapshot_metrics()["counters"]
    finally:
        telemetry.reset()
    assert builds == [2]
    assert (counters["simd.profile.miss"], counters["simd.profile.hit"]) == (1, 2)


def test_hand_built_schedules_are_costed_fresh(monkeypatch):
    compiled = compiled_benchmark("ising", 16)
    num_qubits = compiled.coupling.num_qubits
    config = DigiQConfig.opt(groups=1, bitstreams=2)
    SIMDScheduler(config).schedule(compiled)  # the compiled circuit now holds a G = 1 profile
    builds = count_profile_builds(monkeypatch)
    schedule = Schedule(
        moments=[Moment(list(moment.gates)) for moment in compiled.schedule.moments],
        num_qubits=num_qubits,
    )
    first = schedule_moments(SIMDScheduler(config), schedule, num_qubits)
    schedule.moments.append(Moment([Gate("u3", (q,), (0.5, 0.25, float(q))) for q in range(4)]))
    second = schedule_moments(SIMDScheduler(config), schedule, num_qubits)
    assert builds == [1, 1]
    assert first.total_cycles == SIMDScheduler(config).schedule(compiled).total_cycles
    total, ideal, _ = reference_totals(schedule, num_qubits, config)
    assert (second.total_cycles, second.ideal_cycles) == (total, ideal)
    assert second.total_cycles > first.total_cycles
    assert_matches_reference(SIMDScheduler(config), schedule, num_qubits)
