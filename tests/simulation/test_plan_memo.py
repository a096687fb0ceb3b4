"""The fused-circuit memo behind ``build_trajectory_plan``.

A plan's circuit half (fused matrices, relabeling, ideal state) is built
once per exact gate stream and shared across noise models; only the kick
probabilities are built per plan.  Sharing must change no bit of any plan
or result, and the memo must stay bounded.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.circuits.circuit import QuantumCircuit, circuit_fingerprint
from repro.runtime.executor import WorkerPool
from repro.runtime.jobs import compile_spec, execute_compile_group, job_key
from repro.runtime.spec import ExperimentSpec, FidelityOptions
from repro.simulation import NoiseModel, run_trajectories, trajectories
from repro.simulation.trajectories import build_trajectory_plan

NOISE_BACKENDS = ("digiq-opt8", "cryo-cmos-grid")


@pytest.fixture(autouse=True)
def empty_memo():
    trajectories._FUSED.clear()
    telemetry.reset()
    yield
    trajectories._FUSED.clear()
    telemetry.reset()


def memo_counts():
    """(hits, misses) counted so far."""
    return (
        telemetry.counter("sim.plan.memo.hit").value,
        telemetry.counter("sim.plan.memo.miss").value,
    )


def compiled_job():
    """The ising 8-q physical circuit and the noise model of each backend."""
    specs = [
        ExperimentSpec(benchmark="ising", backend=name, num_qubits=8)
        for name in NOISE_BACKENDS
    ]
    physical = compile_spec(specs[0]).physical_circuit
    couplers = sorted(physical.two_qubit_pairs())
    noises = [
        spec.backend.noise_model(physical.num_qubits, couplers=couplers, seed=0)
        for spec in specs
    ]
    return physical, noises


def plan_bytes(plan):
    """Every bit of a plan, both halves."""
    fused = plan.fused
    return (
        fused.num_qubits,
        [matrix.tobytes() for matrix in fused.matrices],
        fused.qubits,
        fused.noisy,
        fused.targets,
        None if fused.restore is None else fused.restore.tobytes(),
        fused.ideal_state.tobytes(),
        [np.asarray(probs).tobytes() for probs in plan.kick_probs],
        plan.site_probs.tobytes(),
        plan.site_qubits,
        plan.site_stops,
        plan.kick_cumweights.tobytes(),
    )


def result_bytes(result):
    return (
        np.asarray(result.fidelities).tobytes(),
        np.asarray(result.success_probs).tobytes(),
        result.ideal_success,
        result.kicks,
    )


def one_rotation(num_qubits, angle):
    circuit = QuantumCircuit(num_qubits)
    circuit.h(0).rx(angle, 0)
    return circuit


def test_one_half_serves_two_noise_models_bit_for_bit():
    circuit, noises = compiled_job()
    fresh = []
    for noise in noises:
        trajectories._FUSED.clear()
        fresh.append(build_trajectory_plan(circuit, noise))
    trajectories._FUSED.clear()
    before = memo_counts()
    shared = [build_trajectory_plan(circuit, noise) for noise in noises]
    assert memo_counts() == (before[0] + 1, before[1] + 1)
    assert shared[0].fused is shared[1].fused
    assert plan_bytes(shared[0]) != plan_bytes(shared[1])
    for got, want in zip(shared, fresh):
        assert plan_bytes(got) == plan_bytes(want)

    for noise in noises:
        trajectories._FUSED.clear()
        want = run_trajectories(circuit, noise, 50, seed=3)
        hits = memo_counts()[0]
        got = run_trajectories(circuit, noise, 50, seed=3)
        assert memo_counts()[0] == hits + 1
        assert result_bytes(got) == result_bytes(want)


def test_params_one_ulp_apart_miss():
    """The key is the exact gate stream, not the rounded fingerprint."""
    angle = 0.7
    near = one_rotation(2, angle)
    far = one_rotation(2, float(np.nextafter(angle, 1.0)))
    assert circuit_fingerprint(near) == circuit_fingerprint(far)
    noise = NoiseModel.uniform(2, 0.01, 0.02)
    plans = [build_trajectory_plan(circuit, noise) for circuit in (near, far)]
    assert memo_counts() == (0, 2)
    assert plans[0].fused.matrices[0].tobytes() != plans[1].fused.matrices[0].tobytes()
    assert build_trajectory_plan(near, noise).fused is plans[0].fused
    assert memo_counts() == (1, 2)


def test_memo_keeps_only_the_most_recent_circuits():
    size = trajectories.FUSED_MEMO_SIZE
    noise = NoiseModel.uniform(2, 0.01, 0.02)
    circuits = [one_rotation(2, 0.1 * k) for k in range(size + 2)]
    for circuit in circuits:
        build_trajectory_plan(circuit, noise)
    assert len(trajectories._FUSED) == size
    build_trajectory_plan(circuits[-1], noise)
    build_trajectory_plan(circuits[2], noise)
    assert memo_counts() == (2, size + 2)
    build_trajectory_plan(circuits[0], noise)
    assert memo_counts() == (2, size + 3)
    assert len(trajectories._FUSED) == size


def test_memo_bounds_the_amplitudes_it_holds():
    """Two 17-qubit circuits fill the budget, a third evicts the oldest, and
    a 19-qubit circuit is never kept."""
    budget = trajectories.FUSED_MEMO_AMPLITUDES
    assert budget == 2 * (1 << 17)
    noise = NoiseModel.uniform(17, 0.01, 0.02)
    first, second, third = (one_rotation(17, angle) for angle in (0.1, 0.2, 0.3))
    for circuit in (first, second, third):
        build_trajectory_plan(circuit, noise)
    assert len(trajectories._FUSED) == 2
    build_trajectory_plan(first, noise)
    assert memo_counts() == (0, 4)

    wide = one_rotation(19, 0.1)
    for _ in range(2):
        build_trajectory_plan(wide, NoiseModel.uniform(19, 0.01, 0.02))
    assert memo_counts() == (0, 6)
    assert all(fused.num_qubits == 17 for fused in trajectories._FUSED.values())


def test_cached_arrays_are_read_only():
    circuit = one_rotation(10, 0.3)
    circuit.cx(0, 9)
    fused = build_trajectory_plan(circuit, NoiseModel.uniform(10, 0.01, 0.02)).fused
    assert fused.restore is not None
    for array in (*fused.matrices, fused.restore, fused.ideal_state):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        fused.ideal_state[0] = 0.0


def test_pooled_run_equals_serial_with_a_shared_half():
    circuit, noises = compiled_job()
    with WorkerPool(2) as pool:
        for noise in noises:
            serial = run_trajectories(circuit, noise, 100, seed=4)
            pooled = run_trajectories(circuit, noise, 100, seed=4, pool=pool)
            assert result_bytes(pooled) == result_bytes(serial)
    assert memo_counts() == (3, 1)


def test_two_design_compile_group_builds_one_half():
    fidelity = FidelityOptions(trajectories=10)
    specs = [
        ExperimentSpec(benchmark="bv", backend=name, num_qubits=8, fidelity=fidelity)
        for name in ("digiq-opt8", "digiq-min2")
    ]
    assert specs[0].compile_group == specs[1].compile_group
    with telemetry.collecting():
        execute_compile_group(specs, [job_key(spec) for spec in specs])
        spans = telemetry.snapshot_spans()
    assert memo_counts() == (1, 1)
    parents = {span["span_id"]: span["name"] for span in spans}
    plans = [span for span in spans if span["name"] == "sim.plan"]
    assert [span["attrs"]["memo"] for span in plans] == ["miss", "hit"]
    assert all(parents[span["parent_id"]] == "job.execute" for span in plans)
