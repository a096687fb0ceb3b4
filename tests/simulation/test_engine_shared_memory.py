"""Tests of the shared-memory plan transport used by pooled trajectory runs."""

import numpy as np
import pytest

from repro import telemetry
from repro.circuits.benchmarks import build_benchmark
from repro.simulation import NoiseModel, run_trajectories
from repro.simulation import engine
from repro.simulation.engine import _pack_shared_plan, _plan_from_shared
from repro.simulation.trajectories import build_trajectory_plan


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _qgan_plan():
    circuit = build_benchmark("qgan", num_qubits=6, seed=3)
    noise = NoiseModel.uniform(6, 0.02, 0.05)
    return circuit, noise, build_trajectory_plan(circuit, noise)


class TestSharedPlanRoundtrip:
    def test_rebuilt_plan_is_bitwise_equal(self):
        _, _, plan = _qgan_plan()
        block, spec = _pack_shared_plan(plan)
        try:
            rebuilt = _plan_from_shared(block, spec)
            assert rebuilt.num_qubits == plan.num_qubits
            assert rebuilt.mode == "statevector"
            assert rebuilt.ideal_state.tobytes() == plan.ideal_state.tobytes()
            assert rebuilt.kick_cumweights.tobytes() == plan.kick_cumweights.tobytes()
            assert len(rebuilt.ops) == len(plan.ops)
            for rebuilt_op, op in zip(rebuilt.ops, plan.ops):
                assert rebuilt_op.qubits == op.qubits
                assert rebuilt_op.kick_probs == op.kick_probs
                assert rebuilt_op.matrix.tobytes() == op.matrix.tobytes()
            del rebuilt, rebuilt_op  # drop buffer views before closing the block
        finally:
            block.close()
            block.unlink()

    def test_views_are_zero_copy(self):
        _, _, plan = _qgan_plan()
        block, spec = _pack_shared_plan(plan)
        try:
            rebuilt = _plan_from_shared(block, spec)
            assert rebuilt.ideal_state.base is not None
            assert not rebuilt.ideal_state.flags.owndata
            del rebuilt
        finally:
            block.close()
            block.unlink()


class TestPooledRuns:
    def test_pooled_statevector_run_matches_serial_exactly(self):
        circuit, noise, _ = _qgan_plan()
        serial = run_trajectories(circuit, noise, 40, seed=7, batch_size=10, workers=1)
        pooled = run_trajectories(circuit, noise, 40, seed=7, batch_size=10, workers=2)
        assert pooled == serial

    def test_pooled_run_records_shm_bytes(self):
        circuit, noise, _ = _qgan_plan()
        run_trajectories(circuit, noise, 40, seed=7, batch_size=10, workers=2)
        assert telemetry.counter("sim.shm_bytes").value > 0

    def test_pack_failure_falls_back_to_pickled_payloads(self, monkeypatch):
        def broken_pack(plan):
            raise OSError("no /dev/shm here")

        monkeypatch.setattr(engine, "_pack_shared_plan", broken_pack)
        circuit, noise, _ = _qgan_plan()
        serial = run_trajectories(circuit, noise, 40, seed=7, batch_size=10, workers=1)
        pooled = run_trajectories(circuit, noise, 40, seed=7, batch_size=10, workers=2)
        assert pooled == serial
        assert telemetry.counter("sim.shm_bytes").value == 0
