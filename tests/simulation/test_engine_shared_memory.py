"""Tests of pooled trajectory runs: contiguous batch chunks on the worker pool."""

import os

import pytest

from repro import telemetry
from repro.circuits.benchmarks import build_benchmark
from repro.runtime.executor import WorkerPool
from repro.simulation import NoiseModel, run_trajectories


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _qgan():
    circuit = build_benchmark("qgan", num_qubits=6, seed=3)
    return circuit, NoiseModel.uniform(6, 0.02, 0.05)


class TestPooledRuns:
    def test_pooled_statevector_run_matches_serial_exactly(self):
        circuit, noise = _qgan()
        serial = run_trajectories(circuit, noise, 40, seed=7, batch_size=10)
        with WorkerPool(2) as pool:
            pooled = run_trajectories(circuit, noise, 40, seed=7, batch_size=10, pool=pool)
        assert pooled == serial

    def test_each_worker_runs_one_contiguous_chunk_in_spawn_order(self):
        circuit, noise = _qgan()
        with telemetry.collecting(), WorkerPool(2) as pool:
            run_trajectories(circuit, noise, 36, seed=7, batch_size=4, pool=pool)
        groups = [s for s in telemetry.snapshot_spans() if s["name"] == "sim.batch"]
        # one span per lockstep group, whose "batches" attribute counts them
        batches_by_pid = {}
        for span in groups:
            pid = span["pid"]
            batches_by_pid[pid] = batches_by_pid.get(pid, 0) + span["attrs"]["batches"]
        assert os.getpid() not in batches_by_pid
        # 9 batches on 2 workers: the first 4 in one process, the last 5 in
        # another, adopted in spawn order
        assert list(batches_by_pid.values()) == [4, 5]
