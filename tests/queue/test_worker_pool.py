"""Daemon jobs run in worker processes: a dead worker fails only its own job."""

import os
import signal
import time

import pytest

from test_crash_recovery import (
    make_spec,
    start_daemon,
    stop_daemon,
    wait_for_workers,
    worker_pids,
)

from repro.queue.client import QueueClient, QueueServerError
from repro.queue.workers import WorkerDiedError, WorkerPool
from repro.runtime.jobs import group_payload, job_key
from repro.runtime.spec import ExperimentSpec, FidelityOptions


def long_fidelity_spec():
    # thousands of noisy trajectories: runs for seconds, long enough to be
    # caught mid-job
    return ExperimentSpec(
        benchmark="ising",
        num_qubits=12,
        seed=7,
        fidelity=FidelityOptions(trajectories=5000),
    )


class TestWorkerDeath:
    def test_killed_worker_fails_its_job_and_the_next_job_completes(self, tmp_path):
        daemon, url = start_daemon(tmp_path)
        try:
            client = QueueClient(url=url)
            doomed = client.submit(long_fidelity_spec())
            (worker,) = wait_for_workers(daemon.pid)
            deadline = time.monotonic() + 30.0
            while doomed.status().value != "running" and time.monotonic() < deadline:
                time.sleep(0.05)
            assert doomed.status().value == "running"
            os.kill(worker, signal.SIGKILL)

            with pytest.raises(QueueServerError, match="WorkerDiedError"):
                doomed.result(timeout=60.0)
            record = client.job(doomed.job_id)
            assert record.state == "failed"
            assert record.error.startswith("WorkerDiedError: ")

            # the daemon survived; a fresh worker runs the next job
            spec = make_spec(seed=21)
            assert client.submit(spec).result(timeout=120.0).key == job_key(spec)
            assert daemon.poll() is None
            assert worker not in worker_pids(daemon.pid)
            stats = client.stats()
            assert stats["depths"]["failed"] == 1 and stats["depths"]["done"] == 1
            assert stats["power_in_flight_w"] == 0.0
        finally:
            stop_daemon(daemon)


class TestWorkerPool:
    def test_runs_payloads_in_another_process_and_ships_telemetry(self):
        spec = make_spec(seed=22)
        payload = group_payload([spec], [job_key(spec)])
        payload["telemetry"] = True
        pool = WorkerPool(1)
        try:
            shipped = pool.run(payload)
        finally:
            pool.shutdown()
        (result,) = shipped["results"]
        assert result["key"] == job_key(spec)
        spans = {span["name"]: span for span in shipped["spans"]}
        assert spans["job.execute"]["pid"] != os.getpid()
        assert spans["job.execute"]["parent_id"] == spans["sweep.group"]["span_id"]
        assert shipped["metrics"]["counters"]

    def test_job_errors_propagate_unchanged(self):
        payload = group_payload([make_spec(seed=23)], ["ab" + "0" * 62])
        payload["compile"]["opt_level"] = 99  # rejected inside the worker
        pool = WorkerPool(1)
        try:
            with pytest.raises(ValueError):
                pool.run(payload)
        finally:
            pool.shutdown()

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        assert issubclass(WorkerDiedError, RuntimeError)
