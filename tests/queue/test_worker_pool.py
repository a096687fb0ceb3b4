"""Daemon jobs run in worker processes: a dead worker fails only its own job.

The pool itself (:class:`repro.runtime.executor.WorkerPool`) is the one every
pooled path shares; its unit tests live here next to the daemon's.
"""

import os
import signal
import time
from functools import partial

import pytest

from test_crash_recovery import (
    identity,
    make_spec,
    start_daemon,
    stop_daemon,
    survivors_after,
    wait_for_workers,
    worker_pids,
)

from repro import telemetry
from repro.queue.client import QueueClient, QueueServerError
from repro.queue.model import build_job
from repro.queue.scheduler import QueueService
from repro.queue.store import QueueStore
from repro.runtime.executor import WorkerDiedError, WorkerPool
from repro.runtime.jobs import execute_compile_group, execute_spec, job_key
from repro.runtime.spec import ExperimentSpec, FidelityOptions
from repro.runtime.store import ResultStore, canonical_json


def timed_nap(seconds):
    """Pool task: sleep, then report the worker pid and the interval slept."""
    start = time.monotonic()  # CLOCK_MONOTONIC is system-wide on Linux
    time.sleep(seconds)
    return os.getpid(), start, time.monotonic()


def nap_after_reporting(path, seconds):
    """Pool task: write this worker's pid to ``path``, then sleep."""
    with open(path, "w") as handle:
        handle.write(str(os.getpid()))
    time.sleep(seconds)
    return os.getpid()


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


def memo_counts():
    return tuple(
        telemetry.counter(f"compile.memo.{kind}").value for kind in ("miss", "hit")
    )


def serve(service, spec):
    """Queue ``spec``, admit it and wait until it settles; returns its record."""
    job = service.store.submit(partial(build_job, spec))
    assert [admitted.job_id for admitted in service.tick()] == [job.job_id]
    return service.wait_settled(job.job_id, timeout_s=120.0)


class TestServedCompileReuse:
    def test_a_worker_compiles_a_circuit_once_across_designs(self, tmp_path):
        service = QueueService(
            QueueStore(tmp_path / "queue"), ResultStore(tmp_path / "cache"), max_workers=1
        )
        try:
            specs = [
                ExperimentSpec(benchmark="qgan", backend=backend, num_qubits=8)
                for backend in ("digiq-opt8", "digiq-opt16", "digiq-min2")
            ]
            telemetry.reset()  # the spans below are this test's alone
            before = memo_counts()
            with telemetry.collecting():
                records = [serve(service, spec) for spec in specs]
                spans = telemetry.snapshot_spans()
            assert [record.state for record in records] == ["done"] * 3
            misses, hits = (now - then for now, then in zip(memo_counts(), before))
            assert (misses, hits) == (1, 2)
            for spec, record in zip(specs, records):
                stored = service.results.get(record.result_key)["row"]
                assert canonical_json(stored) == canonical_json(execute_spec(spec).row)

            (worker,) = {span["pid"] for span in spans if span["name"] == "job.execute"}
            doomed = service.store.submit(partial(build_job, long_fidelity_spec()))
            service.tick()
            time.sleep(0.5)
            os.kill(worker, signal.SIGKILL)
            failed = service.wait_settled(doomed.job_id, timeout_s=60.0)
            assert failed.state == "failed"
            assert failed.error.startswith("WorkerDiedError: ")

            # the same compile group (a new key): the fresh worker compiles again
            again = ExperimentSpec(
                benchmark="qgan", num_qubits=8, fidelity=FidelityOptions(trajectories=4)
            )
            assert again.compile_group == specs[0].compile_group
            before = memo_counts()
            record = serve(service, again)
            assert record.state == "done"
            assert tuple(now - then for now, then in zip(memo_counts(), before)) == (1, 0)
            stored = service.results.get(record.result_key)["row"]
            assert canonical_json(stored) == canonical_json(execute_spec(again).row)
        finally:
            service.stop()
            service.drain()


class TestDrain:
    def test_drain_returns_once_the_running_job_has_settled(self, tmp_path):
        service = QueueService(
            QueueStore(tmp_path / "queue"), ResultStore(tmp_path / "cache"), max_workers=1
        )
        spec = ExperimentSpec(
            benchmark="ising", num_qubits=12, seed=5,
            fidelity=FidelityOptions(trajectories=200),  # about 1 s of simulation
        )
        job = service.store.submit(partial(build_job, spec))
        try:
            assert [admitted.job_id for admitted in service.tick()] == [job.job_id]
            assert service.store.get(job.job_id).state == "running"
        finally:
            service.stop()
            service.drain()  # the job's callback runs before the slots are joined
        assert service.store.get(job.job_id).state == "done"
        assert service.results.get(job.result_key) is not None
        assert service.power_in_flight() == 0.0


class TestWorkerPool:
    def test_runs_payloads_in_another_process_and_ships_telemetry(self):
        spec = make_spec(seed=22)
        pool = WorkerPool(1)
        try:
            with telemetry.collecting():  # the pool collects what its caller does
                shipped = pool.submit(
                    execute_compile_group, [spec], [job_key(spec)]
                ).result()
        finally:
            pool.shutdown()
        (result,) = shipped["result"]
        assert result.key == job_key(spec)
        spans = {span["name"]: span for span in shipped["spans"]}
        assert spans["job.execute"]["pid"] != os.getpid()
        assert spans["job.execute"]["parent_id"] == spans["sweep.group"]["span_id"]
        assert shipped["metrics"]["counters"]

    def test_job_errors_propagate_unchanged(self):
        pool = WorkerPool(1)
        try:
            with pytest.raises(ValueError, match="invalid literal"):
                pool.submit(int, "x").result()  # raised inside the worker
        finally:
            pool.shutdown()

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        assert issubclass(WorkerDiedError, RuntimeError)

    def test_queued_tasks_run_fifo_with_at_most_size_running(self):
        with WorkerPool(2) as pool:
            # warm both slots so process start-up does not skew the timings
            warm = [pool.submit(timed_nap, 0.3) for _ in range(2)]
            assert len({future.result(timeout=60)["result"][0] for future in warm}) == 2
            futures = [pool.submit(timed_nap, 1.5)]
            futures += [pool.submit(timed_nap, 0.3) for _ in range(4)]
            runs = [future.result(timeout=60)["result"] for future in futures]
        starts = [start for _pid, start, _end in runs]
        # one slot holds the long task; the other drains the queue in order
        assert starts[1:] == sorted(starts[1:])
        assert all(start > runs[1][2] for start in starts[2:])
        for probe in starts:
            running = sum(start <= probe < end for _pid, start, end in runs)
            assert 1 <= running <= 2
        assert sum(starts[0] <= start < runs[0][2] for start in starts[1:]) >= 1

    def test_killed_worker_fails_only_its_own_task(self, tmp_path):
        pid_file = tmp_path / "doomed.pid"
        with WorkerPool(2) as pool:
            doomed = pool.submit(nap_after_reporting, str(pid_file), 60.0)
            sibling = pool.submit(timed_nap, 1.0)
            queued = [pool.submit(timed_nap, 0.05) for _ in range(3)]
            deadline = time.monotonic() + 30.0
            while not (pid_file.exists() and pid_file.read_text()):
                assert time.monotonic() < deadline, "the doomed task never started"
                time.sleep(0.02)
            victim = int(pid_file.read_text())
            os.kill(victim, signal.SIGKILL)

            with pytest.raises(WorkerDiedError):
                doomed.result(timeout=30)
            assert sibling.result(timeout=30)["result"][0] != victim
            pids = {future.result(timeout=30)["result"][0] for future in queued}
            assert victim not in pids
            # the dead slot was rebuilt: it serves tasks from a fresh process
            after = [pool.submit(timed_nap, 0.3) for _ in range(2)]
            assert victim not in {future.result(timeout=60)["result"][0] for future in after}

    def test_shutdown_leaves_no_worker_process_behind(self):
        before = set(worker_pids(os.getpid()))
        pool = WorkerPool(2)
        futures = [pool.submit(timed_nap, 0.2) for _ in range(4)]
        pids = {future.result(timeout=60)["result"][0] for future in futures}
        assert len(pids) == 2 and os.getpid() not in pids
        workers = [identity(pid) for pid in pids]
        assert all(workers)
        pool.shutdown()
        assert survivors_after(workers, timeout_s=10.0) == []
        assert set(worker_pids(os.getpid())) <= before
        with pytest.raises(RuntimeError):
            pool.submit(timed_nap, 0.0)
