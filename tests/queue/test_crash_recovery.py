"""Crash recovery and cross-process round-trip tests (real subprocesses).

Covers the two durability acceptance scenarios:

* a worker SIGKILLed mid-job leaves a ``running`` entry with a dead owner
  pid; a restarted daemon requeues it (not lost, not duplicated) and its
  eventual result is byte-identical to a clean local run;
* submit from process A, kill and restart the daemon, collect from process
  B — bytes identical to a local ``Session.run``, shared ResultStore key
  hit asserted, and none of the killed daemon's worker processes outlives
  it.
"""

import json
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

from repro.queue.client import QueueClient
from repro.queue.model import build_job
from repro.queue.store import QueueStore
from repro.runtime.jobs import job_key
from repro.runtime.spec import ExperimentSpec
from repro.runtime.store import ResultStore, canonical_json

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def sub_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def make_spec(seed=0):
    return ExperimentSpec(benchmark="bv", num_qubits=5, seed=seed)


def start_daemon(tmp_path, extra=()):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.runtime", "serve",
            "--root", str(tmp_path / "queue"),
            "--cache-dir", str(tmp_path / "cache"),
            "--port", "0",
            "--workers", "1",
            "--poll-interval", "0.1",
            *extra,
        ],
        env=sub_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    store = QueueStore(tmp_path / "queue")
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        info = store.read_daemon()
        if info is not None and info.get("pid") == process.pid:
            return process, info["url"]
        if process.poll() is not None:
            raise AssertionError(
                f"daemon died at startup: {process.stdout.read().decode()}"
            )
        time.sleep(0.05)
    process.kill()
    raise AssertionError("daemon did not advertise itself within 30s")


def _stat(pid):
    """The /proc stat fields after the command name, or None once the process is
    gone or a zombie (Linux)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] == "Z" else fields


def process_tree(pid):
    """``{pid: parent pid}`` of every live descendant of ``pid``."""
    parents = {}
    for entry in os.listdir("/proc"):
        fields = _stat(entry) if entry.isdigit() else None
        if fields is not None:
            parents[int(entry)] = int(fields[1])
    tree, frontier = {}, [pid]
    while frontier:
        parent = frontier.pop()
        for child, its_parent in parents.items():
            if its_parent == parent:
                tree[child] = parent
                frontier.append(child)
    return tree


def worker_pids(daemon_pid):
    """The daemon's job worker processes (forked by its fork server)."""
    return sorted(
        pid for pid, parent in process_tree(daemon_pid).items() if parent != daemon_pid
    )


def wait_for_workers(daemon_pid, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        workers = worker_pids(daemon_pid)
        if workers:
            return workers
        time.sleep(0.05)
    raise AssertionError(f"daemon {daemon_pid} started no worker process in {timeout_s}s")


def identity(pid):
    """``(pid, start time)`` of a live process, or None (immune to pid reuse)."""
    fields = _stat(pid)
    return None if fields is None else (pid, fields[19])


def survivors_after(processes, timeout_s):
    """The ``identity`` tuples still alive once ``timeout_s`` has passed (or none are)."""
    deadline = time.monotonic() + timeout_s
    while True:
        survivors = [proc for proc in processes if identity(proc[0]) == proc]
        if not survivors or time.monotonic() >= deadline:
            return survivors
        time.sleep(0.05)


def stop_daemon(process):
    if process.poll() is None:
        process.kill()
    process.wait(timeout=10.0)
    process.stdout.close()


class TestSigkilledWorker:
    def test_dead_claim_is_requeued_and_rerun_byte_identical(self, tmp_path):
        """SIGKILL a worker holding a claim; restart; requeue + identical bytes."""
        store = QueueStore(tmp_path / "queue")
        spec = make_spec(seed=11)
        job = store.submit(partial(build_job, spec))

        # A real worker process claims the job, then hangs until SIGKILL —
        # deterministic "crashed mid-job" state, no timing races.
        claimer = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys, time\n"
                "from repro.queue.store import QueueStore\n"
                f"store = QueueStore({str(tmp_path / 'queue')!r})\n"
                f"job = store.get({job.job_id!r})\n"
                "store.claim(job)\n"
                "print('claimed', flush=True)\n"
                "time.sleep(600)\n",
            ],
            env=sub_env(),
            stdout=subprocess.PIPE,
        )
        assert claimer.stdout.readline().strip() == b"claimed"
        assert store.get(job.job_id).state == "running"
        os.kill(claimer.pid, signal.SIGKILL)
        claimer.wait(timeout=10.0)
        claimer.stdout.close()

        # the claim's owner is dead; a restarted daemon recovers and reruns it
        daemon, url = start_daemon(tmp_path)
        try:
            client = QueueClient(url=url)
            result = client.handle(job.job_id).result(timeout=120.0)
        finally:
            stop_daemon(daemon)

        final = store.get(job.job_id)
        assert final.state == "done"
        assert final.attempts == 2  # the dead claim plus the successful rerun
        # exactly one job file exists: neither lost nor duplicated
        counts = store.depths()
        assert sum(counts.values()) == 1 and counts["done"] == 1

        from repro.runtime.jobs import execute_spec

        local = execute_spec(spec)
        assert result.key == job_key(spec)
        assert canonical_json(result.row) == canonical_json(local.row)


class TestCrossProcessRoundTrip:
    def test_submit_restart_collect_elsewhere(self, tmp_path):
        """Submit from A, kill + restart the daemon, collect from B."""
        spec = make_spec(seed=12)
        first, url = start_daemon(tmp_path)
        pool = set()
        try:
            submitted = subprocess.run(
                [
                    sys.executable, "-m", "repro.runtime", "queue", "submit",
                    "--benchmark", "bv", "--qubits", "5", "--seed", "12",
                    "--root", str(tmp_path / "queue"),
                    "--format", "json",
                ],
                env=sub_env(),
                capture_output=True,
                timeout=120,
            )
            assert submitted.returncode == 0, submitted.stderr.decode()
            job_id = json.loads(submitted.stdout)["job_id"]
            wait_for_workers(first.pid)
            # the fork server, its workers and the resource tracker
            pool = {identity(pid) for pid in process_tree(first.pid)} - {None}
        finally:
            os.kill(first.pid, signal.SIGKILL)  # hard kill: no clean shutdown
            # the pool notices while the dead daemon is still an unreaped zombie
            survivors = survivors_after(pool, timeout_s=10.0)
            stop_daemon(first)
        assert pool and not survivors

        store = QueueStore(tmp_path / "queue")
        assert store.read_daemon() is None  # the dead daemon is not advertised

        second, _ = start_daemon(tmp_path)
        try:
            # process B: the CLI collector, discovering the *new* daemon
            collected = subprocess.run(
                [
                    sys.executable, "-m", "repro.runtime", "queue", "collect",
                    job_id,
                    "--root", str(tmp_path / "queue"),
                    "--format", "json",
                    "--timeout", "120",
                ],
                env=sub_env(),
                capture_output=True,
                timeout=180,
            )
            assert collected.returncode == 0, collected.stderr.decode()
            remote = json.loads(collected.stdout)
        finally:
            stop_daemon(second)

        # byte-identical to a local Session.run of the same spec, via a
        # session sharing the daemon's store: the key must HIT, not recompute
        from repro.primitives.session import Session

        shared = ResultStore(tmp_path / "cache")
        key = job_key(spec)
        assert shared.get(key) is not None  # the daemon's entry is in the store
        with Session(spec.backend, store=shared) as session:
            local, cached = session.execute(spec)
        assert cached is True  # served from the shared ResultStore key
        assert remote["key"] == key == local.key
        assert canonical_json(remote["row"]) == canonical_json(local.row)

        # recovery is done and none of the killed daemon's pool is running
        assert not survivors_after(pool, timeout_s=0.0)
