"""Tests for the durable on-disk queue store."""

import os

import pytest

from repro.queue.model import QueueJob
from repro.queue.store import QueueStore, queue_lock, resolve_queue_root

KEY_A = "ab" + "0" * 62
KEY_B = "cd" + "1" * 62

#: A pid that cannot exist on Linux (beyond the default pid_max).
DEAD_PID = 2**22 + 12345


def build(result_key=KEY_A, **overrides):
    def _build(job_id, seq):
        fields = dict(
            job_id=job_id,
            seq=seq,
            spec={"benchmark": "bv"},
            result_key=result_key,
            power_w=1.0,
        )
        fields.update(overrides)
        return QueueJob(**fields)

    return _build


class TestResolveRoot:
    def test_explicit_argument_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_ROOT", str(tmp_path / "env"))
        assert resolve_queue_root(tmp_path / "arg") == tmp_path / "arg"

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_ROOT", str(tmp_path / "env"))
        assert resolve_queue_root() == tmp_path / "env"

    def test_default_is_home_relative(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_ROOT", raising=False)
        assert str(resolve_queue_root()).endswith(".repro/queue")


class TestSubmitAndRead:
    def test_submit_assigns_ordered_sequences(self, tmp_path):
        store = QueueStore(tmp_path)
        jobs = [store.submit(build()) for _ in range(3)]
        assert [job.seq for job in jobs] == [1, 2, 3]
        assert len({job.job_id for job in jobs}) == 3
        assert [job.seq for job in store.jobs("queued")] == [1, 2, 3]

    def test_submit_rejects_non_queued(self, tmp_path):
        store = QueueStore(tmp_path)
        with pytest.raises(ValueError, match="queued"):
            store.submit(build(state="running", owner_pid=1))

    def test_get_finds_any_state(self, tmp_path):
        store = QueueStore(tmp_path)
        job = store.submit(build())
        assert store.get(job.job_id).state == "queued"
        claimed = store.claim(job)
        assert store.get(job.job_id).state == "running"
        store.finish(claimed)
        assert store.get(job.job_id).state == "done"
        assert store.get("nope") is None

    def test_torn_job_file_reads_as_absent(self, tmp_path):
        store = QueueStore(tmp_path)
        job = store.submit(build())
        store.path_for(job.job_id, "queued").write_text("{not json", encoding="utf-8")
        assert store.jobs("queued") == []


class TestTransitions:
    def test_claim_records_ownership(self, tmp_path):
        store = QueueStore(tmp_path)
        job = store.submit(build())
        claimed = store.claim(job)
        assert claimed.state == "running"
        assert claimed.owner_pid == os.getpid()
        assert claimed.attempts == 1
        assert not store.path_for(job.job_id, "queued").exists()

    def test_claim_is_exactly_once(self, tmp_path):
        store = QueueStore(tmp_path)
        job = store.submit(build())
        store.claim(job)
        with pytest.raises(LookupError, match="no longer"):
            store.claim(job)

    def test_finish_and_fail(self, tmp_path):
        store = QueueStore(tmp_path)
        done = store.finish(store.claim(store.submit(build())))
        assert done.state == "done" and done.owner_pid is None
        failed = store.fail(store.claim(store.submit(build())), "boom")
        assert failed.state == "failed" and failed.error == "boom"

    def test_cancel_only_before_start(self, tmp_path):
        store = QueueStore(tmp_path)
        job = store.submit(build())
        cancelled = store.cancel(job.job_id)
        assert cancelled.state == "cancelled"
        assert store.cancel(job.job_id) is None  # already terminal
        running = store.claim(store.submit(build()))
        assert store.cancel(running.job_id) is None  # too late
        assert store.cancel("nope") is None


class TestRecovery:
    def test_dead_owner_requeued_once(self, tmp_path):
        store = QueueStore(tmp_path)
        job = store.submit(build())
        store.claim(job, pid=DEAD_PID)
        requeued = store.recover()
        assert [j.job_id for j in requeued] == [job.job_id]
        got = store.get(job.job_id)
        assert got.state == "queued" and got.owner_pid is None
        assert got.attempts == 1  # the failed attempt stays on the record
        # exactly one file across all states: not lost, not duplicated
        files = [p for state in ("queued", "running") for p in store.state_dir(state).glob("*.json")]
        assert len(files) == 1
        assert store.recover() == []  # idempotent

    def test_live_owner_kept_running(self, tmp_path):
        store = QueueStore(tmp_path)
        store.claim(store.submit(build()), pid=os.getpid())
        assert store.recover() == []
        assert store.depths()["running"] == 1


class TestAccounting:
    def test_active_result_keys(self, tmp_path):
        store = QueueStore(tmp_path)
        store.submit(build(result_key=KEY_A))
        store.claim(store.submit(build(result_key=KEY_B)))
        done = store.claim(store.submit(build(result_key="ef" + "2" * 62)))
        store.finish(done)
        assert store.active_result_keys() == sorted([KEY_A, KEY_B])

    def test_depths_and_stats(self, tmp_path):
        store = QueueStore(tmp_path)
        store.submit(build())
        store.claim(store.submit(build(power_w=2.5)))
        stats = store.stats()
        assert stats["depths"]["queued"] == 1
        assert stats["depths"]["running"] == 1
        assert stats["total"] == 2
        assert stats["running_power_w"] == pytest.approx(2.5)


class TestDaemonDescriptor:
    def test_roundtrip_and_liveness(self, tmp_path):
        store = QueueStore(tmp_path)
        assert store.read_daemon() is None
        store.write_daemon({"pid": os.getpid(), "url": "http://x"})
        assert store.read_daemon()["url"] == "http://x"
        store.write_daemon({"pid": DEAD_PID, "url": "http://stale"})
        assert store.read_daemon() is None  # dead daemons are not advertised
        store.clear_daemon()
        store.clear_daemon()  # idempotent

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        store = QueueStore(tmp_path)
        with pytest.raises(TypeError):
            store.write_daemon({"pid": object()})  # not JSON-serializable
        assert list(tmp_path.glob("*.tmp")) == []
        assert store.read_daemon() is None


class TestLock:
    def test_lock_is_reacquirable(self, tmp_path):
        with queue_lock(tmp_path):
            pass
        with queue_lock(tmp_path):
            pass
        assert (tmp_path / "queue.lock").exists()

    def test_lock_excludes_other_processes(self, tmp_path):
        import subprocess
        import sys

        probe = (
            "import fcntl, sys\n"
            "handle = open(sys.argv[1] + '/queue.lock', 'a+')\n"
            "try:\n"
            "    fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
            "except BlockingIOError:\n"
            "    sys.exit(42)\n"
            "sys.exit(0)\n"
        )
        with queue_lock(tmp_path):
            held = subprocess.run([sys.executable, "-c", probe, str(tmp_path)])
        released = subprocess.run([sys.executable, "-c", probe, str(tmp_path)])
        assert held.returncode == 42  # contended while we hold it
        assert released.returncode == 0  # free after the context exits
