"""The durable on-disk job queue: one JSON file per job, renamed per state.

Layout under the queue root (default ``~/.repro/queue``, overridable via the
``REPRO_QUEUE_ROOT`` environment variable)::

    queue.lock          advisory fcntl lock taken around every transition
    seq                 monotonically increasing submission counter
    daemon.json         written by a live ``repro serve`` daemon (pid, url)
    queued/<id>.json    waiting for admission
    running/<id>.json   claimed by a worker (records the owner pid)
    done/<id>.json      finished; ``result_key`` points into the ResultStore
    failed/<id>.json    the work raised (``error`` holds the message)
    cancelled/<id>.json cancelled before it started

A state transition rewrites the job file in place (write-to-temp + atomic
``os.replace``) and then atomically renames it into the destination state
directory, all under the advisory lock — so two daemons, a daemon and a CLI
client, or a daemon and ``repro cache prune`` never tear a job or claim it
twice.  A crash between the rewrite and the rename leaves the job in its old
state with newer fields, which the recovery sweep repairs.

Crash recovery (:meth:`QueueStore.recover`) requeues every ``running`` job
whose owner pid is dead: the job file moves back to ``queued`` with its
attempt counter bumped, so a SIGKILLed daemon loses no work and a restarted
one re-executes it deterministically (same spec, same seed, same result
bytes).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from .. import telemetry
from ..runtime.store import atomic_write, canonical_json
from .model import JOB_STATES, QueueJob

try:  # pragma: no cover - always present on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: Environment variable overriding the queue root directory.
QUEUE_ROOT_ENV = "REPRO_QUEUE_ROOT"

#: Default queue root (per-user, shared by every daemon and client).
DEFAULT_QUEUE_ROOT = "~/.repro/queue"

#: Name of the advisory lock file under the queue root.
LOCK_FILE = "queue.lock"

#: Name of the daemon descriptor a live ``repro serve`` writes.
DAEMON_FILE = "daemon.json"


def resolve_queue_root(root: Optional[os.PathLike] = None) -> Path:
    """The queue root: explicit argument, ``REPRO_QUEUE_ROOT``, or the default."""
    if root is not None:
        return Path(root).expanduser()
    env = os.environ.get(QUEUE_ROOT_ENV)
    if env:
        return Path(env).expanduser()
    return Path(DEFAULT_QUEUE_ROOT).expanduser()


@contextmanager
def queue_lock(root: os.PathLike) -> Iterator[None]:
    """Advisory exclusive lock on a queue root's transitions.

    Every state transition in this module runs under it, and external
    writers racing the daemon (notably ``repro cache prune``) take the same
    lock so they serialize against admissions and completions.  Reentrant
    per-process semantics are *not* provided — callers must not nest.
    On platforms without ``fcntl`` the lock degrades to a no-op.
    """
    path = Path(root) / LOCK_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def _pid_alive(pid: Optional[int]) -> bool:
    """Whether a process with this pid exists (signal-0 probe)."""
    if pid is None or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists but not ours
        return True
    return True


class QueueStore:
    """Directory-backed durable job queue (see module docstring for layout)."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = resolve_queue_root(root)

    # -- paths ----------------------------------------------------------------------

    def state_dir(self, state: str) -> Path:
        if state not in JOB_STATES:
            raise ValueError(f"unknown state '{state}'; known: {JOB_STATES}")
        return self.root / state

    def path_for(self, job_id: str, state: str) -> Path:
        return self.state_dir(state) / f"{job_id}.json"

    def ensure_layout(self) -> None:
        """Create the root and one directory per state (idempotent)."""
        for state in JOB_STATES:
            self.state_dir(state).mkdir(parents=True, exist_ok=True)

    # -- low-level IO ---------------------------------------------------------------

    def _write(self, job: QueueJob, state: Optional[str] = None) -> Path:
        """Atomically (re)write one job file in a state directory."""
        path = self.path_for(job.job_id, state if state is not None else job.state)
        path.parent.mkdir(parents=True, exist_ok=True)
        return atomic_write(path, canonical_json(job.as_dict()))

    def _read(self, path: Path) -> Optional[QueueJob]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return QueueJob.from_dict(json.load(handle))
        except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError):
            return None

    # -- submission -----------------------------------------------------------------

    def submit(self, build) -> QueueJob:
        """Durably enqueue one job.

        ``build`` is a callable ``(job_id, seq) -> QueueJob`` (usually a
        partial of :func:`repro.queue.model.build_job`); it runs inside the
        advisory lock so sequence numbers are gap-free and ordered exactly
        as submissions landed on disk.
        """
        self.ensure_layout()
        with queue_lock(self.root):
            seq = self._bump_seq()
            job_id = f"j{seq:06d}-{uuid.uuid4().hex[:8]}"
            job = build(job_id, seq)
            if job.state != "queued":
                raise ValueError("submissions must enter in the 'queued' state")
            self._write(job)
        telemetry.counter("queue.submitted").inc()
        return job

    def _bump_seq(self) -> int:
        """Increment the on-disk submission counter (caller holds the lock)."""
        path = self.root / "seq"
        try:
            current = int(path.read_text().strip() or "0")
        except (FileNotFoundError, ValueError):
            current = 0
        value = current + 1
        atomic_write(path, str(value))
        return value

    # -- reads ----------------------------------------------------------------------

    def jobs(self, state: str) -> List[QueueJob]:
        """All jobs in one state, ordered by submission sequence."""
        directory = self.state_dir(state)
        if not directory.is_dir():
            return []
        found = []
        for path in directory.glob("*.json"):
            job = self._read(path)
            if job is not None:
                found.append(job)
        return sorted(found, key=lambda job: job.seq)

    def get(self, job_id: str) -> Optional[QueueJob]:
        """Look one job up across every state directory.

        Taken under the lock so a job mid-transition (file moving between
        directories) is never misread as missing.
        """
        with queue_lock(self.root):
            for state in JOB_STATES:
                job = self._read(self.path_for(job_id, state))
                if job is not None:
                    return job
        return None

    def active_result_keys(self) -> List[str]:
        """Result-store keys of every queued or running job (sorted).

        ``repro cache prune`` must not evict these: a running job is about
        to read or write its entry, and a queued job may complete instantly
        off a cached one.
        """
        keys = {job.result_key for job in self.jobs("queued")}
        keys.update(job.result_key for job in self.jobs("running"))
        return sorted(keys)

    # -- transitions ----------------------------------------------------------------

    def transition(self, job: QueueJob, state: str, **updates: object) -> QueueJob:
        """Atomically move one job to a new state, applying field updates.

        Raises :class:`LookupError` when the job is no longer in its
        expected source state (a concurrent transition won the race), which
        is what makes claims exactly-once across processes.
        """
        source = self.path_for(job.job_id, job.state)
        moved = job.moved(state, **updates)
        with queue_lock(self.root):
            if not source.exists():
                raise LookupError(
                    f"job {job.job_id} is no longer '{job.state}' "
                    "(lost a transition race)"
                )
            self._write(moved, state=job.state)  # refresh fields in place first
            os.replace(self.path_for(job.job_id, job.state), self.path_for(job.job_id, state))
        return moved

    def claim(self, job: QueueJob, pid: Optional[int] = None) -> QueueJob:
        """``queued -> running`` with ownership recorded (exactly-once)."""
        return self.transition(
            job,
            "running",
            owner_pid=os.getpid() if pid is None else pid,
            started_at=time.time(),
            attempts=job.attempts + 1,
        )

    def finish(self, job: QueueJob) -> QueueJob:
        """``running -> done`` (the result lives in the ResultStore)."""
        return self.transition(job, "done", finished_at=time.time(), owner_pid=None)

    def fail(self, job: QueueJob, error: str) -> QueueJob:
        """``running -> failed`` with the error message recorded."""
        return self.transition(
            job, "failed", finished_at=time.time(), owner_pid=None, error=str(error)
        )

    def cancel(self, job_id: str) -> Optional[QueueJob]:
        """``queued -> cancelled`` if the job has not started.

        Returns the cancelled job, or ``None`` when the job is unknown or
        already past the point of cancellation (running/terminal) — the
        ``concurrent.futures`` contract, applied across processes.
        """
        with queue_lock(self.root):
            job = self._read(self.path_for(job_id, "queued"))
            if job is None:
                return None
            moved = job.moved("cancelled", finished_at=time.time())
            self._write(moved, state="queued")
            os.replace(self.path_for(job_id, "queued"), self.path_for(job_id, "cancelled"))
        telemetry.counter("queue.cancelled").inc()
        return moved

    # -- recovery -------------------------------------------------------------------

    def recover(self) -> List[QueueJob]:
        """Requeue running jobs whose owner process is dead; returns them.

        The crash-recovery sweep a (re)starting daemon runs first: a
        SIGKILLed worker leaves its claims in ``running/`` with a dead pid;
        each moves back to ``queued`` (owner cleared, attempt counter kept
        from the claim) so the job is neither lost nor duplicated.
        """
        self.ensure_layout()
        requeued = []
        with queue_lock(self.root):
            for path in sorted(self.state_dir("running").glob("*.json")):
                job = self._read(path)
                if job is None or _pid_alive(job.owner_pid):
                    continue
                moved = job.moved("queued", owner_pid=None, started_at=None)
                self._write(moved, state="running")
                os.replace(path, self.path_for(job.job_id, "queued"))
                requeued.append(moved)
        if requeued:
            telemetry.counter("queue.recovered").inc(len(requeued))
        return requeued

    # -- accounting -----------------------------------------------------------------

    def depths(self) -> Dict[str, int]:
        """Number of jobs per state (one directory scan, no JSON parsing)."""
        counts = {}
        for state in JOB_STATES:
            directory = self.state_dir(state)
            counts[state] = (
                sum(1 for _ in directory.glob("*.json")) if directory.is_dir() else 0
            )
        return counts

    def stats(self) -> Dict[str, object]:
        """Durable-state accounting shared by the CLI and the HTTP endpoint."""
        depths = self.depths()
        running = self.jobs("running")
        return {
            "root": str(self.root),
            "depths": depths,
            "total": sum(depths.values()),
            "running_power_w": round(sum(job.power_w for job in running), 9),
            "running_jobs": [job.job_id for job in running],
        }

    # -- daemon descriptor ----------------------------------------------------------

    def daemon_path(self) -> Path:
        return self.root / DAEMON_FILE

    def write_daemon(self, info: Dict[str, object]) -> Path:
        """Advertise a live daemon (pid + URL) for clients and the CLI."""
        self.root.mkdir(parents=True, exist_ok=True)
        return atomic_write(self.daemon_path(), canonical_json(info))

    def read_daemon(self) -> Optional[Dict[str, object]]:
        """The advertised daemon descriptor, or None if absent/stale/dead."""
        try:
            with open(self.daemon_path(), "r", encoding="utf-8") as handle:
                info = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if not _pid_alive(info.get("pid")):
            return None
        return info

    def clear_daemon(self) -> None:
        try:
            self.daemon_path().unlink()
        except FileNotFoundError:
            pass
