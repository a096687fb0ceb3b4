"""Worker processes that execute the daemon's admitted jobs on real cores.

The daemon's own threads share one GIL, so two of them compiling and
scheduling at once run slower than one.  :class:`WorkerPool` moves execution
into processes: each job travels as a one-job compile-group payload through
:func:`repro.runtime.jobs.run_group_payload` — the sweep dispatcher's worker
entry point — and comes back as stored-form results plus the worker's span
and metric snapshots, which the caller merges like a parallel sweep does.

Three choices shape the pool:

* **forkserver start method.**  The daemon is multi-threaded (HTTP handlers,
  the scheduler loop, job threads), so ``fork`` could copy a lock another
  thread holds.  The fork server is a single-threaded process that imports
  :data:`PRELOAD_MODULES` once, so every worker it forks starts warm.
* **one single-process executor per slot.**  A ``ProcessPoolExecutor`` that
  loses a worker fails *every* pending future and terminates its other
  workers.  With one process per slot a worker death fails only the job
  that slot was running; the slot is rebuilt for its next job.
* **workers exit with the daemon.**  A fork-server worker blocks on its call
  queue forever and keeps the fork server alive, so a SIGKILLed daemon would
  leave both behind.  Each worker holds the read end of a pipe whose only
  writer is the daemon, and exits when that pipe reports end-of-file — which
  the kernel delivers the moment the daemon dies, reaped or not.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import Connection
from typing import Dict, List, Optional

from ..runtime.jobs import run_group_payload

#: Modules the fork server imports once (the whole execution stack).
PRELOAD_MODULES = ("repro.runtime.jobs",)


class WorkerDiedError(RuntimeError):
    """The worker process running a job died before returning its result."""


def _exit_with_daemon(lifeline: Connection) -> None:
    """Worker initializer: exit this process once the daemon is gone."""

    def watch() -> None:
        try:
            lifeline.recv_bytes()  # nothing is ever sent: this returns by EOF
        except (EOFError, OSError):
            pass
        os._exit(1)

    threading.Thread(target=watch, name="repro-daemon-watch", daemon=True).start()


class WorkerPool:
    """``size`` worker processes, one per concurrently running job.

    :meth:`run` blocks its calling thread until the job's worker answers, so
    the daemon runs one job thread per slot.  Processes start on a slot's
    first job, not when the pool is built.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self._context = multiprocessing.get_context("forkserver")
        # Only takes effect if this process has not started its fork server yet.
        self._context.set_forkserver_preload(list(PRELOAD_MODULES))
        # The daemon keeps the only writer; each worker gets the reader.
        self._lifeline, self._lifeline_writer = multiprocessing.Pipe(duplex=False)
        self._lock = threading.Lock()
        self._executors: List[Optional[ProcessPoolExecutor]] = [None] * size
        self._free: "queue.SimpleQueue[int]" = queue.SimpleQueue()
        for slot in range(size):
            self._free.put(slot)

    def _executor(self, slot: int) -> ProcessPoolExecutor:
        with self._lock:
            executor = self._executors[slot]
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=self._context,
                    initializer=_exit_with_daemon,
                    initargs=(self._lifeline,),
                )
                self._executors[slot] = executor
            return executor

    def run(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Execute one group payload in a worker; returns what it shipped back.

        Raises :class:`WorkerDiedError` when the worker process dies mid-job;
        its slot gets a fresh process for the next job.  Exceptions the job
        itself raises propagate unchanged.
        """
        slot = self._free.get()
        try:
            executor = self._executor(slot)
            try:
                return executor.submit(run_group_payload, payload).result()
            except BrokenProcessPool:
                with self._lock:
                    if self._executors[slot] is executor:
                        self._executors[slot] = None
                executor.shutdown(wait=False)
                raise WorkerDiedError(
                    "the worker process executing this job died before it finished"
                ) from None
        finally:
            self._free.put(slot)

    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker process (``wait`` joins them)."""
        with self._lock:
            executors, self._executors = self._executors, [None] * self.size
        for executor in executors:
            if executor is not None:
                executor.shutdown(wait=wait)
        if wait:  # closing the writer sooner would end workers mid-job
            self._lifeline.close()
            self._lifeline_writer.close()
