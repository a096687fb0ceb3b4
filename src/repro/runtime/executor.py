"""The one process pool behind every pooled path.

Only the driver of a fan-out owns a :class:`WorkerPool`: a sweep
(:func:`repro.runtime.dispatch.run_sweep` with ``workers > 1``, at most one
pool per call) and the ``repro serve`` daemon
(:class:`repro.queue.scheduler.QueueService`).  Code below a driver borrows
its pool and never starts one: trajectory batches
(:func:`repro.simulation.engine.run_trajectories` with ``pool=``) run on the
pool a one-group sweep lends them.  :meth:`WorkerPool.submit` takes a
module-level function and its arguments — the Python objects the caller
already holds, pickled as they are — and returns a :class:`~concurrent.futures.Future` of what the
worker *shipped back*: the function's result plus the worker's span and
metric snapshots.  The caller adopts those with
:func:`merge_shipped_telemetry` under the span that dispatched the task, in
submission order, which is how a pooled run reports the same span tree
(modulo timings) and exactly the same counters as a serial one.

Three choices shape the pool:

* **forkserver start method.**  Callers may be multi-threaded (the daemon's
  HTTP handlers, its scheduler loop and the slot threads that settle its
  jobs; a primitives session), so
  ``fork`` could copy a lock another thread holds.  The fork server is a
  single-threaded process that imports :data:`PRELOAD_MODULES` once, so every
  worker it forks starts warm.  It also re-imports a script's main module,
  so scripts that run pooled work need an ``if __name__ == "__main__":``
  guard.  The fork server starts with the BLAS thread variables
  (:data:`BLAS_THREAD_VARS`) set to ``1``, so every worker's BLAS runs one
  thread: ``size`` workers that each spread a BLAS call over every core
  would oversubscribe the host.
* **one single-process executor per slot.**  A ``ProcessPoolExecutor`` that
  loses a worker fails *every* pending future and terminates its other
  workers.  With one process per slot a worker death fails only the task
  that slot was running; the slot is rebuilt for its next task.  Queued
  tasks wait in FIFO order for a free slot, so at most ``size`` run at once.
* **workers exit with their parent.**  A fork-server worker blocks on its
  call queue forever and keeps the fork server alive, so a SIGKILLed parent
  would leave both behind.  Each worker holds the read end of a pipe whose
  only writer is the parent, and exits when that pipe reports end-of-file —
  which the kernel delivers the moment the parent dies, reaped or not.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import telemetry

#: Modules the fork server imports once (the whole execution stack).
PRELOAD_MODULES = ("repro.runtime.jobs",)

#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
#: Pool workers run with each set to ``1`` (see :func:`_start_fork_server`).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_FORK_SERVER_LOCK = threading.Lock()

#: Environment variable overriding the default worker-pool size everywhere a
#: pool is sized implicitly (the sweep dispatcher, the CLI, primitive
#: sessions).  An explicit ``workers=`` / ``--workers`` argument still wins.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def default_worker_count() -> int:
    """Worker-pool size when the caller does not pin one (>= 1).

    Defaults to ``min(4, cpu_count)``; the ``REPRO_MAX_WORKERS`` environment
    variable overrides that cap (useful on large machines where four workers
    under-use the host, or in CI where one worker keeps runs predictable).
    """
    override = os.environ.get(MAX_WORKERS_ENV)
    if override is not None and override.strip():
        try:
            workers = int(override)
        except ValueError:
            raise ValueError(
                f"{MAX_WORKERS_ENV} must be a positive integer, got {override!r}"
            ) from None
        if workers < 1:
            raise ValueError(
                f"{MAX_WORKERS_ENV} must be a positive integer, got {override!r}"
            )
        return workers
    return max(1, min(4, (os.cpu_count() or 1)))


def _start_fork_server() -> None:
    """Start this process's fork server, if it is not running, with BLAS pinned.

    The fork server imports numpy (:data:`PRELOAD_MODULES`) and forks every
    worker, so the environment it starts with is the one each worker's BLAS
    reads its thread count from.  :data:`BLAS_THREAD_VARS` are set to ``1``
    only while it starts; this process's environment is restored at once.
    """
    # Deferred: a process that never builds a pool need not load it.
    from multiprocessing import forkserver

    with _FORK_SERVER_LOCK:
        saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        try:
            forkserver.ensure_running()
        finally:
            for name, value in saved.items():
                if value is None:
                    del os.environ[name]
                else:
                    os.environ[name] = value


class WorkerDiedError(RuntimeError):
    """The worker process running a task died before returning its result."""


def _exit_with_parent(lifeline: Connection) -> None:
    """Worker initializer: exit this process once the pool's owner is gone."""

    def watch() -> None:
        try:
            lifeline.recv_bytes()  # nothing is ever sent: this returns by EOF
        except (EOFError, OSError):
            pass
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _run_task(
    fn: Callable[..., Any], args: Tuple[Any, ...], collect_spans: bool
) -> Dict[str, object]:
    """Worker-side wrapper: run one task and ship back its telemetry.

    A pooled worker is reused across tasks, so the collector and registry are
    reset first; spans are recorded only when the submitting parent was
    recording them.
    """
    telemetry.reset()
    if collect_spans:
        with telemetry.collecting():
            result = fn(*args)
    else:
        result = fn(*args)
    return {
        "result": result,
        "spans": telemetry.snapshot_spans() if collect_spans else [],
        "metrics": telemetry.snapshot_metrics(),
    }


def merge_shipped_telemetry(
    shipped: Dict[str, object], parent_id: Optional[str]
) -> Any:
    """Adopt what a pooled task shipped back; returns the task's result.

    The worker's spans are re-parented under ``parent_id`` (the span that
    dispatched the task) and its metrics added to this process's registry.
    """
    telemetry.merge_spans(shipped["spans"], parent_id=parent_id)
    telemetry.merge_metrics(shipped["metrics"])
    return shipped["result"]


class WorkerPool:
    """``size`` worker processes fed from one FIFO task queue.

    Each slot is a thread that takes the next queued task, runs it on the
    slot's own single-process executor and resolves the task's future; the
    future's done-callbacks run on that slot thread.
    Processes start on a slot's first task, not when the pool is built.
    Usable as a context manager (leaving it calls :meth:`shutdown`).
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self._context = multiprocessing.get_context("forkserver")
        # Only takes effect if this process has not started its fork server yet.
        self._context.set_forkserver_preload(list(PRELOAD_MODULES))
        # This process keeps the only writer; each worker gets the reader.
        self._lifeline, self._lifeline_writer = multiprocessing.Pipe(duplex=False)
        self._tasks: "queue.SimpleQueue[Optional[tuple]]" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._closed = False
        self._slots: List[threading.Thread] = [
            threading.Thread(
                target=self._serve_slot, name=f"repro-pool-slot-{slot}", daemon=True
            )
            for slot in range(size)
        ]
        for thread in self._slots:
            thread.start()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Queue ``fn(*args)`` for a worker; returns a future of what it shipped.

        ``fn`` must be importable by name in a worker (a module-level
        function) and ``args`` picklable.  The future resolves to
        ``{"result", "spans", "metrics"}`` (see
        :func:`merge_shipped_telemetry`), fails with the task's own
        exception, or with :class:`WorkerDiedError` when the worker process
        dies mid-task; that slot gets a fresh process for its next task.
        """
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a shut-down WorkerPool")
            self._tasks.put((future, fn, args, telemetry.enabled()))
        return future

    def _new_executor(self) -> ProcessPoolExecutor:
        _start_fork_server()
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._context,
            initializer=_exit_with_parent,
            initargs=(self._lifeline,),
        )

    def _serve_slot(self) -> None:
        executor: Optional[ProcessPoolExecutor] = None
        try:
            while True:
                task = self._tasks.get()
                if task is None:
                    return
                future, fn, args, collect_spans = task
                if not future.set_running_or_notify_cancel():
                    continue
                try:
                    if executor is None:
                        executor = self._new_executor()
                    shipped = executor.submit(_run_task, fn, args, collect_spans).result()
                except BrokenProcessPool:
                    executor.shutdown(wait=False)
                    executor = None
                    future.set_exception(
                        WorkerDiedError(
                            "the worker process executing this task died "
                            "before it finished"
                        )
                    )
                except BaseException as error:  # the task's own failure
                    future.set_exception(error)
                else:
                    future.set_result(shipped)
        finally:
            if executor is not None:
                executor.shutdown(wait=True)

    def shutdown(self) -> None:
        """Stop the pool: queued tasks are cancelled, running ones finish.

        Returns once every slot has resolved its last future (and run that
        future's done-callbacks) and every worker process has exited.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while True:
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                break
            if task is not None:
                task[0].cancel()
        for _ in self._slots:
            self._tasks.put(None)
        for thread in self._slots:  # closing the writer sooner ends workers mid-task
            thread.join()
        self._lifeline.close()
        self._lifeline_writer.close()
