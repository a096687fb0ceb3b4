"""Asynchronous job handles for the provider-style execution API.

A :class:`JobHandle` is the value every submission door returns
(:meth:`repro.backends.Backend.run`, :meth:`repro.primitives.Session.run`,
:meth:`repro.primitives.Sampler.run`, :meth:`repro.primitives.Estimator.run`):
a future-like object with ``status()`` / ``result()`` / ``cancel()``.

Handles resolve in one of two modes:

* **lazy** — nothing runs until the first :meth:`JobHandle.result` call,
  which executes the work synchronously in the calling thread.  This is the
  default for one-shot ``Backend.run`` submissions: no worker threads are
  created, and a handle that is cancelled before being resolved never runs
  at all.
* **executor** — the work is submitted to a ``ThreadPoolExecutor`` (usually
  a :class:`~repro.primitives.session.Session`'s pool) at creation time and
  runs in the background; ``result()`` blocks until it finishes.

Either way the handle wraps one :class:`concurrent.futures.Future` — the one
the executor returned, or a bare one the first ``result()`` caller claims —
and derives its whole lifecycle (``QUEUED -> RUNNING -> DONE`` / ``FAILED``,
with ``CANCELLED`` reachable only before the work starts) from it, so callers
can treat every handle uniformly.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent import futures as _futures
from concurrent.futures import Executor, Future
from enum import Enum
from typing import Callable, Dict, Generic, Optional, TypeVar

from .. import telemetry

T = TypeVar("T")

#: Process-wide monotonically increasing job numbers (display only; content
#: identity lives in the job *keys* carried by the result metadata).
_JOB_COUNTER = itertools.count(1)


class JobStatus(str, Enum):
    """Lifecycle states of a :class:`JobHandle`."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"

    @property
    def is_terminal(self) -> bool:
        """Whether the job can no longer change state."""
        return self in (JobStatus.DONE, JobStatus.CANCELLED, JobStatus.FAILED)


class JobHandle(Generic[T]):
    """A cancellable, future-like handle to one submitted execution.

    Parameters
    ----------
    work:
        Zero-argument callable producing the job's result (typically a
        closure over a :class:`~repro.primitives.session.Session` and a list
        of :class:`~repro.runtime.spec.ExperimentSpec` s).
    backend_name:
        Name of the backend the job targets (display/metadata only).
    executor:
        When given, ``work`` is submitted to this executor immediately and
        runs in the background; when ``None`` the handle is *lazy* and
        ``work`` runs synchronously inside the first :meth:`result` call.
    """

    def __init__(
        self,
        work: Callable[[], T],
        backend_name: str = "",
        executor: Optional[Executor] = None,
    ):
        self._work = work
        self.backend_name = backend_name
        self.job_id = f"job-{next(_JOB_COUNTER)}"
        # Serialises claiming (lazy) and cancelling, the two transitions the
        # handle initiates itself; the future guards everything else.
        self._lock = threading.Lock()
        # Lifecycle timestamps (time.monotonic): recorded for every handle,
        # lazy or executor-backed, and surfaced through ``timings``.
        self.queued_at: float = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        telemetry.counter("jobs.submitted").inc()
        self._lazy = executor is None
        self._future: Future = Future() if self._lazy else executor.submit(self._invoke)

    def _invoke(self) -> T:
        """Run the work once, stamping its start and finish."""
        self.started_at = time.monotonic()
        try:
            value = self._work()
        except BaseException:
            self.finished_at = time.monotonic()
            telemetry.counter("jobs.failed").inc()
            raise
        self.finished_at = time.monotonic()
        telemetry.counter("jobs.completed").inc()
        return value

    # -- inspection -----------------------------------------------------------------

    def status(self) -> JobStatus:
        """Current lifecycle state (non-blocking)."""
        future = self._future
        if future.cancelled():
            return JobStatus.CANCELLED
        if future.done():
            return JobStatus.DONE if future.exception() is None else JobStatus.FAILED
        return JobStatus.RUNNING if future.running() else JobStatus.QUEUED

    def done(self) -> bool:
        """Whether the job reached a terminal state (done/failed/cancelled)."""
        return self._future.done()

    def cancelled(self) -> bool:
        """Whether the job was cancelled before it started."""
        return self._future.cancelled()

    @property
    def timings(self) -> Dict[str, Optional[float]]:
        """Lifecycle timestamps and derived durations (seconds).

        ``queued_at``/``started_at``/``finished_at`` are ``time.monotonic``
        readings (``None`` until the phase is reached; a job cancelled
        before starting has no ``started_at``).  ``queued_s`` is time spent
        waiting to start, ``run_s`` the work's own duration, ``total_s``
        submission to terminal state.  Recorded identically for lazy and
        executor-backed invocation.
        """
        queued, started, finished = self.queued_at, self.started_at, self.finished_at
        return {
            "queued_at": queued,
            "started_at": started,
            "finished_at": finished,
            "queued_s": None if started is None else started - queued,
            "run_s": (
                None if started is None or finished is None else finished - started
            ),
            "total_s": None if finished is None else finished - queued,
        }

    # -- resolution -----------------------------------------------------------------

    def result(self, timeout: Optional[float] = None) -> T:
        """The job's result, executing or waiting for the work as needed.

        A lazy handle's first caller claims the work and runs it in the
        calling thread (``timeout`` does not apply to that in-line execution
        — the claimer *is* the worker — only to other threads waiting on it);
        executor-backed handles block up to ``timeout`` seconds for the
        background run.  A waiter that times out raises the builtin
        :class:`TimeoutError` and leaves the handle's state untouched.
        Concurrent ``result()`` calls are safe — the work runs exactly once
        and every caller sees the same outcome.  Raises
        :class:`concurrent.futures.CancelledError` if the job was cancelled,
        or re-raises the work's own exception if it failed.
        """
        future = self._future
        claimed = False
        if self._lazy:
            with self._lock:  # exactly one caller moves the future off PENDING
                claimed = (
                    not future.running()
                    and not future.done()
                    and future.set_running_or_notify_cancel()
                )
        if claimed:
            try:
                future.set_result(self._invoke())
            except BaseException as error:
                future.set_exception(error)
        try:
            return future.result(timeout)
        except _futures.TimeoutError:
            # On 3.10 futures.TimeoutError is not the builtin; normalise so
            # callers catch one exception type in both modes.
            raise TimeoutError(
                f"{self.job_id} did not finish within {timeout}s"
            ) from None

    def cancel(self) -> bool:
        """Cancel the job if it has not started; returns whether it worked.

        A job that is already running, done, or failed cannot be cancelled —
        exactly the ``concurrent.futures`` contract.
        """
        with self._lock:
            if self._future.cancelled():
                return True
            if not self._future.cancel():
                return False
            self.finished_at = time.monotonic()
        telemetry.counter("jobs.cancelled").inc()
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobHandle(id={self.job_id!r}, backend={self.backend_name!r}, "
            f"status={self.status().value})"
        )
