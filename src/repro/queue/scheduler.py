"""Power-aware admission scheduling over the durable queue.

The policy enforces the paper's fridge constraint at runtime: every job is
priced by the backend cost model (:func:`repro.queue.model.job_power_w`) and
the scheduler never lets the summed controller power of running jobs exceed
the configured :class:`~repro.hardware.budget.FridgeBudget` (default the
paper's 10 W 4 K-stage budget).

Admission order is deterministic for a fixed submission trace:

1. **priority class** — ``interactive`` before ``batch`` before
   ``deferrable``;
2. **weighted fair share** — within a class, the session whose admitted
   power (divided by its configured weight) is lowest goes first, so one
   chatty client cannot starve the rest;
3. **earliest due date** — within a session, explicit deadlines first
   (jobs without one fall back to submission time, i.e. FIFO);
4. **submission sequence** — the final, total tie-break.

A non-deferrable job that does not fit the remaining headroom *blocks* the
walk (head-of-line, so it cannot be starved by smaller late arrivals); a
deferrable job is *parked* instead — skipped, counted in the
``queue.deferrals`` metric, and revisited every round until headroom frees.

:class:`QueueService` drives the policy: each :meth:`~QueueService.tick`
completes cache-hit jobs instantly against the shared
:class:`~repro.runtime.store.ResultStore`, admits what fits, and submits
each admitted job straight to a worker *process* of a
:class:`~repro.runtime.executor.WorkerPool` — the pool pooled sweeps use —
as a one-job compile group; with no job threads, a done-callback on the
pool thread that ran the job settles it.  Each worker runs its jobs through
:func:`~repro.runtime.jobs.execute_queued_job`, which keeps that process's
last few compilations, so a circuit served under several designs compiles
once per worker; nothing is shared across workers or restarts.  Admission,
power accounting and every durable transition stay in the daemon.  Each
terminal transition (finish, fail, cache-hit finish, cancel) notifies a
condition that :meth:`QueueService.wait_settled` blocks on, with the job's
terminal record in hand, which is how the HTTP API answers a long-poll the
moment its job settles without re-reading the queue.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence

from .. import telemetry
from ..hardware.budget import FridgeBudget
from ..runtime.executor import WorkerPool, merge_shipped_telemetry
from ..runtime.jobs import execute_queued_job
from ..runtime.store import ResultStore
from .model import QueueJob, priority_rank
from .store import QueueStore

logger = logging.getLogger(__name__)

#: Default worker processes executing admitted jobs.
DEFAULT_QUEUE_WORKERS = 2


def order_candidates(
    jobs: Sequence[QueueJob],
    usage: Mapping[str, float],
    weights: Optional[Mapping[str, float]] = None,
) -> List[QueueJob]:
    """Queued jobs in deterministic admission order (see module docstring).

    ``usage`` maps client session id to the controller power already
    admitted on its behalf; ``weights`` optionally gives sessions a larger
    fair share (default weight 1.0; weights must be positive).
    """
    weights = weights or {}

    def fair_share(job: QueueJob) -> float:
        weight = float(weights.get(job.session, 1.0))
        if weight <= 0:
            raise ValueError(f"fair-share weight of session '{job.session}' must be > 0")
        return usage.get(job.session, 0.0) / weight

    return sorted(
        jobs,
        key=lambda job: (
            priority_rank(job.priority),
            fair_share(job),
            job.effective_due(),
            job.seq,
        ),
    )


class QueueService:
    """The daemon's engine: crash recovery, admission, and execution.

    Parameters
    ----------
    store:
        The durable queue.
    results:
        Shared content-addressed result store — the same directory the
        sweep engine and :class:`~repro.primitives.session.Session` use, so
        a queued job whose key is already cached completes without running,
        and locally-run jobs hit results the daemon computed.
    budget:
        Fridge power budget admissions are checked against (default: the
        paper's 10 W).
    max_workers:
        Concurrent job executions (worker processes, also the admission
        concurrency cap).  Every admitted job runs in a worker process
        through :func:`repro.runtime.jobs.execute_queued_job` and is settled
        by a callback on the pool thread that ran it.
    fair_share_weights:
        Optional per-session fair-share weights (see
        :func:`order_candidates`).
    """

    def __init__(
        self,
        store: QueueStore,
        results: ResultStore,
        budget: Optional[FridgeBudget] = None,
        max_workers: int = DEFAULT_QUEUE_WORKERS,
        fair_share_weights: Optional[Mapping[str, float]] = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.store = store
        self.results = results
        self.budget = budget if budget is not None else FridgeBudget()
        self.max_workers = max_workers
        self.fair_share_weights = dict(fair_share_weights or {})
        self._lock = threading.Lock()
        self._inflight: Dict[str, float] = {}
        self._idle = threading.Condition(self._lock)  # notified when _inflight empties
        self._usage: Dict[str, float] = {}
        self.peak_power_w = 0.0
        self._workers: Optional[WorkerPool] = None
        self._wake = threading.Event()
        self._stop = threading.Event()
        # Long-poll bookkeeping, guarded by the condition: how many requests
        # await each job, and the terminal records of awaited jobs.
        self._settled = threading.Condition()
        self._awaited: Dict[str, int] = {}
        self._settled_jobs: Dict[str, QueueJob] = {}
        store.ensure_layout()

    # -- power accounting -----------------------------------------------------------

    def _power_add(self, job: QueueJob) -> None:
        with self._lock:
            self._inflight[job.job_id] = job.power_w
            total = sum(self._inflight.values())
            self.peak_power_w = max(self.peak_power_w, total)
            self._usage[job.session] = self._usage.get(job.session, 0.0) + job.power_w
        telemetry.gauge("queue.power_in_flight").set(total)
        telemetry.gauge("queue.power_in_flight_peak").set(self.peak_power_w)

    def _power_remove(self, job_id: str) -> None:
        with self._lock:
            self._inflight.pop(job_id, None)
            total = sum(self._inflight.values())
            if not self._inflight:
                self._idle.notify_all()
        telemetry.gauge("queue.power_in_flight").set(total)

    # -- admission ------------------------------------------------------------------

    def admissible(self, queued: Sequence[QueueJob]) -> List[QueueJob]:
        """The jobs to admit right now, in order (pure policy, no side effects).

        Walks the deterministic candidate order, admitting while the fridge
        budget and the worker cap allow.  A non-deferrable job that does not
        fit blocks everything behind it; deferrable jobs are parked and
        counted.
        """
        with self._lock:
            headroom = self.budget.power_w - sum(self._inflight.values())
            slots = self.max_workers - len(self._inflight)
            usage = dict(self._usage)
        admitted: List[QueueJob] = []
        deferred = 0
        for job in order_candidates(queued, usage, self.fair_share_weights):
            if slots <= 0:
                break
            if job.power_w > headroom:
                if job.priority != "deferrable":
                    break  # head-of-line: hold the budget for this job
                deferred += 1
                continue  # park the deferrable job until headroom frees
            admitted.append(job)
            headroom -= job.power_w
            slots -= 1
            usage[job.session] = usage.get(job.session, 0.0) + job.power_w
        if deferred:
            telemetry.counter("queue.deferrals").inc(deferred)
        return admitted

    def tick(self) -> List[QueueJob]:
        """One scheduling round; returns the jobs admitted (and started).

        Cache-hit jobs (result key already in the shared store) complete
        instantly without claiming a worker or budget headroom.
        """
        queued = self.store.jobs("queued")
        pending: List[QueueJob] = []
        for job in queued:
            # The presence probe keeps blocked jobs from counting a store miss
            # every round; get() then rules out a torn entry before serving it.
            key = job.result_key
            if self.results.contains(key) and self.results.get(key) is not None:
                self._finish_cached(job)
            else:
                pending.append(job)
        admitted: List[QueueJob] = []
        for job in self.admissible(pending):
            with telemetry.span(
                "queue.admit",
                job_id=job.job_id,
                benchmark=job.benchmark,
                priority=job.priority,
                power_w=job.power_w,
            ):
                try:
                    claimed = self.store.claim(job)
                except LookupError:
                    continue  # cancelled or claimed elsewhere between scans
            self._power_add(claimed)
            telemetry.histogram("queue.wait_s").observe(
                max(0.0, time.time() - claimed.submitted_at)
            )
            admitted.append(claimed)
            self._submit(claimed)
        telemetry.gauge("queue.depth").set(len(pending) - len(admitted))
        return admitted

    def _finish_cached(self, job: QueueJob) -> None:
        """Complete a queued job off the shared result cache (no execution)."""
        try:
            claimed = self.store.claim(job)
            finished = self.store.finish(claimed)
        except LookupError:
            return
        telemetry.counter("queue.cache_hits").inc()
        self._notify_settled(finished)

    def cancel(self, job_id: str) -> Optional[QueueJob]:
        """Cancel a not-yet-started job (see :meth:`QueueStore.cancel`)."""
        cancelled = self.store.cancel(job_id)
        if cancelled is not None:
            self._notify_settled(cancelled)
        return cancelled

    # -- settlement -----------------------------------------------------------------

    def _notify_settled(self, job: QueueJob) -> None:
        """Hand a terminal record to the long-polls awaiting that job."""
        with self._settled:
            if job.job_id in self._awaited:
                self._settled_jobs[job.job_id] = job
                self._settled.notify_all()

    def _running(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._inflight

    def wait_settled(self, job_id: str, timeout_s: float) -> Optional[QueueJob]:
        """A job's record once it is terminal, or after ``timeout_s`` seconds.

        Returns early, with the job still pending, when the service stops and
        the job is not running here (a running job settles before the drain
        ends, so its wait holds); ``None`` for an unknown job.  Terminal
        transitions made by this service wake the wait at once; one made by
        another process sharing the queue root is seen by the caller's next
        request.
        """
        with self._settled:
            self._awaited[job_id] = self._awaited.get(job_id, 0) + 1
        try:
            job = self.store.get(job_id)
            if job is None or job.is_terminal:
                return job
            deadline = time.monotonic() + timeout_s
            with self._settled:
                while job_id not in self._settled_jobs:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or (self.stopping and not self._running(job_id)):
                        return job
                    self._settled.wait(remaining)
                return self._settled_jobs[job_id]
        finally:
            with self._settled:
                self._awaited[job_id] -= 1
                if not self._awaited[job_id]:
                    del self._awaited[job_id]
                    self._settled_jobs.pop(job_id, None)

    # -- execution ------------------------------------------------------------------

    def _submit(self, job: QueueJob) -> None:
        """Hand a claimed job to a worker process; :meth:`_settle` ends it."""
        execute = telemetry.span(
            "queue.execute",
            job_id=job.job_id,
            benchmark=job.benchmark,
            priority=job.priority,
            session=job.session,
            power_w=job.power_w,
        )
        opened = execute.open()  # off this thread's stack: _settle closes it
        parent_id = None if opened is None else opened.span_id
        try:
            with self._lock:
                if self._workers is None:
                    self._workers = WorkerPool(self.max_workers)
                workers = self._workers
            future = workers.submit(execute_queued_job, [job.to_spec()], [job.result_key])
        except Exception as error:  # noqa: BLE001 - settled as the job's failure
            future = Future()
            future.set_exception(error)
        future.add_done_callback(partial(self._settle, job, execute, parent_id))

    def _settle(
        self, job: QueueJob, execute: telemetry.span, parent_id: Optional[str], future: Future
    ) -> None:
        """Done-callback recording a job's terminal state and releasing its power.

        Runs on the pool thread that resolved ``future``.  Adopts the worker's
        spans under ``parent_id`` (the job's ``queue.execute`` span); a worker
        interrupt or exit leaves the job ``running`` for crash recovery.
        """
        settled: Optional[QueueJob] = None
        try:
            try:
                (result,) = merge_shipped_telemetry(future.result(), parent_id)
                self.results.put(job.result_key, result.as_dict())
            except Exception as error:  # noqa: BLE001 - daemon must survive any job
                execute.close(type(error))
                telemetry.counter("queue.failed").inc()
                settled = self.store.fail(job, f"{type(error).__name__}: {error}")
            except BaseException as error:  # the worker's interrupt or exit, not this thread's
                execute.close(type(error))
                logger.warning(
                    "job %s stopped on %s; left running", job.job_id, type(error).__name__
                )
            else:
                execute.close()
                settled = self.store.finish(job)
                telemetry.counter("queue.completed").inc()
        except LookupError:
            logger.warning("job %s lost its running entry; dropping", job.job_id)
        finally:
            if settled is not None:  # first: a client is waiting on it
                self._notify_settled(settled)
            self._power_remove(job.job_id)
            if settled is None:  # no longer running here: a stopping wait may end
                with self._settled:
                    self._settled.notify_all()
            self._wake.set()

    # -- daemon loop ----------------------------------------------------------------

    def wake(self) -> None:
        """Nudge the loop (called by the HTTP server after a submission)."""
        self._wake.set()

    def stop(self) -> None:
        """Stop the loop and release every pending :meth:`wait_settled`."""
        self._stop.set()
        self._wake.set()
        with self._settled:
            self._settled.notify_all()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def serve_loop(self, poll_interval_s: float = 0.5) -> None:
        """Run recovery once, then schedule until :meth:`stop` is called."""
        self.store.recover()
        while not self._stop.is_set():
            self.tick()
            self._wake.wait(poll_interval_s)
            self._wake.clear()
        self.drain()

    def drain(self) -> None:
        """Let every admitted job run and settle, then stop the worker processes.

        Waiting first keeps the pool shutdown from cancelling a job's task
        that is still queued for a slot.
        """
        with self._lock:
            self._idle.wait_for(lambda: not self._inflight)
            workers, self._workers = self._workers, None
        if workers is not None:
            workers.shutdown()

    # -- reporting ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Live scheduler accounting merged over the durable store's."""
        stats = self.store.stats()
        with self._lock:
            inflight = dict(self._inflight)
            usage = dict(self._usage)
            peak = self.peak_power_w
        stats.update(
            {
                "budget_w": self.budget.power_w,
                "power_in_flight_w": round(sum(inflight.values()), 9),
                "peak_power_in_flight_w": round(peak, 9),
                "max_workers": self.max_workers,
                "session_usage_w": {k: round(v, 9) for k, v in sorted(usage.items())},
                "deferrals": int(telemetry.counter("queue.deferrals").value),
                "cache_hits": int(telemetry.counter("queue.cache_hits").value),
            }
        )
        return stats
