"""``repro.queue`` — the durable, power-aware job-queue service.

The subsystem promoting :class:`~repro.primitives.job.JobHandle` from
in-process threads to a multi-client daemon:

* :mod:`repro.queue.model` — durable job records, spec wire payloads, and
  cost-model power pricing;
* :mod:`repro.queue.store` — the on-disk queue (one JSON file per job,
  atomic rename transitions, advisory ``fcntl`` locking, crash recovery);
* :mod:`repro.queue.scheduler` — admission against the paper's 10 W fridge
  budget with priority classes, EDD ordering, and weighted fair share;
* :mod:`repro.queue.server` — the ``repro serve`` HTTP/JSON daemon;
* :mod:`repro.queue.client` — :class:`QueueClient` /
  :class:`RemoteJobHandle`, the local-handle contract over HTTP;
* :mod:`repro.queue.cli` — ``repro serve`` and ``repro queue`` shells.

Importing this package loads :mod:`~repro.queue.model`, which prices jobs
and keys them through :mod:`repro.runtime.jobs`, so numpy and the compile
stack come with it.  The HTTP client and the scheduler load on first
touch of :class:`QueueClient` or :class:`QueueService`.
"""

from .model import PRIORITIES, QueueJob, build_job, job_power_w, spec_payload
from .store import QueueStore, queue_lock, resolve_queue_root

__all__ = [
    "PRIORITIES",
    "QueueJob",
    "QueueStore",
    "build_job",
    "job_power_w",
    "queue_lock",
    "resolve_queue_root",
    "spec_payload",
    "QueueClient",
    "RemoteJobHandle",
    "QueueService",
]


def __getattr__(name: str):
    # Lazy heavy imports: QueueClient/RemoteJobHandle (urllib) and
    # QueueService (execution stack) load on first touch.
    if name in ("QueueClient", "RemoteJobHandle", "QueueServerError"):
        from . import client

        return getattr(client, name)
    if name in ("QueueService", "order_candidates"):
        from . import scheduler

        return getattr(scheduler, name)
    raise AttributeError(f"module 'repro.queue' has no attribute '{name}'")
