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

The package itself exports only :class:`QueueStore` and
:class:`QueueClient`; every other name is imported from the module that
defines it.  Importing this package loads :mod:`~repro.queue.store`, and
through it :mod:`~repro.queue.model`, which prices jobs and keys them
through :mod:`repro.runtime.jobs`, so numpy and the compile stack come with
it.  The HTTP client loads on first touch of :class:`QueueClient`.
"""

from .store import QueueStore

__all__ = ["QueueClient", "QueueStore"]


def __getattr__(name: str):
    # PEP 562 hook: QueueClient (urllib) loads on first touch.
    if name == "QueueClient":
        from .client import QueueClient

        return QueueClient
    raise AttributeError(f"module 'repro.queue' has no attribute '{name}'")
