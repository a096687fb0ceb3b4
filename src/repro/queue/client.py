"""HTTP client for the ``repro serve`` daemon.

:class:`QueueClient` speaks the JSON API with nothing but ``urllib`` and
returns :class:`RemoteJobHandle` objects satisfying the same
``status()/result()/cancel()`` contract as the in-process
:class:`~repro.primitives.job.JobHandle` — the same
:class:`~repro.primitives.job.JobStatus` values, the same
:class:`~concurrent.futures.CancelledError` on cancellation, the same
re-raise-on-failure and builtin :class:`TimeoutError` semantics — so code
written against local handles works unchanged against the daemon.

Results come back as :class:`~repro.runtime.jobs.JobResult` rows built from
the daemon's shared content-addressed store, byte-identical (same job key,
same canonical row) to running the spec locally.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from concurrent.futures import CancelledError
from typing import Callable, Dict, Optional

from ..runtime.jobs import JobResult
from ..runtime.spec import ExperimentSpec
from .model import QueueJob, spec_payload
from .store import QueueStore, resolve_queue_root

#: Pause before asking again after the daemon answered a long-poll early
#: (it is stopping), in seconds.
DEFAULT_POLL_INTERVAL_S = 0.1

#: Longest wait a blocking ``result()`` asks the daemon for per request.
LONG_POLL_S = 10.0


class QueueServerError(RuntimeError):
    """The daemon answered with an error payload (or unreachable URL)."""

    def __init__(self, message: str, code: Optional[int] = None):
        super().__init__(message)
        self.code = code


def discover_url(root=None) -> str:
    """The live daemon's URL from the queue root's ``daemon.json``.

    Raises :class:`QueueServerError` when no live daemon is advertised
    (missing descriptor, or its pid is dead).
    """
    store = QueueStore(root)
    info = store.read_daemon()
    if info is None or not info.get("url"):
        raise QueueServerError(
            f"no live repro serve daemon advertised under {resolve_queue_root(root)} "
            "(start one with 'repro serve', or pass the URL explicitly)"
        )
    return str(info["url"])


class QueueClient:
    """A connection to one daemon (explicit ``url``, or discovered via root)."""

    def __init__(
        self,
        url: Optional[str] = None,
        root=None,
        timeout_s: float = 30.0,
    ):
        self.url = (url if url is not None else discover_url(root)).rstrip("/")
        self.timeout_s = timeout_s

    # -- HTTP plumbing --------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        hold_s: float = 0.0,
    ) -> tuple:
        """One JSON round trip; ``hold_s`` extends the timeout for a long-poll."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            f"{self.url}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s + hold_s) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as error:
            try:
                payload = json.loads(error.read().decode("utf-8"))
            except (json.JSONDecodeError, ValueError):
                payload = {"error": str(error)}
            return error.code, payload
        except urllib.error.URLError as error:
            raise QueueServerError(
                f"cannot reach repro serve at {self.url}: {error.reason}"
            ) from None
        except (OSError, http.client.HTTPException) as error:
            # A reset, a read timeout or a connection closed without an
            # answer: urllib raises these raw once the request is sent.
            raise QueueServerError(
                f"cannot reach repro serve at {self.url}: {error!r}"
            ) from None
        try:
            return status, json.loads(raw.decode("utf-8"))
        except ValueError:
            raise QueueServerError(
                f"{self.url}{path} answered HTTP {status} with a body that is not JSON"
            ) from None

    @staticmethod
    def _expect(code: int, payload: Dict[str, object], *ok: int) -> Dict[str, object]:
        if code not in ok:
            raise QueueServerError(
                str(payload.get("error", f"unexpected HTTP {code}")), code=code
            )
        return payload

    # -- API ------------------------------------------------------------------------

    def submit(
        self,
        spec: ExperimentSpec,
        priority: str = "batch",
        session: str = "anonymous",
        due_in_s: Optional[float] = None,
    ) -> "RemoteJobHandle":
        """Enqueue one spec on the daemon; returns a handle to poll."""
        body: Dict[str, object] = {
            "spec": spec_payload(spec),
            "priority": priority,
            "session": session,
        }
        if due_in_s is not None:
            body["due_in_s"] = float(due_in_s)
        code, payload = self._request("POST", "/jobs", body)
        job = QueueJob.from_dict(self._expect(code, payload, 201)["job"])
        return RemoteJobHandle(self, job)

    def job(self, job_id: str) -> QueueJob:
        """One job's current durable record."""
        code, payload = self._request("GET", f"/jobs/{job_id}")
        return QueueJob.from_dict(self._expect(code, payload, 200)["job"])

    def handle(self, job_id: str) -> "RemoteJobHandle":
        """Re-attach a handle to a previously submitted job (any process)."""
        return RemoteJobHandle(self, self.job(job_id))

    def result_row(
        self,
        job_id: str,
        wait_s: float = 0.0,
        on_job: Optional[Callable[[QueueJob], None]] = None,
    ) -> Optional[Dict[str, object]]:
        """The finished job's result row, or ``None`` while still pending.

        ``wait_s > 0`` long-polls: the daemon holds the request until the job
        settles or ``wait_s`` seconds pass (it caps the wait at a minute),
        so a result arrives the moment it exists.  ``on_job`` receives the
        job record the daemon answered with, which spares a separate
        :meth:`job` request.  Raises :class:`CancelledError` for a cancelled
        job and :class:`QueueServerError` for a failed one — mirroring what
        a local handle's ``result()`` would do.
        """
        path = f"/jobs/{job_id}/result"
        if wait_s > 0:
            path += f"?wait={wait_s:.3f}"
        code, payload = self._request("GET", path, hold_s=wait_s)
        if on_job is not None and isinstance(payload.get("job"), dict):
            on_job(QueueJob.from_dict(payload["job"]))
        if code == 202:
            return None
        if code == 409:
            state = payload.get("job", {}).get("state")
            if state == "cancelled":
                raise CancelledError(f"{job_id} was cancelled")
            raise QueueServerError(str(payload.get("error", "job failed")), code=code)
        return self._expect(code, payload, 200)["result"]

    def cancel(self, job_id: str) -> bool:
        """Cancel a not-yet-started job; True when the cancellation won."""
        code, payload = self._request("DELETE", f"/jobs/{job_id}")
        if code == 200:
            return True
        if code == 409:
            return payload.get("job", {}).get("state") == "cancelled"
        self._expect(code, payload, 200, 409)
        return False

    def stats(self) -> Dict[str, object]:
        code, payload = self._request("GET", "/queue/stats")
        return self._expect(code, payload, 200)

    def shutdown(self) -> None:
        """Ask the daemon to drain its workers and exit cleanly."""
        code, payload = self._request("POST", "/shutdown")
        self._expect(code, payload, 200)


class RemoteJobHandle:
    """A daemon-backed job handle with the local ``JobHandle`` contract.

    ``status()`` maps the durable queue state onto
    :class:`~repro.primitives.job.JobStatus` (the string values are
    identical by construction); ``result()`` long-polls until terminal and
    returns a :class:`~repro.runtime.jobs.JobResult`; ``cancel()`` follows
    the ``concurrent.futures`` contract across processes.
    """

    def __init__(self, client: QueueClient, job: QueueJob):
        self._client = client
        self._job = job
        self.job_id = job.job_id
        self.backend_name = str(job.spec.get("backend", {}).get("name", ""))

    # -- inspection -----------------------------------------------------------------

    def refresh(self) -> QueueJob:
        """Fetch and keep the latest durable record."""
        self._job = self._client.job(self.job_id)
        return self._job

    def _observe(self, job: QueueJob) -> None:
        self._job = job

    @property
    def job(self) -> QueueJob:
        """The most recently seen durable record (see :meth:`refresh`)."""
        return self._job

    def status(self):
        from ..primitives.job import JobStatus

        if not self._job.is_terminal:
            self.refresh()
        return JobStatus(self._job.state)

    def done(self) -> bool:
        return self.status().is_terminal

    def cancelled(self) -> bool:
        from ..primitives.job import JobStatus

        return self.status() is JobStatus.CANCELLED

    # -- resolution -----------------------------------------------------------------

    def result(
        self,
        timeout: Optional[float] = None,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
    ) -> JobResult:
        """Block until the job finishes on the daemon; return its row.

        Each request long-polls (see :meth:`QueueClient.result_row`), so the
        row arrives as soon as the job settles.  ``poll_interval_s`` is only
        the pause before asking again when the daemon answers a long-poll
        early because it is stopping.

        Raises :class:`concurrent.futures.CancelledError` if the job was
        cancelled, :class:`QueueServerError` if it failed on the daemon, and
        the builtin :class:`TimeoutError` past ``timeout`` seconds — the
        same exception surface as the local handle.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            wait_s = LONG_POLL_S if deadline is None else min(LONG_POLL_S, deadline - asked)
            row = self._client.result_row(
                self.job_id, wait_s=max(0.0, wait_s), on_job=self._observe
            )
            if row is not None:
                return JobResult.from_dict(row)
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise TimeoutError(f"{self.job_id} did not finish within {timeout}s")
            if now - asked < wait_s:  # answered early: the daemon is stopping
                pause = poll_interval_s if deadline is None else deadline - now
                time.sleep(min(poll_interval_s, pause))

    def cancel(self) -> bool:
        won = self._client.cancel(self.job_id)
        self.refresh()
        return won

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RemoteJobHandle(id={self.job_id!r}, url={self._client.url!r}, "
            f"state={self._job.state!r})"
        )
