"""The ``repro serve`` daemon: a stdlib HTTP/JSON front-end on the queue.

The API (all bodies are JSON):

=========  ======================  ==============================================
method     path                    meaning
=========  ======================  ==============================================
``POST``   ``/jobs``               submit a spec payload; returns the job record
``GET``    ``/jobs/<id>``          one job's current record
``GET``    ``/jobs/<id>/result``   the result row once done (202 while pending);
                                   ``?wait=S`` long-polls: the request is held
                                   until the job settles or ``S`` seconds pass
``DELETE`` ``/jobs/<id>``          cancel a not-yet-started job
``GET``    ``/queue/stats``        live scheduler + durable-store accounting
``POST``   ``/shutdown``           stop scheduling, drain workers, exit cleanly
=========  ======================  ==============================================

The server owns no execution logic: submissions land in the durable
:class:`~repro.queue.store.QueueStore`, the
:class:`~repro.queue.scheduler.QueueService` loop admits them against the
fridge budget, and results come back through the shared content-addressed
:class:`~repro.runtime.store.ResultStore` — so killing the daemon loses
nothing, and a restarted one picks the queue back up where it died.
"""

from __future__ import annotations

import json
import logging
import math
import os
import signal
import sys
import threading
import time
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import telemetry
from ..hardware.budget import FridgeBudget
from ..runtime.store import ResultStore
from .model import PRIORITIES, build_job, spec_from_payload
from .scheduler import DEFAULT_QUEUE_WORKERS, QueueService
from .store import QueueStore

logger = logging.getLogger(__name__)

#: Longest ``?wait=`` a result request may hold its connection, in seconds.
MAX_RESULT_WAIT_S = 60.0

#: The daemon process's GIL switch interval, in seconds.
DAEMON_SWITCH_INTERVAL_S = 0.001


class BadRequest(ValueError):
    """A malformed request (answered with HTTP 400)."""


def _wait_seconds(query: str) -> float:
    """The ``wait`` query parameter of a result request (0 when absent)."""
    values = parse_qs(query).get("wait")
    if not values:
        return 0.0
    try:
        wait_s = float(values[-1])
    except ValueError:
        raise BadRequest(f"wait must be a number of seconds, got {values[-1]!r}") from None
    if not math.isfinite(wait_s) or wait_s < 0:
        raise BadRequest(f"wait must be a finite number >= 0, got {values[-1]!r}")
    return min(wait_s, MAX_RESULT_WAIT_S)


class QueueRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto a :class:`QueueService` (set per server)."""

    server_version = "repro-queue/1"
    protocol_version = "HTTP/1.1"
    # An idle keep-alive connection ends after this long, so closing the
    # server (which joins every request thread) never waits on one for good.
    timeout = MAX_RESULT_WAIT_S

    # The ThreadingHTTPServer instance carries these (see serve()).
    @property
    def service(self) -> QueueService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    # -- plumbing -------------------------------------------------------------------

    def _send(self, code: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _job_route(self) -> Optional[Tuple[str, bool]]:
        """``(job_id, wants_result)`` for ``/jobs/...`` paths, else None."""
        parts = [p for p in urlsplit(self.path).path.split("/") if p]
        if not parts or parts[0] != "jobs" or len(parts) not in (2, 3):
            return None
        if len(parts) == 3 and parts[2] != "result":
            return None
        return parts[1], len(parts) == 3

    # -- verbs ----------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        try:
            if self.path == "/jobs":
                self._submit()
            elif self.path == "/shutdown":
                self._send(200, {"ok": True, "stopping": True})
                self.service.stop()
            else:
                self._send(404, {"error": f"no such endpoint: POST {self.path}"})
        except Exception as error:  # noqa: BLE001 - report, never kill the daemon
            self._send(400, {"error": f"{type(error).__name__}: {error}"})

    def do_GET(self) -> None:  # noqa: N802
        try:
            if self.path == "/queue/stats":
                self._send(200, self.service.stats())
                return
            route = self._job_route()
            if route is None:
                self._send(404, {"error": f"no such endpoint: GET {self.path}"})
            elif route[1]:
                self._result(route[0], _wait_seconds(urlsplit(self.path).query))
            else:
                self._status(route[0])
        except BadRequest as error:
            self._send(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001
            self._send(500, {"error": f"{type(error).__name__}: {error}"})

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            route = self._job_route()
            if route is None or route[1]:
                self._send(404, {"error": f"no such endpoint: DELETE {self.path}"})
                return
            self._cancel(route[0])
        except Exception as error:  # noqa: BLE001
            self._send(500, {"error": f"{type(error).__name__}: {error}"})

    # -- handlers -------------------------------------------------------------------

    def _submit(self) -> None:
        body = self._body()
        payload = body.get("spec")
        if not isinstance(payload, dict):
            raise ValueError("POST /jobs body needs a 'spec' payload object")
        priority = str(body.get("priority", "batch"))
        if priority not in PRIORITIES:
            raise ValueError(f"unknown priority '{priority}'; known: {PRIORITIES}")
        spec = spec_from_payload(payload)  # validates before anything lands on disk
        due_in_s = body.get("due_in_s")
        with telemetry.span(
            "queue.submit",
            benchmark=spec.benchmark,
            num_qubits=spec.num_qubits,
            priority=priority,
        ):
            job = self.service.store.submit(
                partial(
                    build_job,
                    spec,
                    priority=priority,
                    session=str(body.get("session", "anonymous")),
                    due_in_s=None if due_in_s is None else float(due_in_s),
                )
            )
        self.service.wake()
        self._send(201, {"job": job.as_dict()})

    def _status(self, job_id: str) -> None:
        job = self.service.store.get(job_id)
        if job is None:
            self._send(404, {"error": f"unknown job '{job_id}'"})
        else:
            self._send(200, {"job": job.as_dict()})

    def _result(self, job_id: str, wait_s: float) -> None:
        job = self.service.wait_settled(job_id, wait_s)
        if job is None:
            self._send(404, {"error": f"unknown job '{job_id}'"})
            return
        if job.state == "done":
            result = self.service.results.get(job.result_key)
            if result is None:
                self._send(500, {"error": f"result of '{job_id}' missing from store"})
            else:
                self._send(200, {"job": job.as_dict(), "result": result})
        elif job.state == "failed":
            self._send(409, {"job": job.as_dict(), "error": job.error or "job failed"})
        elif job.state == "cancelled":
            self._send(409, {"job": job.as_dict(), "error": "job was cancelled"})
        else:  # queued / running: the wait ran out or the daemon is stopping
            self._send(202, {"job": job.as_dict()})

    def _cancel(self, job_id: str) -> None:
        cancelled = self.service.cancel(job_id)
        if cancelled is not None:
            self._send(200, {"job": cancelled.as_dict()})
            return
        job = self.service.store.get(job_id)
        if job is None:
            self._send(404, {"error": f"unknown job '{job_id}'"})
        else:  # running or already terminal: too late, report current state
            self._send(409, {"job": job.as_dict(), "error": f"job is {job.state}"})


class QueueHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers.

    Its request threads are joined on close, so a response under way when
    the drain ends (a long-poll woken by the last job) is written in full.
    """

    daemon_threads = False

    def __init__(self, address: Tuple[str, int], service: QueueService):
        super().__init__(address, QueueRequestHandler)
        self.service = service


def serve(
    root: Optional[os.PathLike] = None,
    cache_dir: Optional[os.PathLike] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    budget_w: Optional[float] = None,
    workers: int = DEFAULT_QUEUE_WORKERS,
    poll_interval_s: float = 0.5,
) -> int:
    """Run the daemon until shut down; returns the process exit code.

    Binds first (``port=0`` picks a free port), then advertises itself in
    the queue root's ``daemon.json`` so clients and the ``repro queue`` CLI
    can discover the URL, then runs crash recovery and the scheduling loop.
    ``POST /shutdown``, SIGTERM and SIGINT only stop the loop: HTTP keeps
    answering, and ``daemon.json`` stays, until every admitted job has
    settled and the worker processes are gone.
    """
    # The daemon's threads only coordinate (jobs run in worker processes), so
    # hand the GIL to a woken request thread sooner than the 5 ms default.
    sys.setswitchinterval(DAEMON_SWITCH_INTERVAL_S)
    store = QueueStore(root)
    results = ResultStore(cache_dir)
    budget = FridgeBudget() if budget_w is None else FridgeBudget(power_w=float(budget_w))
    service = QueueService(store, results, budget=budget, max_workers=workers)
    httpd = QueueHTTPServer((host, port), service)
    bound_host, bound_port = httpd.server_address[0], httpd.server_address[1]
    url = f"http://{bound_host}:{bound_port}"
    store.write_daemon(
        {
            "pid": os.getpid(),
            "url": url,
            "host": bound_host,
            "port": bound_port,
            "budget_w": budget.power_w,
            "workers": workers,
            "started_at": time.time(),
        }
    )

    def _terminate(signum, frame):  # noqa: ANN001 - signal signature
        service.stop()

    # The handler runs on the main thread, which only ever runs serve_forever
    # and so never holds a service lock the handler needs.
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    crashed = []

    def _schedule() -> None:
        try:
            service.serve_loop(poll_interval_s=poll_interval_s)
        except BaseException:
            crashed.append(True)  # died rather than drained: exit non-zero
            raise
        finally:
            httpd.shutdown()  # only once the drain has ended

    scheduler_thread = threading.Thread(
        target=_schedule, name="repro-queue-scheduler", daemon=True
    )
    scheduler_thread.start()
    logger.info("repro serve listening on %s (queue root %s)", url, store.root)
    print(f"repro serve: listening on {url} (queue root {store.root})", flush=True)
    try:
        httpd.serve_forever(poll_interval=0.2)
    finally:
        service.stop()
        scheduler_thread.join()
        httpd.server_close()
        store.clear_daemon()
        telemetry.flush_metrics()
        telemetry.close_sink()
    return 1 if crashed else 0
