"""Tests for the HTTP daemon and QueueClient/RemoteJobHandle contract."""

import json
import socket
import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.queue.client import QueueClient, QueueServerError, discover_url
from repro.queue.model import spec_payload
from repro.queue.scheduler import QueueService
from repro.queue.server import QueueHTTPServer
from repro.queue.store import QueueStore
from repro.runtime.jobs import job_key
from repro.runtime.spec import ExperimentSpec, FidelityOptions
from repro.runtime.store import ResultStore, canonical_json


def make_spec(seed=0, **overrides):
    defaults = dict(benchmark="bv", num_qubits=5, seed=seed)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture
def daemon(tmp_path):
    """An in-thread daemon executing real specs; yields (client, service)."""
    service = QueueService(
        QueueStore(tmp_path / "queue"),
        ResultStore(tmp_path / "cache"),
        max_workers=2,
    )
    httpd = QueueHTTPServer(("127.0.0.1", 0), service)
    url = f"http://127.0.0.1:{httpd.server_address[1]}"
    threads = [
        threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True),
        threading.Thread(target=service.serve_loop, kwargs={"poll_interval_s": 0.05}, daemon=True),
    ]
    for thread in threads:
        thread.start()
    try:
        yield QueueClient(url=url), service
    finally:
        service.stop()
        httpd.shutdown()
        httpd.server_close()
        for thread in threads:
            thread.join(timeout=10.0)


class TestRoundTrip:
    def test_submit_poll_collect(self, daemon):
        client, service = daemon
        spec = make_spec()
        handle = client.submit(spec, priority="interactive", session="alice")
        result = handle.result(timeout=60.0)
        assert result.key == job_key(spec)
        assert handle.status().value == "done"
        assert handle.done() and not handle.cancelled()
        # the daemon's row is byte-identical to a local execution of the spec
        from repro.runtime.jobs import execute_spec

        local = execute_spec(spec)
        assert canonical_json(result.row) == canonical_json(local.row)

    def test_reattach_from_another_client(self, daemon):
        client, _ = daemon
        submitted = client.submit(make_spec(seed=1))
        other = QueueClient(url=client.url)  # a second "process"
        result = other.handle(submitted.job_id).result(timeout=60.0)
        assert result.key == job_key(make_spec(seed=1))

    def test_repeat_submission_hits_result_cache(self, daemon):
        client, _ = daemon
        spec = make_spec(seed=2)
        client.submit(spec).result(timeout=60.0)
        again = client.submit(spec)
        assert again.result(timeout=60.0).key == job_key(spec)
        stats = client.stats()
        assert stats["cache_hits"] >= 1

    def test_stats_and_queue_accounting(self, daemon):
        client, service = daemon
        client.submit(make_spec(seed=3)).result(timeout=60.0)
        http_stats = client.stats()
        assert http_stats["depths"]["done"] >= 1
        assert http_stats == json.loads(
            json.dumps(service.stats(), sort_keys=True)
        )  # the endpoint serves exactly the service's accounting


class TestLongPoll:
    def counting(self, client, name):
        calls = []
        original = getattr(client, name)

        def wrapper(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        setattr(client, name, wrapper)
        return calls

    def test_result_is_one_poll_and_no_status_request(self, daemon):
        client, _ = daemon
        polls = self.counting(client, "result_row")
        lookups = self.counting(client, "job")
        handle = client.submit(make_spec(seed=40))
        handle.result(timeout=60.0)
        assert len(polls) == 1 and polls[0]["wait_s"] > 0
        assert lookups == []  # the final record came with the result
        assert handle.job.state == "done"
        assert handle.job.started_at <= handle.job.finished_at

    def test_wait_returns_as_soon_as_the_job_settles(self, daemon):
        client, _ = daemon
        wide = make_spec(backend="cryo-cmos-grid", num_qubits=1000)
        handle = client.submit(wide, priority="deferrable")  # parked forever
        outcome = []

        def long_poll():
            try:
                outcome.append(client.result_row(handle.job_id, wait_s=30.0))
            except CancelledError as error:
                outcome.append(error)

        poller = threading.Thread(target=long_poll)
        started = time.monotonic()
        poller.start()
        time.sleep(0.2)
        assert handle.cancel() is True
        poller.join(timeout=10.0)
        assert not poller.is_alive()
        assert isinstance(outcome[0], CancelledError)
        assert time.monotonic() - started < 10.0

    def test_stop_answers_pending_long_polls(self, daemon):
        client, service = daemon
        wide = make_spec(backend="cryo-cmos-grid", num_qubits=1000)
        handle = client.submit(wide, priority="deferrable")
        outcome = []
        poller = threading.Thread(
            target=lambda: outcome.append(client.result_row(handle.job_id, wait_s=30.0))
        )
        poller.start()
        time.sleep(0.2)
        started = time.monotonic()
        service.stop()
        poller.join(timeout=10.0)
        assert not poller.is_alive()
        assert outcome == [None]  # 202: still pending
        assert time.monotonic() - started < 5.0

    def test_early_answers_pause_between_polls(self, daemon):
        client, service = daemon
        wide = make_spec(backend="cryo-cmos-grid", num_qubits=1000)
        handle = client.submit(wide, priority="deferrable")
        service.stop()  # every long-poll now comes back at once
        polls = self.counting(client, "result_row")
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.5, poll_interval_s=0.1)
        assert 2 <= len(polls) <= 10

    @pytest.mark.parametrize("wait", ["soon", "-1", "nan", "inf"])
    def test_bad_wait_is_rejected(self, daemon, wait):
        client, _ = daemon
        handle = client.submit(make_spec(seed=41))
        code, payload = client._request("GET", f"/jobs/{handle.job_id}/result?wait={wait}")
        assert code == 400 and "wait" in payload["error"]


class TestCancellation:
    def test_cancel_parked_job_raises_cleanly(self, daemon):
        client, service = daemon
        # price the job over the budget so it parks in 'queued' forever
        wide = make_spec(backend="cryo-cmos-grid", num_qubits=1000)
        handle = client.submit(wide, priority="deferrable")
        assert handle.job.power_w > service.budget.power_w
        assert handle.cancel() is True
        assert handle.cancel() is True  # idempotent
        assert handle.status().value == "cancelled"
        with pytest.raises(CancelledError):
            handle.result(timeout=5.0)

    def test_cancel_done_job_fails(self, daemon):
        client, _ = daemon
        handle = client.submit(make_spec(seed=4))
        handle.result(timeout=60.0)
        assert handle.cancel() is False


class TestErrors:
    def test_unknown_job_and_endpoint(self, daemon):
        client, _ = daemon
        with pytest.raises(QueueServerError, match="unknown job"):
            client.job("nope")
        with pytest.raises(QueueServerError, match="no such endpoint"):
            client._expect(*client._request("GET", "/bogus"), 200)

    def test_bad_submission_rejected(self, daemon):
        client, _ = daemon
        code, payload = client._request("POST", "/jobs", {"spec": {"benchmark": "nope"}})
        assert code == 400 and "error" in payload
        code, payload = client._request("POST", "/jobs", {})
        assert code == 400

    @pytest.mark.parametrize("mode", ["statevector", "stabilizer", "sparse"])
    def test_retired_sim_mode_rejected(self, daemon, mode):
        client, service = daemon
        payload = spec_payload(make_spec(fidelity=FidelityOptions()))
        payload["fidelity"]["mode"] = mode
        code, body = client._request("POST", "/jobs", {"spec": payload})
        assert code == 400 and "mode" in body["error"]
        assert sum(service.store.depths().values()) == 0

    def test_result_pending_is_202(self, daemon):
        client, service = daemon
        wide = make_spec(backend="cryo-cmos-grid", num_qubits=1000)
        handle = client.submit(wide, priority="deferrable")
        assert client.result_row(handle.job_id) is None  # parked: still pending
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.2)
        handle.cancel()

    def test_discover_url_without_daemon(self, tmp_path):
        with pytest.raises(QueueServerError, match="no live repro serve daemon"):
            discover_url(tmp_path / "empty")

    def test_unreachable_url(self):
        client = QueueClient(url="http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(QueueServerError, match="cannot reach"):
            client.stats()

    def test_connection_closed_without_an_answer(self):
        """A peer that reads the request and hangs up makes ``urllib`` raise
        ``http.client.RemoteDisconnected``; the client reports it as a
        ``QueueServerError`` like any other unreachable daemon."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def hang_up(requests):
            for _ in range(requests):
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)

        thread = threading.Thread(target=hang_up, args=(2,), daemon=True)
        thread.start()
        with listener:
            client = QueueClient(url=f"http://127.0.0.1:{port}", timeout_s=5.0)
            with pytest.raises(QueueServerError, match="cannot reach"):
                client.stats()
            with pytest.raises(QueueServerError, match="cannot reach"):
                client.job("any")
            thread.join(timeout=5.0)

    def test_non_json_answer(self):
        """Something other than ``repro serve`` on the port answers 200 with
        HTML; the client reports a ``QueueServerError`` naming the URL, not
        a raw ``JSONDecodeError``."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def answer_html():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(
                    b"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\n"
                    b"<html><body>not a queue</body></html>"
                )

        thread = threading.Thread(target=answer_html, daemon=True)
        thread.start()
        with listener:
            client = QueueClient(url=f"http://127.0.0.1:{port}", timeout_s=5.0)
            with pytest.raises(QueueServerError, match="not JSON") as raised:
                client.stats()
            assert f"http://127.0.0.1:{port}" in str(raised.value)
            thread.join(timeout=5.0)


class TestSessionQueuePath:
    def test_session_queue_results_byte_identical(self, daemon, tmp_path):
        from repro.primitives.session import Session

        client, _ = daemon
        spec = make_spec(seed=5)
        remote = Session(spec.backend, queue=client)
        local = Session(spec.backend, store=ResultStore(tmp_path / "local"))
        try:
            remote_result, cached = remote.execute(spec)
            assert cached is False
            local_result, _ = local.execute(spec)
            assert remote_result.key == local_result.key
            assert canonical_json(remote_result.row) == canonical_json(local_result.row)
            # second execute is a session-memory hit, no daemon traffic
            again, cached = remote.execute(spec)
            assert cached is True
        finally:
            remote.close()
            local.close()

    def test_sampler_queue_kwarg(self, daemon):
        from repro.primitives.sampler import Sampler

        client, _ = daemon
        sampler = Sampler("digiq-opt8", queue=client)
        assert sampler.session.queue is client
        result = sampler.run("bv", shots=64, num_qubits=5, seed=6).result()
        assert result.entries[0].counts
        sampler.session.close()

    def test_estimator_queue_kwarg(self, daemon):
        from repro.primitives.estimator import Estimator

        client, _ = daemon
        estimator = Estimator("digiq-opt8", queue=client)
        assert estimator.session.queue is client
        estimator.session.close()

    def test_queue_url_string_resolution(self, daemon):
        from repro.primitives.session import Session

        client, _ = daemon
        session = Session("digiq-opt8", queue=client.url)
        assert session.queue.url == client.url
        session.close()
        assert Session("digiq-opt8").queue is None
