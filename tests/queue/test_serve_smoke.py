"""End-to-end `repro serve` smokes: with ``--trace``, queue.* spans render in
summarize and the job's worker-process spans nest under the daemon's
``queue.execute``; on shutdown, HTTP answers until the running job settles,
and a scheduler loop that dies rather than drains makes the exit code non-zero."""

import subprocess
import sys
import threading
import time

from test_crash_recovery import start_daemon, stop_daemon, sub_env

import pytest

from repro.primitives.job import JobStatus
from repro.queue import server
from repro.queue.client import QueueClient
from repro.queue.scheduler import QueueService
from repro.queue.store import QueueStore
from repro.runtime.spec import ExperimentSpec, FidelityOptions
from repro.telemetry import read_trace, split_trace, summarize_trace_file


class TestServeTraceSmoke:
    def test_trace_run_renders_queue_spans(self, tmp_path):
        trace = tmp_path / "serve-trace.jsonl"
        daemon, url = start_daemon(tmp_path, extra=("--trace", str(trace)))
        try:
            submitted = subprocess.run(
                [
                    sys.executable, "-m", "repro.runtime", "queue", "submit",
                    "--benchmark", "bv", "--qubits", "5", "--seed", "31",
                    "--root", str(tmp_path / "queue"),
                    "--wait", "--timeout", "120", "--format", "json",
                ],
                env=sub_env(),
                capture_output=True,
                timeout=180,
            )
            assert submitted.returncode == 0, submitted.stderr.decode()
            QueueClient(url=url).shutdown()
            daemon.wait(timeout=30.0)
            assert daemon.returncode == 0  # clean drain and exit
        finally:
            stop_daemon(daemon)

        # the daemon's trace holds the new spans...
        span_rows, metric_rows, info = summarize_trace_file(str(trace))
        span_names = {row["span"] for row in span_rows}
        assert {"queue.submit", "queue.admit", "queue.execute"} <= span_names
        metric_names = {row["metric"] for row in metric_rows}
        assert "queue.submitted" in metric_names
        assert "queue.power_in_flight" in metric_names
        # worker metrics were merged into the daemon's registry
        assert "compile.wall_s" in metric_names

        # the job ran in a worker process whose spans hang under queue.execute
        spans, _ = split_trace(read_trace(str(trace)))
        by_id = {span["span_id"]: span for span in spans}
        executes = [span for span in spans if span["name"] == "job.execute"]
        assert executes
        for span in executes:
            assert span["pid"] != daemon.pid
            group = by_id[span["parent_id"]]
            assert group["name"] == "sweep.group" and group["pid"] == span["pid"]
            queue_execute = by_id[group["parent_id"]]
            assert queue_execute["name"] == "queue.execute"
            assert queue_execute["pid"] == daemon.pid

        # ...and `repro telemetry summarize` renders them for humans
        summarized = subprocess.run(
            [
                sys.executable, "-m", "repro.runtime", "telemetry", "summarize",
                str(trace),
            ],
            env=sub_env(),
            capture_output=True,
            timeout=60,
        )
        assert summarized.returncode == 0, summarized.stderr.decode()
        out = summarized.stdout.decode()
        for name in ("queue.submit", "queue.admit", "queue.execute"):
            assert name in out


class TestShutdownDrain:
    def test_http_answers_until_the_running_job_settles(self, tmp_path):
        daemon, url = start_daemon(tmp_path)
        try:
            client = QueueClient(url=url)
            spec = ExperimentSpec(  # about 3 s on a 2-core host
                benchmark="ising", num_qubits=12, seed=3,
                fidelity=FidelityOptions(trajectories=1000),
            )
            handle = client.submit(spec)
            deadline = time.monotonic() + 60.0
            while handle.status() is not JobStatus.RUNNING:
                assert time.monotonic() < deadline, "the job never started"
                time.sleep(0.05)
            collected = {}

            def collect():
                try:
                    collected["row"] = handle.result(timeout=120.0)
                except Exception as error:  # noqa: BLE001 - asserted below
                    collected["error"] = error

            collector = threading.Thread(target=collect)
            collector.start()
            client.shutdown()
            collector.join(timeout=150.0)
            daemon.wait(timeout=30.0)
            assert "error" not in collected, collected["error"]
            assert collected["row"].key == handle.job.result_key
            assert collected["row"].row["trajectories"] == 1000
            assert daemon.returncode == 0
            assert QueueStore(tmp_path / "queue").read_daemon() is None
        finally:
            stop_daemon(daemon)

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_dead_scheduler_loop_exits_non_zero(self, tmp_path, monkeypatch):
        def crash(self, poll_interval_s):
            raise OSError("queue root unreadable")

        monkeypatch.setattr(QueueService, "serve_loop", crash)
        monkeypatch.setattr(server.signal, "signal", lambda signum, handler: None)
        interval = sys.getswitchinterval()
        try:
            code = server.serve(root=tmp_path / "queue", cache_dir=tmp_path / "cache")
        finally:
            sys.setswitchinterval(interval)
        assert code == 1
        assert QueueStore(tmp_path / "queue").read_daemon() is None
