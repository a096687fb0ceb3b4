"""End-to-end `repro serve --trace` smoke: queue.* spans render in summarize,
and the job's worker-process spans nest under the daemon's ``queue.execute``."""

import json
import subprocess
import sys

from test_crash_recovery import start_daemon, stop_daemon, sub_env

from repro.queue.client import QueueClient
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
