"""JSONL trace sink: one event object per line, append-only.

The sink is selected with ``--trace PATH`` on the CLI or the
``REPRO_TELEMETRY`` environment variable; while configured, every
completed span is appended as a ``{"type": "span", ...}`` line and
:func:`TraceSink.write_metrics` dumps the registry as one
``{"type": "metrics", ...}`` line (the CLI writes it once on exit).
``repro telemetry summarize TRACE`` re-reads these lines into tables.

Only the process that configured the sink writes to it — worker processes
ship spans back in-band and the parent emits them on merge — so the file
needs no cross-process locking.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, List, Optional

#: Environment variable naming the JSONL trace file (same as ``--trace``).
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Format tag on every event line; bump when the event shape changes.
TRACE_SCHEMA = "repro-trace/v1"


class TraceSink:
    """An append-only JSONL event writer (thread-safe, lazily opened)."""

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = None

    def _write(self, event: Dict[str, object]) -> None:
        line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def write_span(self, span_dict: Dict[str, object]) -> None:
        event = {"type": "span", "schema": TRACE_SCHEMA}
        event.update(span_dict)
        self._write(event)

    def write_metrics(self, metrics_snapshot: Dict[str, object]) -> None:
        event = {"type": "metrics", "schema": TRACE_SCHEMA}
        event.update(metrics_snapshot)
        self._write(event)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def read_trace(path) -> List[Dict[str, object]]:
    """Parse a JSONL trace file back into event dicts (skips blank lines).

    Raises ``ValueError`` naming the offending line number on malformed
    JSON, so a torn trace file fails loudly rather than summarizing half a
    run silently.
    """
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{lineno}: malformed trace line: {error}") from None
    return events


def split_trace(
    events: List[Dict[str, object]],
) -> (List[Dict[str, object]], Optional[Dict[str, object]]):
    """Split parsed trace events into (span dicts, last metrics snapshot)."""
    spans = [event for event in events if event.get("type") == "span"]
    metrics = None
    for event in events:
        if event.get("type") == "metrics":
            metrics = event
    return spans, metrics
