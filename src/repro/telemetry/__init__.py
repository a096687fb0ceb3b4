"""``repro.telemetry`` — spans, metrics, and trace sinks for the whole stack.

One process-local :class:`~repro.telemetry.spans.SpanCollector` and one
:class:`~repro.telemetry.metrics.MetricsRegistry` serve every subsystem:

* the compiler wraps each pass in a ``compile.pass.*`` span;
* the sweep dispatcher wraps runs and compile groups, merges worker-process
  span snapshots back, and counts computed/cached/duplicate jobs;
* the result store counts hits, misses, corrupt entries and writes;
* the trajectory engine records per-batch kernel spans and throughput;
* job handles count completions/failures/cancellations.

Spans are recorded only while telemetry is *enabled*: a JSONL sink is
configured (:func:`configure_sink`, the ``--trace`` CLI flag, or the
``REPRO_TELEMETRY`` environment variable) or a :func:`collecting` window is
open.  Disabled spans cost one attribute check — the benchmark suite
asserts the no-sink overhead on the compile path stays under 2%.  Metrics
are always on (one locked add per event).

Quickstart::

    from repro import telemetry

    with telemetry.collecting():
        with telemetry.span("my.work", items=3):
            ...
    print(telemetry.summarize_spans(telemetry.snapshot_spans()))
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, List, Optional

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .sink import TELEMETRY_ENV, TRACE_SCHEMA, TraceSink, read_trace, split_trace
from .spans import Span, SpanCollector
from .summary import summarize_metrics, summarize_spans, summarize_trace_file

#: The process-local singletons every subsystem shares.
_COLLECTOR = SpanCollector()
_METRICS = MetricsRegistry()
_SINK: Optional[TraceSink] = None


# -- enablement ---------------------------------------------------------------------


def enabled() -> bool:
    """Whether spans are currently being recorded in this process."""
    return _SINK is not None or _COLLECTOR.active


def configure_sink(path) -> TraceSink:
    """Route telemetry to a JSONL trace file (replaces any previous sink)."""
    global _SINK
    close_sink()
    _SINK = TraceSink(path)
    return _SINK


def configure_from_env() -> Optional[TraceSink]:
    """Configure the sink from ``REPRO_TELEMETRY`` if set (else no-op)."""
    path = os.environ.get(TELEMETRY_ENV)
    if path is not None and path.strip():
        return configure_sink(path.strip())
    return None


def close_sink() -> None:
    global _SINK
    if _SINK is not None:
        _SINK.close()
        _SINK = None


@contextmanager
def collecting():
    """A window during which spans are recorded in the process collector."""
    _COLLECTOR.activate()
    try:
        yield _COLLECTOR
    finally:
        _COLLECTOR.deactivate()


def reset() -> None:
    """Clear all telemetry state (spans, metrics, sink) — worker/test entry."""
    close_sink()
    _COLLECTOR.reset()
    _METRICS.reset()


# -- spans --------------------------------------------------------------------------


class span:
    """Context manager timing one region of work (no-op while disabled).

    ``attrs`` are free-form JSON-able annotations (benchmark name, batch
    size, ...).  Nesting is tracked per thread; the innermost open span is
    the parent of any span opened beneath it.  Work that ends on another
    thread uses :meth:`open` and :meth:`close` instead of ``with``.
    """

    __slots__ = ("name", "attrs", "_entry")

    def __init__(self, name: str, **attrs: object):
        self.name = name
        self.attrs = attrs
        self._entry: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        if _SINK is None and not _COLLECTOR.active:
            return None
        self._entry = _COLLECTOR.open_span(self.name, dict(self.attrs))
        return self._entry

    def __exit__(self, exc_type, exc, tb) -> bool:
        entry = self._entry
        if entry is not None:
            self._entry = None
            if exc_type is not None:
                entry.attrs.setdefault("error", exc_type.__name__)
            _COLLECTOR.close_span(entry)
            if _SINK is not None:
                _SINK.write_span(entry.as_dict())
        return False

    def open(self) -> Optional[Span]:
        """Start the span off this thread's stack: later spans do not nest under it."""
        if _SINK is None and not _COLLECTOR.active:
            return None
        self._entry = _COLLECTOR.open_span(self.name, dict(self.attrs), detached=True)
        return self._entry

    def close(self, error: Optional[type] = None) -> None:
        """End a span from any thread; ``error`` is the type of what ended its work."""
        self.__exit__(error, None, None)


def current_span() -> Optional[Span]:
    """The calling thread's innermost open span, if any."""
    return _COLLECTOR.current()


def snapshot_spans() -> List[Dict[str, object]]:
    """JSON-able list of every completed span in this process."""
    return _COLLECTOR.snapshot()


def span_tree() -> List[Dict[str, object]]:
    """Completed spans as nested root nodes (see :meth:`SpanCollector.tree`)."""
    return _COLLECTOR.tree()


def merge_spans(
    snapshot: List[Dict[str, object]], parent_id: Optional[str] = None
) -> None:
    """Adopt a worker's span snapshot (re-parented under ``parent_id``).

    Merged spans are also forwarded to the configured sink, so a traced
    parallel sweep writes the complete tree to one file.
    """
    adopted = _COLLECTOR.merge(snapshot, parent_id=parent_id)
    if _SINK is not None:
        for entry in adopted:
            _SINK.write_span(entry.as_dict())


# -- metrics ------------------------------------------------------------------------


def counter(name: str) -> Counter:
    return _METRICS.counter(name)


def gauge(name: str) -> Gauge:
    return _METRICS.gauge(name)


def histogram(name: str) -> Histogram:
    return _METRICS.histogram(name)


def snapshot_metrics() -> Dict[str, object]:
    return _METRICS.snapshot()


def merge_metrics(snapshot: Optional[Dict[str, object]]) -> None:
    _METRICS.merge(snapshot)


def flush_metrics() -> None:
    """Write the current metrics snapshot to the sink (if configured)."""
    if _SINK is not None:
        _SINK.write_metrics(snapshot_metrics())


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanCollector",
    "TELEMETRY_ENV",
    "TRACE_SCHEMA",
    "TraceSink",
    "close_sink",
    "collecting",
    "configure_from_env",
    "configure_sink",
    "counter",
    "current_span",
    "enabled",
    "flush_metrics",
    "gauge",
    "histogram",
    "merge_metrics",
    "merge_spans",
    "read_trace",
    "reset",
    "snapshot_metrics",
    "snapshot_spans",
    "span",
    "span_tree",
    "split_trace",
    "summarize_metrics",
    "summarize_spans",
    "summarize_trace_file",
]
