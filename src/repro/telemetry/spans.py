"""Nested, thread-safe spans with a process-local collector.

A *span* is one timed region of work (a compiler pass, a sweep compile
group, a trajectory batch).  Spans nest: entering a span inside another
records the parent/child edge, so a completed run yields a tree that says
where the wall-clock went.  The API is a plain context manager::

    with telemetry.span("compile.circuit", benchmark="bv", qubits=12):
        ...

Spans are recorded only while telemetry is *enabled* — a JSONL sink is
configured (``REPRO_TELEMETRY`` / ``--trace``) or a collection window is
open (:func:`collecting`, used by pooled workers and tests).  When
disabled, ``span(...)`` is a no-op whose cost is a single attribute check,
which is what keeps the instrumented hot paths within the <2% overhead
budget the benchmark suite asserts.

Cross-process story: worker processes (``run_sweep`` compile groups) reset
their process-local collector per task, record spans normally, and ship a
JSON-able :meth:`SpanCollector.snapshot` back with their results; the
parent re-parents the snapshot under its own active span via
:meth:`SpanCollector.merge`, so a parallel sweep yields the same span tree
as a serial one (modulo timing values and span ids).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Process-wide span id source; ids are prefixed with the pid so snapshots
#: merged from worker processes can never collide with parent ids.
_SPAN_IDS = itertools.count(1)


def _new_span_id() -> str:
    return f"{os.getpid()}-{next(_SPAN_IDS)}"


@dataclass
class Span:
    """One timed region of work, possibly nested under a parent span."""

    name: str
    span_id: str
    parent_id: Optional[str] = None
    start_s: float = 0.0
    end_s: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    pid: int = field(default_factory=os.getpid)

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form (crosses process boundaries and the JSONL sink)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": round(self.duration_s, 9),
            "attrs": dict(self.attrs),
            "pid": self.pid,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "Span":
        return Span(
            name=data["name"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start_s=data.get("start_s", 0.0),
            end_s=data.get("end_s"),
            attrs=dict(data.get("attrs") or {}),
            pid=data.get("pid", 0),
        )


class SpanCollector:
    """Process-local store of completed spans (thread-safe).

    Collection is reference-counted: every open :func:`collecting` window or
    configured sink holds one activation, so nested windows compose.  The
    per-thread span stack lives in a ``threading.local`` — concurrent
    sessions instrument independently and parent edges never cross threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._active = 0
        self._stacks = threading.local()

    # -- activation -------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active > 0

    def activate(self) -> None:
        with self._lock:
            self._active += 1

    def deactivate(self) -> None:
        with self._lock:
            self._active = max(0, self._active - 1)

    def reset(self) -> None:
        """Drop all recorded spans and deactivate (worker-task entry point)."""
        with self._lock:
            self._spans = []
            self._active = 0
        self._stacks = threading.local()

    # -- recording --------------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open_span(self, name: str, attrs: Dict[str, object], detached: bool = False) -> Span:
        """Start a span under this thread's innermost one (off its stack if ``detached``)."""
        parent = self.current()
        entry = Span(
            name=name,
            span_id=_new_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            start_s=time.perf_counter(),
            attrs=attrs,
        )
        if not detached:
            self._stack().append(entry)
        return entry

    def close_span(self, entry: Span) -> Span:
        entry.end_s = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is entry:
            stack.pop()
        with self._lock:
            self._spans.append(entry)
        return entry

    # -- reading ----------------------------------------------------------------------

    def spans(self) -> Tuple[Span, ...]:
        """All completed spans, in completion order."""
        with self._lock:
            return tuple(self._spans)

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-able list of completed spans (what workers ship back)."""
        return [entry.as_dict() for entry in self.spans()]

    def merge(
        self, snapshot: List[Dict[str, object]], parent_id: Optional[str] = None
    ) -> List[Span]:
        """Adopt a worker's span snapshot, re-parenting its roots.

        Spans whose parent is absent from the snapshot (the worker's own
        roots) are attached under ``parent_id`` — typically the sweep span
        that dispatched the worker — so the merged tree looks exactly as if
        the work had run in-process.  Returns the adopted spans.
        """
        adopted = [Span.from_dict(data) for data in snapshot]
        local_ids = {entry.span_id for entry in adopted}
        for entry in adopted:
            if entry.parent_id not in local_ids:
                entry.parent_id = parent_id
        with self._lock:
            self._spans.extend(adopted)
        return adopted

    def tree(self) -> List[Dict[str, object]]:
        """The completed spans as a list of root nodes with nested children.

        Children are ordered by start time within their own process (merged
        worker spans keep their local order); each node is
        ``{"name", "duration_s", "attrs", "children"}``.
        """
        spans = self.spans()
        nodes = {
            entry.span_id: {
                "name": entry.name,
                "duration_s": entry.duration_s,
                "attrs": dict(entry.attrs),
                "children": [],
            }
            for entry in spans
        }
        roots: List[Dict[str, object]] = []
        for entry in spans:
            node = nodes[entry.span_id]
            parent = nodes.get(entry.parent_id)
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots
