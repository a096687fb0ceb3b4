"""Tests for the span API: nesting, threading, sinks, and worker merges."""

import threading

import pytest

from repro import telemetry
from repro.telemetry.sink import TRACE_SCHEMA, read_trace, split_trace
from repro.telemetry.spans import Span


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


class TestDisabled:
    def test_span_is_a_noop_without_sink_or_window(self):
        assert not telemetry.enabled()
        with telemetry.span("work", size=3) as entry:
            assert entry is None
        assert telemetry.snapshot_spans() == []

    def test_exceptions_propagate_through_disabled_spans(self):
        with pytest.raises(KeyError):
            with telemetry.span("work"):
                raise KeyError("boom")

    def test_open_is_a_noop_while_disabled(self):
        work = telemetry.span("work")
        assert work.open() is None
        work.close()
        assert telemetry.snapshot_spans() == []


class TestCollecting:
    def test_nested_spans_record_parent_edges(self):
        with telemetry.collecting():
            with telemetry.span("outer", label="a") as outer:
                with telemetry.span("inner") as inner:
                    assert telemetry.current_span() is inner
                    assert inner.parent_id == outer.span_id
            assert telemetry.current_span() is None
        spans = telemetry.snapshot_spans()
        assert [s["name"] for s in spans] == ["inner", "outer"]  # completion order
        assert spans[1]["attrs"] == {"label": "a"}
        assert spans[1]["parent_id"] is None
        assert all(s["duration_s"] >= 0.0 for s in spans)

    def test_tree_nests_children_under_roots(self):
        with telemetry.collecting():
            with telemetry.span("root"):
                with telemetry.span("child"):
                    pass
                with telemetry.span("child"):
                    pass
        (root,) = telemetry.span_tree()
        assert root["name"] == "root"
        assert [c["name"] for c in root["children"]] == ["child", "child"]

    def test_exception_annotates_and_closes_the_span(self):
        with telemetry.collecting():
            with pytest.raises(ValueError):
                with telemetry.span("work"):
                    raise ValueError("boom")
        (span_dict,) = telemetry.snapshot_spans()
        assert span_dict["attrs"]["error"] == "ValueError"
        assert span_dict["end_s"] is not None

    def test_windows_are_refcounted(self):
        with telemetry.collecting():
            with telemetry.collecting():
                pass
            assert telemetry.enabled()  # outer window still open
            with telemetry.span("work"):
                pass
        assert not telemetry.enabled()
        assert len(telemetry.snapshot_spans()) == 1

    def test_threads_keep_independent_span_stacks(self):
        barrier = threading.Barrier(2)

        def work(label):
            with telemetry.span(f"root.{label}"):
                barrier.wait(timeout=10)  # both roots open concurrently
                with telemetry.span(f"child.{label}"):
                    pass

        with telemetry.collecting():
            threads = [
                threading.Thread(target=work, args=(label,)) for label in ("a", "b")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        by_name = {s["name"]: s for s in telemetry.snapshot_spans()}
        assert len(by_name) == 4
        for label in ("a", "b"):
            # Each child is parented to its own thread's root, never across.
            assert by_name[f"child.{label}"]["parent_id"] == by_name[f"root.{label}"]["span_id"]

    def test_opened_span_stays_off_the_stack_and_closes_from_any_thread(self):
        with telemetry.collecting():
            with telemetry.span("caller") as caller:
                work = telemetry.span("work", job=1)
                opened = work.open()
                assert opened.parent_id == caller.span_id
                assert telemetry.current_span() is caller
            with telemetry.span("later") as later:
                assert later.parent_id is None  # not nested under the open span
            closer = threading.Thread(target=work.close, args=(RuntimeError,))
            closer.start()
            closer.join()
            work.close()  # a second close is a no-op
        spans = telemetry.snapshot_spans()
        assert [s["name"] for s in spans] == ["caller", "later", "work"]
        assert spans[2]["attrs"] == {"job": 1, "error": "RuntimeError"}
        assert spans[2]["end_s"] is not None


class TestSink:
    def test_sink_enables_recording_and_writes_jsonl(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        telemetry.configure_sink(trace)
        assert telemetry.enabled()
        with telemetry.span("work", n=1):
            pass
        telemetry.flush_metrics()
        telemetry.close_sink()
        events = read_trace(trace)
        spans, metrics = split_trace(events)
        assert [e["type"] for e in events] == ["span", "metrics"]
        assert spans[0]["name"] == "work"
        assert spans[0]["schema"] == TRACE_SCHEMA
        assert metrics is not None

    def test_read_trace_rejects_torn_lines_with_line_number(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"type":"span"}\n{torn\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            read_trace(trace)


class TestMerge:
    def _worker_snapshot(self):
        """A span snapshot as a worker process would ship it back."""
        return [
            Span(name="leaf", span_id="999-2", parent_id="999-1", end_s=1.0).as_dict(),
            Span(name="root", span_id="999-1", parent_id="999-0", end_s=2.0).as_dict(),
        ]

    def test_merge_reparents_worker_roots(self):
        with telemetry.collecting():
            with telemetry.span("sweep") as sweep:
                pass
            telemetry.merge_spans(self._worker_snapshot(), parent_id=sweep.span_id)
        by_name = {s["name"]: s for s in telemetry.snapshot_spans()}
        # "root"'s parent ("999-0") is absent from the snapshot -> re-parented;
        # "leaf"'s parent is in the snapshot -> kept.
        assert by_name["root"]["parent_id"] == sweep.span_id
        assert by_name["leaf"]["parent_id"] == "999-1"

    def test_merged_spans_are_forwarded_to_the_sink(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        telemetry.configure_sink(trace)
        telemetry.merge_spans(self._worker_snapshot(), parent_id=None)
        telemetry.close_sink()
        spans, _ = split_trace(read_trace(trace))
        assert sorted(s["name"] for s in spans) == ["leaf", "root"]
