"""Tests for power-aware admission scheduling and the QueueService engine.

Jobs run on :class:`FakePool`, an in-process stand-in for the worker pool, so
these tests observe scheduling and settlement without real compilations.
"""

import logging
import sys
import threading
import time
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.hardware.budget import FridgeBudget
from repro.queue import scheduler
from repro.queue.model import QueueJob, spec_payload
from repro.queue.scheduler import QueueService, order_candidates
from repro.queue.store import QueueStore
from repro.runtime.jobs import execute_queued_job
from repro.runtime.spec import ExperimentSpec
from repro.runtime.store import ResultStore

SPEC = spec_payload(ExperimentSpec(benchmark="bv", num_qubits=4))


class FakePool:
    """Stands in for :class:`~repro.runtime.executor.WorkerPool` in-process.

    ``run(key)`` plays the worker for the job whose result key is ``key``:
    what it returns becomes the job's stored result, what it raises is the
    task's failure, and ``spans`` are shipped back with every result.  By
    default each future resolves inside :meth:`submit`, so a tick runs the
    jobs it admits to completion before it returns; ``threaded=True`` runs
    each task on a thread of its own instead.
    """

    def __init__(self, run, threaded=False, spans=()):
        self.run = run
        self.threaded = threaded
        self.spans = list(spans)
        self.threads = []

    def __call__(self, size):  # installed in place of the WorkerPool class
        return self

    def submit(self, fn, specs, keys):
        assert fn is execute_queued_job
        assert all(isinstance(spec, ExperimentSpec) for spec in specs)
        future = Future()
        if self.threaded:
            thread = threading.Thread(target=self._resolve, args=(future, keys[0]))
            self.threads.append(thread)
            thread.start()
        else:
            self._resolve(future, keys[0])
        return future

    def _resolve(self, future, key):
        future.set_running_or_notify_cancel()
        try:
            value = self.run(key)
        except BaseException as error:  # the task's own failure, as a pool reports it
            future.set_exception(error)
        else:
            result = SimpleNamespace(as_dict=lambda: value)
            future.set_result({"result": [result], "spans": self.spans, "metrics": {}})

    def shutdown(self):
        for thread in self.threads:
            thread.join()


def key_for(seq):
    return f"{seq:02x}" + "0" * 62


def fake_job(seq, power_w=1.0, priority="batch", session="s", due_at=None, submitted_at=None):
    return QueueJob(
        job_id=f"j{seq:06d}-test",
        seq=seq,
        spec=dict(SPEC),
        result_key=key_for(seq),
        power_w=power_w,
        priority=priority,
        session=session,
        submitted_at=float(seq) if submitted_at is None else submitted_at,
        due_at=due_at,
    )


def enqueue(store, **kwargs):
    """Durably submit one synthetic job (store assigns id and seq)."""
    def _build(job_id, seq):
        job = fake_job(seq, **kwargs)
        return QueueJob.from_dict({**job.as_dict(), "job_id": job_id})

    return store.submit(_build)


def service(tmp_path, monkeypatch, budget_w=10.0, max_workers=1, pool=None, weights=None):
    """A service whose jobs run on ``pool`` (default: a synchronous FakePool)."""
    if pool is None:
        pool = FakePool(lambda key: {"row": {}, "key": key})
    monkeypatch.setattr(scheduler, "WorkerPool", pool)
    return QueueService(
        QueueStore(tmp_path / "queue"),
        ResultStore(tmp_path / "cache"),
        budget=FridgeBudget(power_w=budget_w),
        max_workers=max_workers,
        fair_share_weights=weights,
    )


def wait_in_thread(svc, job_id, got):
    """Start a thread blocked in ``wait_settled``; its result lands in ``got``."""
    waiter = threading.Thread(target=lambda: got.append(svc.wait_settled(job_id, 30.0)))
    waiter.start()
    time.sleep(0.2)  # let the wait block
    return waiter


class TestOrderCandidates:
    def test_priority_classes_dominate(self):
        jobs = [
            fake_job(1, priority="deferrable"),
            fake_job(2, priority="batch"),
            fake_job(3, priority="interactive"),
        ]
        ordered = order_candidates(jobs, usage={})
        assert [j.priority for j in ordered] == ["interactive", "batch", "deferrable"]

    def test_fair_share_prefers_lighter_session(self):
        jobs = [fake_job(1, session="greedy"), fake_job(2, session="idle")]
        ordered = order_candidates(jobs, usage={"greedy": 5.0})
        assert [j.session for j in ordered] == ["idle", "greedy"]

    def test_weights_scale_usage(self):
        jobs = [fake_job(1, session="heavy"), fake_job(2, session="light")]
        # heavy has used more power, but its 10x weight makes its share smaller
        ordered = order_candidates(
            jobs, usage={"heavy": 4.0, "light": 1.0}, weights={"heavy": 10.0}
        )
        assert [j.session for j in ordered] == ["heavy", "light"]
        with pytest.raises(ValueError, match="weight"):
            order_candidates(jobs, usage={}, weights={"heavy": 0.0})

    def test_edd_within_class_then_seq(self):
        jobs = [
            fake_job(1, submitted_at=50.0),              # falls back to submission
            fake_job(2, submitted_at=60.0, due_at=10.0),  # explicit early deadline
            fake_job(3, submitted_at=50.0),              # FIFO tie -> seq order
        ]
        ordered = order_candidates(jobs, usage={})
        assert [j.seq for j in ordered] == [2, 1, 3]

    def test_deterministic_under_fixed_trace(self):
        jobs = [
            fake_job(seq, priority=p, session=s, power_w=w)
            for seq, (p, s, w) in enumerate(
                [
                    ("batch", "a", 1.0),
                    ("interactive", "b", 2.0),
                    ("deferrable", "a", 0.5),
                    ("batch", "b", 1.5),
                    ("interactive", "a", 1.0),
                ]
            )
        ]
        first = [j.seq for j in order_candidates(jobs, usage={"a": 1.0})]
        for _ in range(5):
            again = [j.seq for j in order_candidates(list(reversed(jobs)), usage={"a": 1.0})]
            assert again == first


class TestAdmission:
    def test_ten_watt_budget_never_oversubscribed(self, tmp_path, monkeypatch):
        svc = service(tmp_path, monkeypatch, budget_w=10.0, max_workers=8)
        queued = [fake_job(seq, power_w=6.0) for seq in range(1, 4)]
        admitted = svc.admissible(queued)
        assert [j.seq for j in admitted] == [1]  # 6 + 6 > 10

    def test_non_deferrable_blocks_head_of_line(self, tmp_path, monkeypatch):
        svc = service(tmp_path, monkeypatch, budget_w=10.0, max_workers=8)
        queued = [
            fake_job(1, power_w=8.0),
            fake_job(2, power_w=11.0),  # batch, does not fit: blocks the walk
            fake_job(3, power_w=1.0),
        ]
        assert [j.seq for j in svc.admissible(queued)] == [1]

    def test_deferrable_parks_and_walk_continues(self, tmp_path, monkeypatch):
        svc = service(tmp_path, monkeypatch, budget_w=10.0, max_workers=8)
        before = telemetry.counter("queue.deferrals").value
        queued = [
            fake_job(1, power_w=8.0, priority="batch"),
            fake_job(2, power_w=5.0, priority="deferrable"),  # parked
            fake_job(3, power_w=1.0, priority="deferrable"),  # still fits
        ]
        assert [j.seq for j in svc.admissible(queued)] == [1, 3]
        assert telemetry.counter("queue.deferrals").value == before + 1

    def test_worker_slots_cap_admission(self, tmp_path, monkeypatch):
        svc = service(tmp_path, monkeypatch, budget_w=100.0, max_workers=2)
        queued = [fake_job(seq) for seq in range(1, 5)]
        assert len(svc.admissible(queued)) == 2


class TestQueueServiceTick:
    def test_inline_tick_runs_to_done(self, tmp_path, monkeypatch):
        executed = []
        pool = FakePool(lambda key: executed.append(key) or {"r": 1})
        svc = service(tmp_path, monkeypatch, pool=pool)
        job = enqueue(svc.store, power_w=2.0)
        admitted = svc.tick()
        assert [j.job_id for j in admitted] == [job.job_id]
        assert executed == [job.result_key]
        assert svc.store.get(job.job_id).state == "done"
        assert svc.results.get(job.result_key) == {"r": 1}
        assert svc.power_in_flight() == 0.0
        assert svc.peak_power_w == pytest.approx(2.0)

    def test_cache_hit_completes_without_running(self, tmp_path, monkeypatch):
        executed = []
        svc = service(tmp_path, monkeypatch, pool=FakePool(executed.append))
        job = enqueue(svc.store)
        svc.results.put(job.result_key, {"row": {"cached": True}})
        before = telemetry.counter("queue.cache_hits").value
        assert svc.tick() == []
        assert executed == []
        assert svc.store.get(job.job_id).state == "done"
        assert telemetry.counter("queue.cache_hits").value == before + 1

    def test_failed_job_records_error(self, tmp_path, monkeypatch):
        def explode(key):
            raise RuntimeError("bad trajectory")

        svc = service(tmp_path, monkeypatch, pool=FakePool(explode))
        job = enqueue(svc.store)
        svc.tick()
        got = svc.store.get(job.job_id)
        assert got.state == "failed"
        assert "bad trajectory" in got.error
        assert svc.power_in_flight() == 0.0

    def test_deferrable_waits_for_headroom_then_runs(self, tmp_path, monkeypatch):
        """The queue-smoke scenario: over-budget deferrable runs only after."""
        order = []
        pool = FakePool(lambda key: order.append(key) or {})
        svc = service(tmp_path, monkeypatch, budget_w=10.0, pool=pool)
        big = enqueue(svc.store, power_w=8.0, priority="batch")
        parked = enqueue(svc.store, power_w=7.0, priority="deferrable")
        svc.tick()  # runs big to completion, parks the deferrable
        assert svc.store.get(big.job_id).state == "done"
        assert svc.store.get(parked.job_id).state == "queued"
        svc.tick()  # headroom freed: the deferrable runs now
        assert svc.store.get(parked.job_id).state == "done"
        assert order == [big.result_key, parked.result_key]

    def test_tick_skips_jobs_cancelled_between_scans(self, tmp_path, monkeypatch):
        svc = service(tmp_path, monkeypatch)
        job = enqueue(svc.store)
        svc.store.cancel(job.job_id)
        assert svc.tick() == []
        assert svc.store.get(job.job_id).state == "cancelled"

    def test_blocked_jobs_do_not_count_store_misses(self, tmp_path, monkeypatch):
        """The tick's presence probe leaves the store's hit/miss counters alone."""
        svc = service(tmp_path, monkeypatch, budget_w=1.0)
        jobs = [enqueue(svc.store, power_w=2.0) for _ in range(5)]  # all over budget
        misses = telemetry.counter("store.miss").value
        hits = telemetry.counter("store.hit").value
        for _ in range(10):
            assert svc.tick() == []
        assert telemetry.counter("store.miss").value - misses == 0
        assert telemetry.counter("store.hit").value - hits == 0
        assert {svc.store.get(job.job_id).state for job in jobs} == {"queued"}

    def test_torn_cache_entry_is_recomputed_not_served(self, tmp_path, monkeypatch):
        executed = []
        pool = FakePool(lambda key: executed.append(key) or {"r": 2})
        svc = service(tmp_path, monkeypatch, pool=pool)
        job = enqueue(svc.store)
        path = svc.results.path_for(job.result_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"torn": ')
        assert svc.results.contains(job.result_key)
        svc.tick()
        assert executed == [job.result_key]
        assert svc.results.get(job.result_key) == {"r": 2}

    def test_job_raising_lookup_error_is_failed_not_dropped(self, tmp_path, monkeypatch):
        def missing(key):
            raise KeyError("no such column")

        svc = service(tmp_path, monkeypatch, pool=FakePool(missing))
        job = enqueue(svc.store)
        svc.tick()
        got = svc.store.get(job.job_id)
        assert got.state == "failed"
        assert got.error.startswith("KeyError: ")

    def test_interrupt_leaves_the_job_running_and_logs_a_warning(
        self, tmp_path, monkeypatch, caplog
    ):
        def interrupted(key):
            raise KeyboardInterrupt

        svc = service(tmp_path, monkeypatch, pool=FakePool(interrupted))
        job = enqueue(svc.store)
        with caplog.at_level(logging.WARNING, logger=scheduler.__name__):
            assert [j.job_id for j in svc.tick()] == [job.job_id]
        # left 'running' for crash recovery to requeue, power released
        assert svc.store.get(job.job_id).state == "running"
        assert svc.power_in_flight() == 0.0
        assert f"job {job.job_id} stopped on KeyboardInterrupt" in caplog.text


class TestSettleFailures:
    """Whatever goes wrong between admission and the terminal record, the job
    ends ``failed`` with the error text, its power is released and its
    waiters wake: nothing escapes ``tick`` or the pool thread."""

    def assert_settled_as_failed(self, svc, job, waiter, got, error):
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert got[0].state == "failed"
        assert got[0].error.startswith(error)
        assert svc.store.get(job.job_id).error == got[0].error
        assert svc.power_in_flight() == 0.0

    @pytest.mark.parametrize("stage", ["to_spec", "submit"])
    def test_a_job_that_cannot_be_submitted_fails(self, tmp_path, monkeypatch, stage):
        pool = FakePool(lambda key: {})
        if stage == "submit":
            def refuse(fn, specs, keys):
                raise RuntimeError("cannot submit to a shut-down WorkerPool")

            monkeypatch.setattr(pool, "submit", refuse)
            error = "RuntimeError: cannot submit to a shut-down WorkerPool"
            spec = SPEC
        else:
            error = "ValueError: unknown benchmark 'nope'"
            spec = {**SPEC, "benchmark": "nope"}
        svc = service(tmp_path, monkeypatch, budget_w=1.0, pool=pool)
        job = svc.store.submit(
            lambda job_id, seq: QueueJob.from_dict(
                {**fake_job(seq, power_w=2.0).as_dict(), "job_id": job_id, "spec": spec}
            )
        )  # parked behind the budget until the waiter blocks
        got = []
        waiter = wait_in_thread(svc, job.job_id, got)
        svc.budget = FridgeBudget(power_w=10.0)
        assert [j.job_id for j in svc.tick()] == [job.job_id]
        self.assert_settled_as_failed(svc, job, waiter, got, error)

    def test_a_result_store_error_in_the_callback_fails_the_job(
        self, tmp_path, monkeypatch
    ):
        release = threading.Event()
        pool = FakePool(lambda key: release.wait(10.0) and {"r": 1}, threaded=True)
        svc = service(tmp_path, monkeypatch, pool=pool)

        def full_disk(key, result):
            raise OSError("No space left on device")

        monkeypatch.setattr(svc.results, "put", full_disk)
        job = enqueue(svc.store)
        svc.tick()  # the job runs on a pool thread, which then settles it
        got = []
        waiter = wait_in_thread(svc, job.job_id, got)
        release.set()
        self.assert_settled_as_failed(
            svc, job, waiter, got, "OSError: No space left on device"
        )
        svc.drain()


class TestExecuteSpan:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        telemetry.reset()  # collected spans are process-wide: leave none behind
        yield
        telemetry.reset()

    def test_tick_leaves_no_span_open_and_adopts_shipped_spans(
        self, tmp_path, monkeypatch
    ):
        release = threading.Event()
        shipped = {
            "name": "job.execute", "span_id": "worker-1", "parent_id": None,
            "start_s": 0.0, "end_s": 1.0, "attrs": {}, "pid": -1,
        }
        pool = FakePool(lambda key: release.wait(10.0) and {}, threaded=True, spans=[shipped])
        svc = service(tmp_path, monkeypatch, pool=pool)
        job = enqueue(svc.store)
        with telemetry.collecting():
            assert [j.job_id for j in svc.tick()] == [job.job_id]
            assert telemetry.current_span() is None  # queue.execute is still open
            with telemetry.span("after.tick"):
                pass
            release.set()
            svc.drain()
            assert svc.store.get(job.job_id).state == "done"
            spans = {span["name"]: span for span in telemetry.snapshot_spans()}
        execute = spans["queue.execute"]
        assert execute["attrs"]["job_id"] == job.job_id
        assert "error" not in execute["attrs"]
        assert execute["start_s"] < spans["after.tick"]["start_s"] < execute["end_s"]
        assert spans["after.tick"]["parent_id"] is None
        assert spans["job.execute"]["parent_id"] == execute["span_id"]


class TestWaitSettled:
    def test_returns_at_once_for_terminal_and_unknown_jobs(self, tmp_path, monkeypatch):
        svc = service(tmp_path, monkeypatch)
        job = enqueue(svc.store)
        svc.tick()
        started = time.monotonic()
        assert svc.wait_settled(job.job_id, 30.0).state == "done"
        assert svc.wait_settled("j999999-none", 30.0) is None
        assert time.monotonic() - started < 5.0

    def test_times_out_with_the_pending_record(self, tmp_path, monkeypatch):
        svc = service(tmp_path, monkeypatch, budget_w=1.0)
        job = enqueue(svc.store, power_w=2.0)
        started = time.monotonic()
        assert svc.wait_settled(job.job_id, 0.2).state == "queued"
        assert 0.2 <= time.monotonic() - started < 5.0

    @pytest.mark.parametrize("settle", ["finish", "fail", "cache_hit", "cancel"])
    def test_every_terminal_transition_wakes_the_wait(self, tmp_path, monkeypatch, settle):
        def run(key):
            if settle == "fail":
                raise RuntimeError("boom")
            return {"r": 1}

        svc = service(tmp_path, monkeypatch, budget_w=1.0, pool=FakePool(run))
        job = enqueue(svc.store, power_w=2.0)  # parked behind the budget
        got = []
        waiter = wait_in_thread(svc, job.job_id, got)
        if settle == "cancel":
            svc.cancel(job.job_id)
        else:
            if settle == "cache_hit":
                svc.results.put(job.result_key, {"r": 0})
            svc.budget = FridgeBudget(power_w=10.0)
            svc.tick()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        expected = {"fail": "failed", "cancel": "cancelled"}.get(settle, "done")
        assert got[0].state == expected

    def test_many_concurrent_waits_each_see_their_job_settle(self, tmp_path, monkeypatch):
        """More waiters than cores, several per job, jobs settling meanwhile."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            svc = service(tmp_path, monkeypatch, budget_w=1.0)
            jobs = [enqueue(svc.store, power_w=2.0) for _ in range(6)]  # parked
            got = {}
            waiters = [
                threading.Thread(
                    target=lambda i=i: got.__setitem__(
                        i, svc.wait_settled(jobs[i % len(jobs)].job_id, 30.0)
                    )
                )
                for i in range(24)
            ]
            for waiter in waiters:
                waiter.start()
            time.sleep(0.2)
            svc.cancel(jobs[0].job_id)
            svc.budget = FridgeBudget(power_w=10.0)
            deadline = time.monotonic() + 20.0
            while svc.tick() and time.monotonic() < deadline:
                pass  # one job runs to completion per tick
            for waiter in waiters:
                waiter.join(timeout=10.0)
            assert not any(waiter.is_alive() for waiter in waiters)
        finally:
            sys.setswitchinterval(interval)
        for i, job in got.items():
            assert job.job_id == jobs[i % len(jobs)].job_id
            assert job.state == ("cancelled" if i % len(jobs) == 0 else "done")
        assert len(got) == 24
        assert svc._awaited == {} and svc._settled_jobs == {}  # nothing retained

    def test_stop_releases_pending_waits(self, tmp_path, monkeypatch):
        svc = service(tmp_path, monkeypatch, budget_w=1.0)
        job = enqueue(svc.store, power_w=2.0)
        got = []
        waiter = wait_in_thread(svc, job.job_id, got)
        svc.stop()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert got[0].state == "queued"

    def test_stop_holds_waits_on_running_jobs_until_they_settle(self, tmp_path, monkeypatch):
        release = threading.Event()
        pool = FakePool(lambda key: release.wait(10.0) and {"row": {}, "key": key}, threaded=True)
        svc = service(tmp_path, monkeypatch, pool=pool)
        job = enqueue(svc.store)
        assert svc.tick()  # admitted and running on the pool
        got = []
        waiter = wait_in_thread(svc, job.job_id, got)
        svc.stop()
        waiter.join(timeout=0.3)
        assert waiter.is_alive()  # the drain will settle it: the wait holds
        release.set()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert got[0].state == "done"
        svc.drain()

    def test_stop_releases_waits_on_a_job_its_worker_left_running(self, tmp_path, monkeypatch):
        release = threading.Event()

        def interrupted(key):
            release.wait(10.0)
            raise KeyboardInterrupt

        svc = service(tmp_path, monkeypatch, pool=FakePool(interrupted, threaded=True))
        job = enqueue(svc.store)
        assert svc.tick()
        got = []
        waiter = wait_in_thread(svc, job.job_id, got)
        svc.stop()
        waiter.join(timeout=0.3)
        assert waiter.is_alive()  # still running here: the wait holds
        release.set()  # the worker stops: the job stays 'running' for recovery
        waiter.join(timeout=5.0)  # well inside the wait's own 30 s
        assert not waiter.is_alive()
        assert got[0].state == "running"
        svc.drain()


class TestConcurrentBudget:
    def test_power_in_flight_gauge_never_exceeds_budget(self, tmp_path, monkeypatch):
        """Jobs summing over 10 W never run simultaneously (gauge-asserted)."""
        release = threading.Event()
        peaks = []

        def blocking_run(key):
            peaks.append(telemetry.gauge("queue.power_in_flight").value)
            release.wait(10.0)
            return {}

        pool = FakePool(blocking_run, threaded=True)
        svc = service(tmp_path, monkeypatch, budget_w=10.0, max_workers=4, pool=pool)
        first = enqueue(svc.store, power_w=6.0)
        second = enqueue(svc.store, power_w=6.0)
        svc.tick()  # admits exactly one: 6 + 6 > 10
        deadline = time.monotonic() + 5.0
        while not peaks and time.monotonic() < deadline:
            time.sleep(0.01)
        assert svc.power_in_flight() == pytest.approx(6.0)
        assert telemetry.gauge("queue.power_in_flight").value == pytest.approx(6.0)
        assert svc.tick() == []  # still no headroom for the second job
        release.set()
        deadline = time.monotonic() + 5.0
        while svc.power_in_flight() > 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        svc.tick()  # now the second one goes
        deadline = time.monotonic() + 5.0
        while svc.store.get(second.job_id).state != "done" and time.monotonic() < deadline:
            time.sleep(0.01)
        svc.drain()
        assert svc.store.get(first.job_id).state == "done"
        assert svc.store.get(second.job_id).state == "done"
        assert max(peaks) <= 10.0  # the gauge never saw an over-budget sum
        assert svc.peak_power_w <= 10.0
        stats = svc.stats()
        assert stats["peak_power_in_flight_w"] <= stats["budget_w"]

    def test_stats_merges_store_and_scheduler(self, tmp_path, monkeypatch):
        svc = service(tmp_path, monkeypatch, budget_w=10.0)
        enqueue(svc.store, power_w=1.5, session="alice")
        svc.tick()
        stats = svc.stats()
        assert stats["budget_w"] == 10.0
        assert stats["depths"]["done"] == 1
        assert stats["session_usage_w"]["alice"] == pytest.approx(1.5)
