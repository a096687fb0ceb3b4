"""Tests for the sweep dispatcher: caching, resume, and parallel equivalence."""

import pytest

from repro.runtime.dispatch import run_sweep
from repro.runtime.executor import WorkerPool
from repro.runtime.spec import FidelityOptions, SweepGrid
from repro.runtime.store import ResultStore, canonical_json


def small_grid(**overrides):
    params = dict(
        benchmarks=("bv", "ising"),
        backends=("opt8", "min2"),
        num_qubits=8,
        seeds=(0,),
    )
    params.update(overrides)
    return SweepGrid(**params)


class TestCaching:
    def test_fresh_sweep_computes_everything(self, tmp_path):
        report = run_sweep(small_grid(), store=ResultStore(tmp_path))
        assert report.num_jobs == 4
        assert report.num_computed == 4
        assert report.num_cached == 0
        assert len(report.rows) == 4

    def test_second_sweep_is_pure_cache_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_sweep(small_grid(), store=store)
        second = run_sweep(small_grid(), store=store)
        assert second.num_computed == 0
        assert second.num_cached == second.num_jobs == 4
        assert second.rows == first.rows

    def test_resume_recomputes_only_missing_jobs(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_sweep(small_grid(), store=store)
        # Simulate an interrupted sweep: one completed job vanishes.
        assert store.discard(first.keys[2])
        resumed = run_sweep(small_grid(), store=store)
        assert resumed.num_computed == 1
        assert resumed.computed_keys == [first.keys[2]]
        assert resumed.rows == first.rows

    def test_grid_growth_reuses_overlapping_jobs(self, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(small_grid(), store=store)
        grown = run_sweep(
            small_grid(backends=("opt8", "min2", "opt16")),
            store=store,
        )
        assert grown.num_jobs == 6
        assert grown.num_cached == 4
        assert grown.num_computed == 2

    def test_duplicate_axis_entries_share_one_computation(self, tmp_path):
        grid = small_grid(backends=("opt8", "opt8"))
        report = run_sweep(grid, store=ResultStore(tmp_path))
        assert report.num_jobs == 4
        assert report.num_computed == 2
        assert report.num_duplicates == 2
        assert report.num_computed + report.num_cached + report.num_duplicates == report.num_jobs
        assert report.rows[0] == report.rows[1]

    def test_completed_groups_persist_when_a_later_group_fails(self, tmp_path, monkeypatch):
        import repro.runtime.dispatch as dispatch_module

        real_execute = dispatch_module.execute_compile_group
        calls = []

        def flaky(specs, keys, **kwargs):
            calls.append(specs[0].benchmark)
            if len(calls) == 2:
                raise RuntimeError("worker died")
            return real_execute(specs, keys, **kwargs)

        monkeypatch.setattr(dispatch_module, "execute_compile_group", flaky)
        store = ResultStore(tmp_path)
        with pytest.raises(RuntimeError):
            run_sweep(small_grid(), store=store)
        # The first compile group (2 configs) completed before the crash and
        # must survive on disk so a resumed sweep skips it.
        assert len(store) == 2
        monkeypatch.setattr(dispatch_module, "execute_compile_group", real_execute)
        resumed = run_sweep(small_grid(), store=store)
        assert resumed.num_cached == 2
        assert resumed.num_computed == 2


class TestParallel:
    def test_parallel_rows_byte_identical_to_serial(self, tmp_path):
        grid = small_grid(seeds=(0, 1))
        serial = run_sweep(grid, store=ResultStore(tmp_path / "serial"), workers=1)
        parallel = run_sweep(grid, store=ResultStore(tmp_path / "parallel"), workers=2)
        serial_bytes = canonical_json({"rows": serial.rows}).encode()
        parallel_bytes = canonical_json({"rows": parallel.rows}).encode()
        assert serial_bytes == parallel_bytes
        assert parallel.keys == serial.keys

    def test_one_group_fidelity_sweep_builds_one_pool(self, tmp_path, monkeypatch):
        """One circuit under three designs is one compile group: the sweep's
        single pool runs every job's trajectory batches, one process a slot."""
        pools, processes = [], []
        real_init, real_new_executor = WorkerPool.__init__, WorkerPool._new_executor

        def counting_init(pool, size):
            pools.append(size)
            real_init(pool, size)

        def counting_new_executor(pool):
            processes.append(pool)
            return real_new_executor(pool)

        monkeypatch.setattr(WorkerPool, "__init__", counting_init)
        monkeypatch.setattr(WorkerPool, "_new_executor", counting_new_executor)
        grid = SweepGrid(
            benchmarks=("bv",),
            backends=("digiq-opt8", "digiq-opt16", "digiq-min2"),
            num_qubits=8,
            seeds=(0,),
            fidelity=FidelityOptions(trajectories=100),
        )
        pooled = run_sweep(grid, store=ResultStore(tmp_path / "pooled"), workers=2)
        assert pools == [2]
        assert len(processes) <= 2
        serial = run_sweep(grid, store=ResultStore(tmp_path / "serial"), workers=1)
        assert pools == [2]
        assert canonical_json(pooled.rows) == canonical_json(serial.rows)

    def test_invalid_worker_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(small_grid(), store=ResultStore(tmp_path), workers=0)


class TestReportShape:
    def test_rows_follow_grid_order(self, tmp_path):
        report = run_sweep(small_grid(), store=ResultStore(tmp_path))
        assert [row["benchmark"] for row in report.rows] == ["bv", "bv", "ising", "ising"]
        assert [row["design"] for row in report.rows] == [
            "DigiQ_opt(BS=8)",
            "DigiQ_min(BS=2)",
        ] * 2

    def test_summary_accounting(self, tmp_path):
        report = run_sweep(small_grid(), store=ResultStore(tmp_path))
        summary = report.summary()
        assert summary["jobs"] == 4
        assert summary["computed"] == 4
        assert summary["benchmarks"] == 2 and summary["backends"] == 2

    def test_rows_carry_fig9_and_compile_columns(self, tmp_path):
        report = run_sweep(small_grid(), store=ResultStore(tmp_path))
        row = report.rows[0]
        for column in ("benchmark", "design", "normalized_time", "swaps", "depth", "seed"):
            assert column in row
        assert row["normalized_time"] > 1.0  # SIMD never beats Impossible MIMD
