"""Parallel runs yield the same telemetry as serial ones: identical merged
span trees modulo timing, and exactly equal metric counters — for pooled
compile groups and for pooled trajectory batches alike."""

import os

import pytest

from repro import telemetry
from repro.circuits.benchmarks import build_benchmark
from repro.runtime.dispatch import run_sweep
from repro.runtime.executor import WorkerPool
from repro.runtime.spec import FidelityOptions, SweepGrid
from repro.runtime.store import ResultStore
from repro.simulation import NoiseModel, run_trajectories, trajectories


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def small_grid():
    return SweepGrid(
        benchmarks=("bv", "ising"),
        backends=("opt8",),
        num_qubits=6,
        seeds=(0,),
    )


def tree_shape(node):
    """A span-tree node reduced to its timing-free shape.

    The ``workers`` attribute is the one annotation that legitimately
    differs between a serial and a parallel run of the same grid.
    """
    return {
        "name": node["name"],
        "attrs": {k: v for k, v in node["attrs"].items() if k != "workers"},
        "children": [tree_shape(child) for child in node["children"]],
    }


def find_spans(nodes, name):
    """Every node called ``name`` in a span forest, depth first."""
    for node in nodes:
        if node["name"] == name:
            yield node
        yield from find_spans(node["children"], name)


def run_and_snapshot(workers, store_dir):
    telemetry.reset()
    with telemetry.collecting():
        run_sweep(small_grid(), store=ResultStore(store_dir), workers=workers)
        tree = telemetry.span_tree()
    metrics = telemetry.snapshot_metrics()
    return tree, metrics


class TestParallelTelemetryEquivalence:
    def test_span_tree_and_counters_match_serial(self, tmp_path):
        serial_tree, serial_metrics = run_and_snapshot(1, tmp_path / "serial")
        parallel_tree, parallel_metrics = run_and_snapshot(2, tmp_path / "parallel")

        # Same merged tree: worker spans re-parented under sweep.run in
        # submission order reproduce the serial nesting exactly.
        assert [tree_shape(root) for root in parallel_tree] == [
            tree_shape(root) for root in serial_tree
        ]

        # Counters are merged additively from worker registries, so the
        # parallel totals equal the serial ones *exactly*.
        assert parallel_metrics["counters"] == serial_metrics["counters"]
        assert parallel_metrics["counters"]["sweep.computed"] == 2

        # Histogram sample counts merge exactly too (values differ in time).
        serial_hists = serial_metrics["histograms"]
        parallel_hists = parallel_metrics["histograms"]
        assert set(parallel_hists) == set(serial_hists)
        for name in serial_hists:
            assert parallel_hists[name]["count"] == serial_hists[name]["count"]

    def test_every_job_has_one_simd_schedule_span(self, tmp_path):
        serial_tree, _ = run_and_snapshot(1, tmp_path / "serial")
        parallel_tree, _ = run_and_snapshot(2, tmp_path / "parallel")
        for tree in (serial_tree, parallel_tree):
            jobs = list(find_spans(tree, "job.execute"))
            assert len(jobs) == 2
            for job in jobs:
                schedules = [
                    child for child in job["children"] if child["name"] == "job.simd_schedule"
                ]
                assert len(schedules) == 1
                assert schedules[0]["attrs"]["backend"] == job["attrs"]["backend"]
        assert [tree_shape(root) for root in parallel_tree] == [
            tree_shape(root) for root in serial_tree
        ]

    def test_parallel_sweep_records_nothing_when_disabled(self, tmp_path):
        telemetry.reset()
        run_sweep(small_grid(), store=ResultStore(tmp_path), workers=2)
        assert telemetry.snapshot_spans() == []
        # Metrics stay on even while span recording is off.
        assert telemetry.snapshot_metrics()["counters"]["sweep.jobs"] == 2


def fidelity_grid():
    """One compile group whose fidelity job runs 4 batches of 10 trajectories."""
    return SweepGrid(
        benchmarks=("ising",),
        backends=("digiq-opt8",),
        num_qubits=8,
        seeds=(0,),
        fidelity=FidelityOptions(trajectories=40, batch_size=10),
    )


def sweep_counters(workers, store_dir):
    # Each side builds its trajectory plan from an empty fused-circuit memo,
    # so its sim.plan.memo counters do not depend on what ran before it.
    trajectories._FUSED.clear()
    telemetry.reset()
    run_sweep(fidelity_grid(), store=ResultStore(store_dir), workers=workers)
    return telemetry.snapshot_metrics()["counters"]


class TestPooledTrajectoryTelemetry:
    def test_one_group_fidelity_sweep_counts_like_serial(self, tmp_path):
        serial = sweep_counters(1, tmp_path / "serial")
        pooled = sweep_counters(2, tmp_path / "pooled")
        assert serial["sim.trajectories"] == 40
        assert serial["sim.batches"] == 4
        # each batch ends with at least one and at most 10 distinct rows
        assert 4 <= serial["sim.rows"] <= 40
        assert pooled == serial

    def test_zero_noise_counts_one_row_per_batch(self):
        circuit = build_benchmark("qgan", num_qubits=6, seed=3)
        telemetry.reset()
        run_trajectories(circuit, NoiseModel.uniform(6, 0.0, 0.0), 40, seed=7, batch_size=10)
        counters = telemetry.snapshot_metrics()["counters"]
        assert counters["sim.batches"] == 4
        assert counters["sim.rows"] == 4

    def test_pooled_batches_nest_under_sim_run(self):
        circuit = build_benchmark("qgan", num_qubits=6, seed=3)
        noise = NoiseModel.uniform(6, 0.02, 0.05)
        telemetry.reset()
        with telemetry.collecting(), WorkerPool(2) as pool:
            run_trajectories(circuit, noise, 40, seed=7, batch_size=10, pool=pool)
        spans = telemetry.snapshot_spans()
        (run,) = [span for span in spans if span["name"] == "sim.run"]
        groups = [span for span in spans if span["name"] == "sim.batch"]
        # one span per lockstep group; its attributes count the batches
        assert sum(span["attrs"]["batches"] for span in groups) == 4
        assert sum(span["attrs"]["trajectories"] for span in groups) == 40
        assert all(span["pid"] != os.getpid() for span in groups)
        assert all(span["parent_id"] == run["span_id"] for span in groups)
        assert telemetry.counter("sim.trajectories").value == 40
