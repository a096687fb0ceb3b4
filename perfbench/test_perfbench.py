"""Tests of the benchmark harness itself (no workload is run)."""

from __future__ import annotations

import json
import os

import pytest

import checks
import inputs
import layers
import run
import workloads


def test_percentile_rule_needs_ten_samples_beyond():
    assert checks.samples_beyond(100, 90) == 10
    assert checks.samples_beyond(100, 95) == 5
    assert checks.tail_percentile(100) == 90.0
    assert checks.tail_percentile(1000) == 99.0
    assert checks.tail_percentile(20) == 50.0
    assert checks.tail_percentile(9) is None
    for count in (20, 57, 100, 345, 2000):
        tail = checks.tail_percentile(count)
        assert checks.samples_beyond(count, tail) >= checks.MIN_BEYOND
        higher = [q for q in checks.PERCENTILE_LADDER if q > tail]
        assert all(checks.samples_beyond(count, q) < checks.MIN_BEYOND for q in higher)


def test_percentile_interpolates_between_ranks():
    assert checks.percentile([4, 1, 3, 2], 50) == 2.5
    assert checks.percentile([1, 2, 3, 4], 0) == 1
    assert checks.percentile([1, 2, 3, 4], 100) == 4
    assert checks.percentile(list(range(101)), 90) == 90


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_layer_split_is_parent_minus_children():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.wrap("leaf", leaf)

    def parent():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    tracer.wrap("parent", parent)()
    clock.now += 0.25  # untimed harness work
    wall = clock.now

    assert tracer.busy == {"parent": 5.5, "leaf": 4.0}
    assert tracer.calls == {"parent": 1, "leaf": 2}
    assert tracer.self_time["parent"] == 5.5 - 4.0
    split = tracer.split(wall)
    assert split["other"] == wall - 5.5
    assert sum(split.values()) == pytest.approx(wall)
    assert layers.layer_split(10.0, {"a": 3.0, "b": 4.5})["other"] == 2.5


def test_tracer_patch_restores_the_original():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    original = Owner.work
    tracer = layers.Tracer()
    seen = []
    tracer.patch(Owner, "work", "owner.work", lambda t, result, a, k: seen.append(result))
    assert Owner.work(1) == 2 and seen == [2]
    tracer.restore()
    assert Owner.work is original
    assert tracer.calls["owner.work"] == 1


def test_same_seed_gives_same_inputs():
    assert inputs.sweep_pass(7, 3) == inputs.sweep_pass(7, 3)
    assert inputs.noisy_pass(7, 3) == inputs.noisy_pass(7, 3)
    assert inputs.served_pass(7, 1, 2) == inputs.served_pass(7, 1, 2)
    assert inputs.sweep_pass(7, 3) != inputs.sweep_pass(8, 3)
    assert inputs.served_pass(7, 0, 0) != inputs.served_pass(8, 0, 0)


def test_passes_never_reuse_a_grid_seed():
    first = inputs.TRACED_FIRST_PASS
    seeds = [inputs.sweep_pass(5, i).seed for i in [*range(200), *range(first, first + 200)]]
    assert len(set(seeds)) == len(seeds)
    served = {inputs.served_pass(5, c, i)[0].seed for c in (0, 1) for i in range(100)}
    assert len(served) == 200


def test_served_pass_repeats_one_in_four_of_its_own_completed_specs():
    stream = inputs.served_pass(3, 1, 4)
    assert len(stream) == 24
    fresh = [s for s in stream if s.repeat_of is None]
    assert len({(s.benchmark, s.backend) for s in fresh}) == 18
    for position, submission in enumerate(stream):
        is_repeat = position % inputs.SERVED_REPEAT_EVERY == inputs.SERVED_REPEAT_EVERY - 1
        assert (submission.repeat_of is not None) == is_repeat
        if is_repeat:
            origin = stream[submission.repeat_of]
            assert submission.repeat_of < position and origin.repeat_of is None
            assert (origin.benchmark, origin.backend) == (submission.benchmark, submission.backend)


ROW = {
    "benchmark": "qgan",
    "backend": "digiq-min2",
    "design": "DigiQ_min(BS=2)",
    "normalized_time": 12.5,
    "serialization_overhead": 0.0,
    "state_fidelity": 0.9,
}


def test_perturbed_row_fails_the_digest_check(tmp_path, monkeypatch):
    rows = [dict(ROW), dict(ROW, backend="digiq-opt8", design="DigiQ_opt(BS=8)")]
    monkeypatch.setitem(workloads.DIGESTS, "sweep_cold", checks.rows_digest(rows))
    bench = workloads.Run("sweep_cold", 1, 1.0, False, str(tmp_path))
    bench.check_digest(rows)
    assert (bench.tally.attempted, bench.tally.failed) == (1, 0)

    perturbed = [dict(rows[0]), dict(rows[1], normalized_time=12.500000000000002)]
    bench.check_digest(perturbed)
    assert (bench.tally.attempted, bench.tally.failed) == (2, 1)


def test_row_invariants():
    assert checks.row_problems(ROW) == []
    assert checks.row_problems(dict(ROW, serialization_overhead=0.1))
    assert not checks.row_problems(dict(ROW, serialization_overhead=1.5e-5))
    assert checks.row_problems(dict(ROW, design="DigiQ_opt(BS=8)", serialization_overhead=-0.1))
    assert not checks.row_problems(dict(ROW, design="DigiQ_opt(BS=8)", serialization_overhead=0.3))
    assert checks.row_problems(dict(ROW, state_fidelity=1.2))
    assert not checks.row_problems(dict(ROW, state_fidelity=None))


def test_benchmark_json_names_every_metric_the_harness_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.empty_per_layer())
    window = workloads.Window(passes=2, jobs=6, wall_s=1.5, pass_s=[0.5, 1.0],
                              latencies_s=[0.5, 1.0], first_pass_rows=[ROW])
    outcome = workloads.Outcome([1.0, 2.0, 3.0], 100.0, window, "")
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(outcome))


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    args = ["--workload", "sweep_cold", "--seed", "1", "--seconds", "1"]
    assert run.main(args) != 0
    assert capsys.readouterr().out == ""
