"""Tests for the CI perf gate's decision over paired perfbench runs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", os.path.join(ROOT, ".github", "perf_gate.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    END_TO_END = json.load(_handle)["end_to_end"]

BASE_METRICS = {
    "setup_s": 1.0,
    "peak_rss_mb": 100.0,
    "jobs_per_s": 100.0,
    "latency_p90_ms": 200.0,
    "fig9_norm_time_geomean": 7.3544,
}


def result(correct=True, failed=0, **overrides):
    values = {**BASE_METRICS, **overrides}
    return {
        "correct": correct,
        "attempted": 600,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()},
    }


def paired(base_results, head_results, workload="sweep_cold"):
    runs = []
    for pair, (base, head) in enumerate(zip(base_results, head_results)):
        order = (("base", base), ("head", head))
        for side, res in order if pair % 2 == 0 else order[::-1]:
            runs.append({"workload": workload, "pair": pair, "side": side, "result": res})
    return runs


def verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_benchmark_json_metrics_carry_direction_and_bound():
    assert {m["name"] for m in END_TO_END} == set(BASE_METRICS)
    for metric in END_TO_END:
        assert metric["better"] in ("lower", "higher") and metric["bound"] > 0


def test_identical_runs_pass():
    runs = paired([result()] * 5, [result()] * 5)
    rows, failures = gate.decide(END_TO_END, runs)
    assert failures == []
    assert set(verdicts(rows).values()) == {"ok"}
    assert all(row["change"] == 0 for row in rows)


def test_metric_worse_than_its_bound_in_every_pair_fails():
    base = [result(jobs_per_s=v) for v in (98, 101, 100, 103, 99)]
    head = [result(jobs_per_s=v) for v in (60, 64, 58, 66, 61)]
    rows, failures = gate.decide(END_TO_END, paired(base, head))
    assert verdicts(rows)["jobs_per_s"] == "worse"
    assert len(failures) == 1 and "jobs_per_s" in failures[0]


def test_median_past_bound_without_dominance_is_unresolved_and_passes():
    base = [result(latency_p90_ms=v) for v in (200, 205, 198, 320, 202)]
    head = [result(latency_p90_ms=v) for v in (260, 270, 190, 265, 258)]
    rows, failures = gate.decide(END_TO_END, paired(base, head))
    row = next(row for row in rows if row["metric"] == "latency_p90_ms")
    assert row["change"] > 0.25 and row["verdict"] == "unresolved"
    assert failures == []


def test_better_head_passes():
    base = [result(jobs_per_s=100)] * 5
    head = [result(jobs_per_s=300, latency_p90_ms=50)] * 5
    rows, failures = gate.decide(END_TO_END, paired(base, head))
    assert failures == [] and set(verdicts(rows).values()) == {"ok"}


@pytest.mark.parametrize(
    "bad", [result(correct=False), result(failed=3), None], ids=["incorrect", "failed", "no-result"]
)
def test_head_run_not_correct_fails(bad):
    head = [result()] * 4 + [bad]
    rows, failures = gate.decide(END_TO_END, paired([result()] * 5, head))
    assert len(failures) == 1 and "head run 4 is not correct" in failures[0]


def test_incorrect_base_run_does_not_fail_the_gate():
    base = [result(correct=False, failed=1)] + [result()] * 4
    _, failures = gate.decide(END_TO_END, paired(base, [result()] * 5))
    assert failures == []


def test_changed_fig9_geomean_fails():
    # the geomean is exact, the same in every run of a tree, so any change
    # past its bound is worse in every pair
    head = [result(fig9_norm_time_geomean=7.3544 * 1.06)] * 5
    rows, failures = gate.decide(END_TO_END, paired([result()] * 5, head))
    assert verdicts(rows)["fig9_norm_time_geomean"] == "worse"
    assert len(failures) == 1 and "fig9_norm_time_geomean" in failures[0]


def test_workload_missing_from_base_reads_no_base():
    runs = [{"workload": "new", "pair": 0, "side": "base", "result": None},
            {"workload": "new", "pair": 0, "side": "head", "result": result()}]
    rows, failures = gate.decide(END_TO_END, runs)
    assert failures == [] and set(verdicts(rows).values()) == {"no base"}


def test_workloads_are_judged_separately():
    slow = [result(jobs_per_s=50)] * 5
    runs = paired([result()] * 5, [result()] * 5, "a") + paired([result()] * 5, slow, "b")
    rows, failures = gate.decide(END_TO_END, runs)
    assert [f.split(":")[0] for f in failures] == ["b"]
    assert len(rows) == 2 * len(END_TO_END)


def test_result_line_reads_last_json_line():
    out = "report\njobs 5\n" + json.dumps(result()) + "\n"
    assert gate.result_line(out) == result()
    assert gate.result_line("Traceback ...\nValueError: x\n") is None
    assert gate.result_line("") is None


def test_worse_by_follows_direction_and_zero_base():
    assert gate.worse_by("lower", 100.0, 125.0) == pytest.approx(0.25)
    assert gate.worse_by("higher", 100.0, 75.0) == pytest.approx(0.25)
    assert gate.worse_by("higher", 100.0, 125.0) == pytest.approx(-0.25)
    assert gate.worse_by("lower", 0.0, 0.0) == 0.0
    assert gate.worse_by("lower", 0.0, 1.0) == float("inf")
