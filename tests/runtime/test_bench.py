"""Tests for the ``repro bench`` harness and its regression gate."""

import json

import pytest

from repro import telemetry
from repro.circuits.benchmarks import build_benchmark
from repro.compiler.pipeline import compile_circuit
from repro.runtime.bench import (
    BENCH_SCHEMA,
    QUICK_PROFILE,
    bench_main,
    check_regression,
    pass_time_table,
    run_bench,
)
from repro.simulation import NoiseModel, run_trajectories


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


class TestRunBench:
    def test_quick_report_shape(self):
        report = run_bench(benchmarks=("bv",), quick=True, rev="test")
        assert report["schema"] == BENCH_SCHEMA
        assert report["rev"] == "test"
        assert report["quick"] is True
        (row,) = report["compile"]
        assert row["benchmark"] == "bv"
        assert row["repeats"] == QUICK_PROFILE["repeats"]
        assert row["min_s"] > 0
        assert row["throughput_per_s"] == pytest.approx(1.0 / row["min_s"])
        assert "fidelity" not in report
        # The embedded telemetry window saw the compile spans and counters;
        # the default opt level is below 2, so the compile_o2 section adds a
        # second set of timed compilations.
        span_names = {entry["span"] for entry in report["telemetry"]["spans"]}
        assert "compile.circuit" in span_names
        assert (
            report["telemetry"]["metrics"]["counters"]["compile.circuits"]
            == 2 * QUICK_PROFILE["repeats"]
        )
        json.dumps(report)  # JSON-able end to end

    def test_fidelity_rows_carry_trajectory_throughput(self):
        report = run_bench(benchmarks=("bv",), quick=True, fidelity=True)
        (row,) = report["fidelity"]
        assert row["trajectories"] == QUICK_PROFILE["trajectories"]
        assert row["throughput_traj_per_s"] == pytest.approx(
            row["trajectories"] / row["wall_s"]
        )
        # A few-millisecond bv run is repeated and timed best-of.
        assert row["repeats"] >= 2
        assert 0.0 <= row["state_fidelity"] <= 1.0
        span_names = {entry["span"] for entry in report["telemetry"]["spans"]}
        assert {"sim.run", "sim.batch"} <= span_names
        # The stage simulates what a --fidelity job simulates: the compiled
        # physical circuit (logical bv would score exactly 1.0 here).
        circuit = build_benchmark("bv", num_qubits=QUICK_PROFILE["sim_qubits"], seed=0)
        physical = compile_circuit(circuit, seed=0).physical_circuit
        expected = run_trajectories(
            physical,
            NoiseModel.uniform(physical.num_qubits),
            num_trajectories=QUICK_PROFILE["trajectories"],
            seed=0,
            batch_size=QUICK_PROFILE["traj_batch"],
        )
        assert row["qubits"] == physical.num_qubits
        assert row["state_fidelity"] == expected.state_fidelity < 1.0

    def test_compile_o2_rows_shared_when_already_at_o2(self):
        report = run_bench(benchmarks=("bv",), quick=True, opt_level=2)
        assert report["compile_o2"] is report["compile"]

    def test_compile_o2_measured_separately_below_o2(self):
        report = run_bench(benchmarks=("bv",), quick=True, opt_level=0)
        assert report["compile_o2"] is not report["compile"]
        (row,) = report["compile_o2"]
        assert row["benchmark"] == "bv"
        assert row["throughput_per_s"] > 0
        json.dumps(report)

    def test_metrics_are_deltas_not_process_totals(self):
        telemetry.counter("compile.circuits").inc(100)  # prior process activity
        report = run_bench(benchmarks=("bv",), quick=True, opt_level=2)
        assert (
            report["telemetry"]["metrics"]["counters"]["compile.circuits"]
            == QUICK_PROFILE["repeats"]
        )


class TestCheckRegression:
    def _report(self, throughput):
        return {
            "schema": BENCH_SCHEMA,
            "compile": [
                {"benchmark": "bv", "throughput_per_s": throughput},
                {"benchmark": "ising", "throughput_per_s": 50.0},
            ],
        }

    def test_within_tolerance_passes(self):
        assert check_regression(self._report(80.0), self._report(100.0)) == []

    def test_regression_beyond_tolerance_is_reported(self):
        failures = check_regression(
            self._report(70.0), self._report(100.0), tolerance=0.25
        )
        assert len(failures) == 1
        assert failures[0].startswith("bv:")

    def test_faster_than_baseline_passes(self):
        assert check_regression(self._report(500.0), self._report(100.0)) == []

    def test_benchmarks_missing_from_either_side_are_ignored(self):
        current = {"schema": BENCH_SCHEMA, "compile": [{"benchmark": "qft", "throughput_per_s": 1.0}]}
        assert check_regression(current, self._report(100.0)) == []

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            check_regression(self._report(1.0), {"schema": "other/v9"})

    def _fidelity_report(self, throughput):
        return {
            "schema": BENCH_SCHEMA,
            "compile": [{"benchmark": "bv", "throughput_per_s": 100.0}],
            "fidelity": [{"benchmark": "bv", "throughput_traj_per_s": throughput}],
        }

    def test_trajectory_stage_regression_is_reported(self):
        failures = check_regression(
            self._fidelity_report(50.0), self._fidelity_report(100.0), tolerance=0.25
        )
        assert len(failures) == 1
        assert "trajectory throughput" in failures[0]

    def test_trajectory_stage_within_tolerance_passes(self):
        assert check_regression(
            self._fidelity_report(90.0), self._fidelity_report(100.0)
        ) == []

    def test_missing_fidelity_stage_is_ignored(self):
        # A compile-only report checked against a fidelity-carrying baseline
        # (or vice versa) gates only the stages both sides ran.
        assert check_regression(
            self._report(100.0), self._fidelity_report(100.0)
        ) == []

    def _o2_report(self, throughput):
        return {
            "schema": BENCH_SCHEMA,
            "compile": [{"benchmark": "sqrt", "throughput_per_s": 100.0}],
            "compile_o2": [{"benchmark": "sqrt", "throughput_per_s": throughput}],
        }

    def test_o2_compile_stage_regression_is_reported(self):
        failures = check_regression(
            self._o2_report(50.0), self._o2_report(100.0), tolerance=0.25
        )
        assert len(failures) == 1
        assert "compile throughput (-O2)" in failures[0]
        assert failures[0].startswith("sqrt:")

    def test_o2_compile_stage_within_tolerance_passes(self):
        assert check_regression(self._o2_report(90.0), self._o2_report(100.0)) == []

    def test_missing_o2_stage_is_ignored(self):
        # Reports from before the compile_o2 section gate only shared stages.
        assert check_regression(
            self._report(100.0), self._o2_report(100.0)
        ) == []


class TestPassTimeTable:
    def test_rows_from_report_spans(self):
        report = {
            "telemetry": {
                "spans": [
                    {"span": "compile.circuit", "count": 7, "total_s": 1.0, "mean_s": 0.14},
                    {"span": "compile.pass.LookaheadRoute", "count": 7, "total_s": 0.6, "mean_s": 0.0857},
                    {"span": "compile.pass.RebaseToCZ", "count": 7, "total_s": 0.2, "mean_s": 0.0286},
                ]
            }
        }
        rows = pass_time_table(report)
        assert [row["pass"] for row in rows] == ["LookaheadRoute", "RebaseToCZ"]
        assert rows[0]["count"] == 7
        assert rows[0]["share"] == "75.0%"
        assert rows[1]["share"] == "25.0%"

    def test_live_report_carries_pass_spans(self):
        report = run_bench(benchmarks=("bv",), quick=True, opt_level=2)
        rows = pass_time_table(report)
        names = {row["pass"] for row in rows}
        assert "LookaheadRoute" in names

    def test_empty_report_yields_no_rows(self):
        assert pass_time_table({}) == []


class TestBenchMain:
    def test_writes_report_and_prints_table(self, tmp_path, capsys):
        exit_code = bench_main(
            ["--quick", "--benchmarks", "bv", "--rev", "t1", "--output-dir", str(tmp_path)]
        )
        assert exit_code == 0
        report = json.loads((tmp_path / "BENCH_t1.json").read_text())
        assert report["schema"] == BENCH_SCHEMA
        out = capsys.readouterr().out
        assert "Compile throughput" in out
        assert "BENCH_t1.json" in out

    def test_check_gate_fails_on_regression(self, tmp_path, capsys):
        baseline = {
            "schema": BENCH_SCHEMA,
            "compile": [{"benchmark": "bv", "throughput_per_s": 1e9}],
        }
        baseline_path = tmp_path / "BENCH_baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        exit_code = bench_main(
            [
                "--quick", "--benchmarks", "bv", "--rev", "t2",
                "--output-dir", str(tmp_path), "--check", str(baseline_path),
            ]
        )
        assert exit_code == 1
        assert "REGRESSION: bv" in capsys.readouterr().out

    def test_pass_table_prints_per_pass_breakdown(self, tmp_path, capsys):
        exit_code = bench_main(
            [
                "--quick", "--benchmarks", "bv", "--rev", "pt",
                "--output-dir", str(tmp_path), "--pass-table",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Compile time by pass" in out
        # At least the router shows up as a named pass row.
        assert "Route" in out

    def test_profile_out_writes_a_cprofile_dump(self, tmp_path, capsys):
        import pstats

        profile_path = tmp_path / "bench.prof"
        exit_code = bench_main(
            [
                "--quick", "--benchmarks", "bv", "--rev", "prof",
                "--output-dir", str(tmp_path), "--profile-out", str(profile_path),
            ]
        )
        assert exit_code == 0
        assert profile_path.exists()
        stats = pstats.Stats(str(profile_path))  # loads => valid dump
        assert stats.total_calls > 0
        assert str(profile_path) in capsys.readouterr().out

    def test_check_gate_passes_against_own_report(self, tmp_path, capsys):
        assert bench_main(
            ["--quick", "--benchmarks", "bv", "--rev", "base", "--output-dir", str(tmp_path)]
        ) == 0
        assert bench_main(
            [
                "--quick", "--benchmarks", "bv", "--rev", "next",
                "--output-dir", str(tmp_path),
                "--check", str(tmp_path / "BENCH_base.json"),
                "--tolerance", "0.9",
            ]
        ) == 0
        assert "within 90%" in capsys.readouterr().out


class TestBaselineStageGaps:
    def _report(self, **sections):
        base = {"schema": BENCH_SCHEMA, "compile": [{"benchmark": "bv"}]}
        base.update(sections)
        return base

    def test_new_stage_missing_from_baseline_warns(self):
        from repro.runtime.bench import baseline_stage_gaps

        report = self._report(fidelity=[{"benchmark": "bv"}])
        gaps = baseline_stage_gaps(report, self._report())
        assert len(gaps) == 1
        assert "'fidelity'" in gaps[0]
        assert "trajectory throughput" in gaps[0]

    def test_shared_stages_produce_no_warnings(self):
        from repro.runtime.bench import baseline_stage_gaps

        report = self._report(fidelity=[{"benchmark": "bv"}])
        assert baseline_stage_gaps(report, report) == []

    def test_stage_missing_from_report_is_not_a_gap(self):
        from repro.runtime.bench import baseline_stage_gaps

        baseline = self._report(fidelity=[{"benchmark": "bv"}])
        assert baseline_stage_gaps(self._report(), baseline) == []

    def test_check_regression_skips_gapped_stage(self):
        report = self._report(
            fidelity=[{"benchmark": "bv", "throughput_traj_per_s": 1.0}]
        )
        # The baseline has no fidelity rows at all: never a failure.
        assert check_regression(report, self._report()) == []

    def test_bench_main_prints_gap_warning_and_passes(self, tmp_path, capsys):
        # A fidelity-carrying run checked against a compile-only baseline
        # exercises the printed skip-with-warning path end to end.
        baseline = {
            "schema": BENCH_SCHEMA,
            "compile": [{"benchmark": "bv", "throughput_per_s": 1.0}],
        }
        baseline_path = tmp_path / "BENCH_old.json"
        baseline_path.write_text(json.dumps(baseline))
        exit_code = bench_main(
            [
                "--quick", "--benchmarks", "bv", "--fidelity", "--rev", "gap",
                "--output-dir", str(tmp_path), "--check", str(baseline_path),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "WARNING: baseline predates the 'fidelity' stage" in out
        assert "REGRESSION" not in out
