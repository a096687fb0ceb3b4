"""Smoke tests for the ``python -m repro.runtime`` CLI."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runtime.cli import main

CLI_ARGS = [
    "--benchmarks", "bv", "ising",
    "--configs", "opt8", "min2",
    "--qubits", "8",
]


class TestMain:
    def test_table_output_and_cache_banner(self, tmp_path, capsys):
        assert main(CLI_ARGS + ["--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 jobs (4 computed, 0 cached)" in out
        assert "Normalized execution time (Fig. 9)" in out
        assert "DigiQ_opt(BS=8)" in out

        assert main(CLI_ARGS + ["--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 jobs (0 computed, 4 cached)" in out

    def test_json_output_parses(self, tmp_path, capsys):
        assert main(CLI_ARGS + ["--cache-dir", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["jobs"] == 4
        assert len(payload["rows"]) == 4
        assert payload["rows"][0]["benchmark"] == "bv"

    def test_power_table_rendered(self, tmp_path, capsys):
        args = CLI_ARGS + ["--cache-dir", str(tmp_path), "--power"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Controller power & scalability" in out
        assert "power_per_qubit_mw" in out

    def test_no_cache_leaves_no_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(CLI_ARGS + ["--no-cache"]) == 0
        assert "computed" in capsys.readouterr().out
        assert not (tmp_path / ".repro_cache").exists()

    def test_bad_config_spec_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(CLI_ARGS[:-2] + ["--configs", "warp9", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_bad_benchmark_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--benchmarks", "nope", "--cache-dir", str(tmp_path)])

    def test_bad_qubit_count_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--qubits", "1", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_removed_bench_subcommand_errors_cleanly(self, tmp_path, capsys, monkeypatch):
        # timing lives in perfbench/run.py; "bench" is no subcommand, so
        # argparse rejects it before any sweep runs or any store is written
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: bench --quick" in err
        assert list(tmp_path.iterdir()) == []

    def test_fidelity_knobs_require_fidelity_flag(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(CLI_ARGS + ["--trajectories", "500", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_opt_level_two_runs_and_reports_column(self, tmp_path, capsys):
        assert main(CLI_ARGS + ["--cache-dir", str(tmp_path), "--opt-level", "2"]) == 0
        out = capsys.readouterr().out
        assert "opt_level" in out
        assert "4 jobs (4 computed, 0 cached)" in out

    def test_opt_levels_use_distinct_cache_keys(self, tmp_path, capsys):
        assert main(CLI_ARGS + ["--cache-dir", str(tmp_path), "--opt-level", "0"]) == 0
        capsys.readouterr()
        assert main(CLI_ARGS + ["--cache-dir", str(tmp_path), "--opt-level", "2"]) == 0
        assert "4 jobs (4 computed, 0 cached)" in capsys.readouterr().out

    def test_pass_metrics_table_rendered(self, tmp_path, capsys):
        args = CLI_ARGS + ["--cache-dir", str(tmp_path), "--opt-level", "2", "--pass-metrics"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Per-pass compile metrics (-O2)" in out
        assert "LookaheadRoute" in out
        assert "CommutationAwareFusion" in out
        assert "wall_ms" in out

    def test_pass_metrics_in_json_payload(self, tmp_path, capsys):
        args = CLI_ARGS + [
            "--cache-dir", str(tmp_path), "--opt-level", "1",
            "--pass-metrics", "--format", "json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        passes = {row["pass"] for row in payload["pass_metrics"]}
        assert "StochasticRoute" in passes and "CancelInverseGates" in passes

    def test_forced_pipeline_and_routing_seed_accepted(self, tmp_path, capsys):
        args = CLI_ARGS + [
            "--cache-dir", str(tmp_path),
            "--pipeline", "lookahead", "--routing-seed", "9",
        ]
        assert main(args) == 0
        assert "4 jobs" in capsys.readouterr().out

    def test_bad_opt_level_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(CLI_ARGS + ["--cache-dir", str(tmp_path), "--opt-level", "9"])
        assert excinfo.value.code == 2

    def test_duplicate_configs_accounted_in_banner(self, tmp_path, capsys):
        args = [
            "--benchmarks", "bv",
            "--configs", "opt8", "opt8",
            "--qubits", "8",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        assert "2 jobs (1 computed, 0 cached, 1 duplicate)" in capsys.readouterr().out


class TestWorkersEnv:
    def test_env_override_is_honored(self, monkeypatch):
        from repro.runtime.executor import default_worker_count

        monkeypatch.setenv("REPRO_MAX_WORKERS", "7")
        assert default_worker_count() == 7

    def test_unset_env_uses_bounded_default(self, monkeypatch):
        from repro.runtime.executor import default_worker_count

        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert 1 <= default_worker_count() <= 4

    @pytest.mark.parametrize("bad", ["abc", "0", "-3", "1.5"])
    def test_malformed_env_raises_clear_error(self, monkeypatch, bad):
        from repro.runtime.executor import default_worker_count

        monkeypatch.setenv("REPRO_MAX_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_MAX_WORKERS must be a positive integer"):
            default_worker_count()

    def test_cli_reports_malformed_env_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "nope")
        with pytest.raises(SystemExit) as excinfo:
            main(CLI_ARGS + ["--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "REPRO_MAX_WORKERS" in capsys.readouterr().err

    def test_explicit_workers_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "nope")  # would error if consulted
        args = ["--benchmarks", "bv", "--configs", "opt8", "--qubits", "8"]
        assert main(args + ["--cache-dir", str(tmp_path), "--workers", "1"]) == 0
        assert "1 jobs" in capsys.readouterr().out


class TestCacheSubcommand:
    def _seed_store(self, tmp_path):
        args = ["--benchmarks", "bv", "--configs", "opt8", "--qubits", "8"]
        assert main(args + ["--cache-dir", str(tmp_path)]) == 0

    def test_stats_table(self, tmp_path, capsys):
        self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Result store" in out
        assert str(tmp_path) in out

    def test_stats_json_reports_schema_histogram(self, tmp_path, capsys):
        from repro.runtime.jobs import RESULT_SCHEMA_VERSION

        self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path), "--format", "json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["schema_versions"] == {str(RESULT_SCHEMA_VERSION): 1}
        assert stats["total_bytes"] > 0

    def test_prune_trims_to_entry_budget(self, tmp_path, capsys):
        assert main(CLI_ARGS + ["--cache-dir", str(tmp_path)]) == 0  # 4 jobs
        capsys.readouterr()
        assert main(
            ["cache", "prune", "--cache-dir", str(tmp_path), "--max-entries", "2"]
        ) == 0
        assert "pruned 2 entries" in capsys.readouterr().out
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path), "--format", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 2

    def test_prune_without_limits_errors_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "prune", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--max-entries and/or --max-bytes" in capsys.readouterr().err

    def test_prune_rejects_negative_limits(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "prune", "--cache-dir", str(tmp_path), "--max-entries", "-1"])
        assert excinfo.value.code == 2
        assert "max_entries" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_runs_a_sweep(self, tmp_path):
        """`python -m repro.runtime` end-to-end, as the acceptance criteria demand."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro.runtime"]
            + CLI_ARGS
            + ["--cache-dir", str(tmp_path), "--workers", "2"],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "4 jobs (4 computed, 0 cached)" in result.stdout

    def test_pooled_fidelity_sweep_leaves_no_process_behind(self, tmp_path):
        """A one-group fidelity sweep lends its pool to the trajectory
        batches; the CLI's fork server and workers exit with it.

        The CLI leads its own process group, which every process it starts
        joins, so an empty group means nothing is left behind.
        """
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime", "--benchmarks", "bv",
             "--configs", "opt8", "min2", "--qubits", "8", "--fidelity",
             "--trajectories", "40", "--workers", "2", "--format", "json",
             "--cache-dir", str(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=300)
            assert process.returncode == 0, err
            rows = json.loads(out)["rows"]
            assert [row["trajectories"] for row in rows] == [40, 40]
            deadline = time.monotonic() + 30.0
            while True:
                try:
                    os.killpg(process.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a pool process outlived the CLI"
                time.sleep(0.05)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
