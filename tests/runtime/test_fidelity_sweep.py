"""Fidelity-enabled sweeps: columns, caching, keys, and parallel identity."""

import pytest

from repro.runtime import (
    FidelityOptions,
    ResultStore,
    SweepGrid,
    job_key,
    run_sweep,
)
from repro.runtime.spec import ExperimentSpec
from repro.simulation import MAX_DENSE_QUBITS

FIDELITY = FidelityOptions(trajectories=20, batch_size=8, noise_seed=1, max_qubits=12)


def small_grid(**kwargs):
    defaults = dict(
        benchmarks=("bv",),
        backends=("opt8",),
        num_qubits=8,
        seeds=(0, 1),
        fidelity=FIDELITY,
    )
    defaults.update(kwargs)
    return SweepGrid(**defaults)


class TestFidelityOptions:
    def test_round_trips_through_dict(self):
        assert FidelityOptions.from_dict(FIDELITY.as_dict()) == FIDELITY
        assert FidelityOptions.from_dict(None) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="trajectories"):
            FidelityOptions(trajectories=0)
        with pytest.raises(ValueError, match="batch_size"):
            FidelityOptions(batch_size=0)
        with pytest.raises(ValueError, match="max_qubits"):
            FidelityOptions(max_qubits=30)
        with pytest.raises(ValueError, match="max_qubits"):
            FidelityOptions(max_qubits=MAX_DENSE_QUBITS + 1)
        assert FidelityOptions(max_qubits=MAX_DENSE_QUBITS).max_qubits == MAX_DENSE_QUBITS
        with pytest.raises(ValueError, match="mode"):
            FidelityOptions.from_dict(dict(FIDELITY.as_dict(), mode="tensor"))

    @pytest.mark.parametrize("mode", ["statevector", "stabilizer", "sparse"])
    def test_persisted_retired_mode_is_rejected(self, mode):
        """Only the dense kernel is left, so a stored dict that forced
        another kernel (or forced this one by name) cannot be honoured."""
        with pytest.raises(ValueError, match="mode"):
            FidelityOptions.from_dict(dict(FIDELITY.as_dict(), mode=mode))

    def test_options_are_part_of_the_job_key(self):
        base = ExperimentSpec(benchmark="bv", backend="opt8", num_qubits=8)
        with_fidelity = ExperimentSpec(
            benchmark="bv", backend="opt8", num_qubits=8, fidelity=FIDELITY
        )
        other_fidelity = ExperimentSpec(
            benchmark="bv",
            backend="opt8",
            num_qubits=8,
            fidelity=FidelityOptions(trajectories=21),
        )
        keys = {job_key(base), job_key(with_fidelity), job_key(other_fidelity)}
        assert len(keys) == 3


class TestFidelitySweep:
    def test_rows_carry_fidelity_columns(self, tmp_path):
        report = run_sweep(small_grid(), store=ResultStore(tmp_path))
        for row in report.rows:
            assert 0.0 <= row["success_probability"] <= 1.0
            assert 0.0 <= row["state_fidelity"] <= 1.0
            assert row["trajectories"] == 20

    def test_rows_without_fidelity_lack_columns(self, tmp_path):
        report = run_sweep(small_grid(fidelity=None), store=ResultStore(tmp_path))
        for row in report.rows:
            assert "success_probability" not in row

    def test_cached_rerun_is_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_sweep(small_grid(), store=store)
        second = run_sweep(small_grid(), store=store)
        assert second.num_computed == 0
        assert second.num_cached == len(second.keys)
        assert first.rows == second.rows

    def test_parallel_rows_match_serial(self, tmp_path):
        serial = run_sweep(small_grid(), store=ResultStore(tmp_path / "a"), workers=1)
        parallel = run_sweep(small_grid(), store=ResultStore(tmp_path / "b"), workers=2)
        assert serial.rows == parallel.rows

    def test_oversized_device_reports_null_columns(self, tmp_path):
        grid = small_grid(fidelity=FidelityOptions(trajectories=5, max_qubits=4))
        report = run_sweep(grid, store=ResultStore(tmp_path))
        for row in report.rows:
            assert row["success_probability"] is None
            assert row["ideal_success"] is None
            assert row["state_fidelity"] is None
            assert row["trajectories"] == 0

    def test_spec_describe_includes_fidelity(self):
        spec = ExperimentSpec(
            benchmark="bv", backend="opt8", num_qubits=8, fidelity=FIDELITY
        )
        assert spec.describe()["fidelity"] == FIDELITY.as_dict()
        plain = ExperimentSpec(benchmark="bv", backend="opt8", num_qubits=8)
        assert "fidelity" not in plain.describe()
