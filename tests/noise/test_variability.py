"""Tests for the qubit/hardware variability model (Sec. VI-B noise model)."""

import numpy as np
import pytest

from repro.noise.variability import (
    DEFAULT_CURRENT_SIGMA,
    QubitSample,
    VariabilityModel,
    expected_frequency_fluctuation,
)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = VariabilityModel(seed=42).sample_qubits([6.21286] * 10)
        b = VariabilityModel(seed=42).sample_qubits([6.21286] * 10)
        assert [s.actual_frequency for s in a] == [s.actual_frequency for s in b]

    def test_different_seeds_differ(self):
        a = VariabilityModel(seed=1).sample_qubits([6.21286] * 10)
        b = VariabilityModel(seed=2).sample_qubits([6.21286] * 10)
        assert [s.actual_frequency for s in a] != [s.actual_frequency for s in b]

    def test_default_grouping_by_frequency(self):
        samples = VariabilityModel(seed=0).sample_qubits([6.2, 4.1, 6.2, 4.1])
        assert samples[0].group == samples[2].group
        assert samples[1].group == samples[3].group
        assert samples[0].group != samples[1].group

    def test_explicit_groups_respected(self):
        samples = VariabilityModel(seed=0).sample_qubits([6.2, 6.2], groups=[0, 1])
        assert samples[0].group == 0 and samples[1].group == 1

    def test_group_length_mismatch(self):
        with pytest.raises(ValueError):
            VariabilityModel(seed=0).sample_qubits([6.2, 6.2], groups=[0])

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            VariabilityModel(ej_sigma=-0.1)


class TestFrequencyStatistics:
    def test_paper_magnitude_of_fluctuation(self):
        # The paper quotes about +-6 MHz at the target frequencies for 0.2 % EJ sigma.
        sigma = expected_frequency_fluctuation(6.21286)
        assert 0.004 < sigma < 0.009

    def test_sampled_drift_distribution(self):
        model = VariabilityModel(seed=7)
        samples = model.sample_qubits([6.21286] * 400)
        drifts = np.array([s.drift for s in samples])
        assert abs(np.mean(drifts)) < 0.003
        assert 0.003 < np.std(drifts) < 0.010

    def test_zero_sigma_gives_no_drift(self):
        model = VariabilityModel(ej_sigma=0.0, seed=0)
        sample = model.sample_qubits([5.0])[0]
        assert abs(sample.drift) < 1e-9


class TestQubitSample:
    def test_transmon_builders(self):
        sample = QubitSample(index=3, group=1, nominal_frequency=6.2, actual_frequency=6.205)
        assert np.isclose(sample.transmon().frequency, 6.205)
        assert np.isclose(sample.drift, 0.005)


class TestCurrentError:
    def test_current_scale_statistics(self):
        model = VariabilityModel(seed=5)
        scales = [model.sample_current_scale() for _ in range(2000)]
        assert np.isclose(np.mean(scales), 1.0, atol=0.01)
        assert np.isclose(np.std(scales), DEFAULT_CURRENT_SIGMA, atol=0.003)

    def test_single_scale_positive(self):
        assert VariabilityModel(seed=0).sample_current_scale() > 0
