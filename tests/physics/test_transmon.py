"""Unit tests for repro.physics.transmon."""

import numpy as np
import pytest

from repro.physics.transmon import AsymmetricTransmon, Transmon, TransmonPairParameters
from tests.oracles import is_hermitian


class TestTransmon:
    def test_level_frequencies_anharmonic_ladder(self):
        transmon = Transmon(frequency=5.0, anharmonicity=-0.25, levels=4)
        freqs = transmon.level_frequencies()
        assert np.isclose(freqs[0], 0.0)
        assert np.isclose(freqs[1], 5.0)
        assert np.isclose(freqs[2], 2 * 5.0 - 0.25)
        # the 1->2 spacing is smaller than the 0->1 spacing for negative anharmonicity
        assert freqs[2] - freqs[1] < freqs[1] - freqs[0]

    def test_hamiltonian_hermitian_and_diagonal(self):
        ham = Transmon(frequency=5.0).hamiltonian()
        assert is_hermitian(ham)
        assert np.allclose(ham, np.diag(np.diag(ham)))

    def test_free_propagator_is_unitary_and_periodic(self):
        transmon = Transmon(frequency=5.0, anharmonicity=0.0, levels=2)
        prop = transmon.free_propagator(1.0 / transmon.frequency)
        assert np.allclose(prop @ prop.conj().T, np.eye(2), atol=1e-9)
        # after exactly one period a two-level system returns to itself (up to phase)
        assert np.isclose(abs(prop[1, 1] / prop[0, 0]), 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Transmon(frequency=-1.0)
        with pytest.raises(ValueError):
            Transmon(frequency=5.0, levels=1)


class TestAsymmetricTransmon:
    def test_frequency_decreases_with_flux(self):
        transmon = AsymmetricTransmon.from_frequency(6.0)
        assert transmon.frequency(0.0) > transmon.frequency(0.3) > transmon.frequency(0.5)

    def test_from_frequency_hits_target_at_sweet_spot(self):
        transmon = AsymmetricTransmon.from_frequency(6.21286, anharmonicity=-0.25)
        assert np.isclose(transmon.max_frequency(), 6.21286, atol=1e-9)

    def test_ej_scale_shifts_frequency_by_half_relative(self):
        transmon = AsymmetricTransmon.from_frequency(6.0, anharmonicity=-0.25)
        scaled = transmon.with_ej_scale(1.004)
        relative_shift = (scaled.max_frequency() - 6.0) / 6.0
        assert 0.001 < relative_shift < 0.003  # roughly half of 0.4 %

    def test_invalid_asymmetry(self):
        with pytest.raises(ValueError):
            AsymmetricTransmon(ej_sum=20.0, ec=0.25, asymmetry=1.5)


class TestTransmonPair:
    def test_detuning(self):
        pair = TransmonPairParameters(
            qubit_a=Transmon(frequency=6.2, levels=3),
            qubit_b=Transmon(frequency=4.1, levels=3),
        )
        assert np.isclose(pair.detuning(), 2.1)

    def test_requires_three_levels(self):
        with pytest.raises(ValueError):
            TransmonPairParameters(
                qubit_a=Transmon(frequency=6.2, levels=3),
                qubit_b=Transmon(frequency=4.1, levels=3),
                levels=2,
            )

    def test_requires_positive_coupling(self):
        with pytest.raises(ValueError):
            TransmonPairParameters(
                qubit_a=Transmon(frequency=6.2, levels=3),
                qubit_b=Transmon(frequency=4.1, levels=3),
                coupling=0.0,
            )
