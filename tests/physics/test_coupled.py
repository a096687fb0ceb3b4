"""Unit tests for repro.physics.coupled (two-transmon physics)."""

import numpy as np
import pytest

from repro.physics.coupled import (
    CZ_TARGET,
    FluxPulseCalibration,
    TwoTransmonSystem,
    computational_indices,
    embed_single_qubit_pair,
    project_two_qubit,
    simulate_uqq,
)
from repro.physics.operators import PAULI_X
from repro.physics.transmon import Transmon, TransmonPairParameters
from tests.oracles import cz_target, is_hermitian, is_unitary


@pytest.fixture(scope="module")
def pair():
    return TransmonPairParameters(
        qubit_a=Transmon(frequency=6.21286, anharmonicity=-0.25, levels=3),
        qubit_b=Transmon(frequency=4.14238, anharmonicity=-0.25, levels=3),
        coupling=0.010,
        levels=3,
    )


@pytest.fixture(scope="module")
def system(pair):
    return TwoTransmonSystem(pair)


class TestHamiltonian:
    def test_hamiltonian_is_hermitian(self, system):
        assert is_hermitian(system.hamiltonian())

    def test_dimension(self, system):
        assert system.dimension == 9

    def test_resonance_frequency(self, system, pair):
        resonance = system.resonance_frequency_for_cz()
        assert np.isclose(resonance, pair.qubit_b.frequency - pair.qubit_a.anharmonicity)


class TestPropagation:
    def test_static_propagator_unitary(self, system):
        assert is_unitary(system.static_propagator(10.0))

    def test_idle_pair_is_nearly_identity_in_rotating_frame(self, system):
        duration = 20.0
        unitary = system.rotating_frame(duration) @ system.static_propagator(duration)
        projected = project_two_qubit(unitary, 3)
        # The parked pair is far off resonance, so idling is identity up to
        # small dispersive phases.
        fidelity = abs(np.trace(projected.conj().T @ np.diag(np.exp(-1j * np.angle(np.diag(projected)))))) / 4
        assert fidelity > 0.99

    def test_trajectory_validation(self, system):
        with pytest.raises(ValueError):
            system.propagate_frequency_trajectory([], 0.1)
        with pytest.raises(ValueError):
            system.propagate_frequency_trajectory([5.0], -0.1)

    def test_trajectory_merges_equal_segments(self, system):
        # A constant trajectory must equal a single static propagation.
        traj = system.propagate_frequency_trajectory([6.21286] * 50, 0.1)
        static = system.static_propagator(5.0)
        assert np.allclose(traj, static, atol=1e-9)


class TestProjection:
    def test_computational_indices(self):
        assert computational_indices(3) == (0, 1, 3, 4)

    def test_project_shape_validation(self):
        with pytest.raises(ValueError):
            project_two_qubit(np.eye(8), 3)

    def test_cz_target_properties(self):
        target = cz_target()
        assert np.allclose(target, np.diag([1, 1, 1, -1]))
        assert is_unitary(target)
        assert target is not CZ_TARGET  # a defensive copy

    def test_embed_single_qubit_pair(self):
        embedded = embed_single_qubit_pair(PAULI_X, np.eye(2), 3)
        assert embedded.shape == (9, 9)
        projected = project_two_qubit(embedded, 3)
        assert np.allclose(projected, np.kron(PAULI_X, np.eye(2)))


class TestFluxPulse:

    def test_amplitude_scale_shifts_excursion(self):
        calibration = FluxPulseCalibration(ghz_per_ma=-1.8, amplitude_scale=1.01)
        nominal = FluxPulseCalibration(ghz_per_ma=-1.8)
        assert calibration.frequency_trajectory(6.2, [1.0])[0] < nominal.frequency_trajectory(6.2, [1.0])[0]

    def test_simulate_uqq_is_unitary(self, system, pair):
        # 1 mA of plateau current brings the tunable qubit onto the CZ resonance.
        calibration = FluxPulseCalibration(
            ghz_per_ma=system.resonance_frequency_for_cz() - pair.qubit_a.frequency
        )
        currents = np.concatenate([np.linspace(0, 1, 20), np.ones(100), np.linspace(1, 0, 20)])
        unitary = simulate_uqq(system, currents, 0.25, calibration)
        assert is_unitary(unitary)
