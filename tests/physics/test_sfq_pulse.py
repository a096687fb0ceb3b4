"""Unit tests for repro.physics.sfq_pulse (bitstream propagation)."""

import math

import numpy as np
import pytest

from repro.physics.fidelity import leakage_projected_error
from repro.physics.operators import project_to_qubit
from repro.physics.rotations import ry
from repro.physics.sfq_pulse import SFQPulseModel, coherent_bitstream
from repro.physics.transmon import Transmon
from tests.oracles import is_unitary, leakage


@pytest.fixture(scope="module")
def model():
    return SFQPulseModel(Transmon(frequency=6.21286, levels=6), tip_angle=0.03)


class TestPulsePropagator:
    def test_single_pulse_is_unitary(self, model):
        assert is_unitary(model.pulse_propagator())

    def test_single_pulse_rotates_by_tip_angle(self, model):
        kick = project_to_qubit(model.pulse_propagator())
        # On the computational subspace the kick is close to Ry(tip_angle).
        assert np.allclose(kick, ry(model.tip_angle), atol=5e-3)

    def test_invalid_tip_angle(self):
        with pytest.raises(ValueError):
            SFQPulseModel(Transmon(frequency=5.0), tip_angle=0.0)


class TestBitstreamPropagation:
    def test_empty_bitstream_is_identity(self, model):
        assert np.allclose(model.propagate_bitstream([]), np.eye(6))

    def test_all_zero_bitstream_is_identity_in_own_frame(self, model):
        # Free evolution in the qubit's own rotating frame is identity on the
        # computational subspace.
        unitary = model.propagate_bitstream([0] * 100)
        qubit_block = project_to_qubit(unitary)
        assert np.allclose(qubit_block, np.eye(2), atol=1e-9)

    def test_bit_validation(self, model):
        with pytest.raises(ValueError):
            model.propagate_bitstream([0, 2, 1])

    def test_propagation_is_unitary(self, model):
        bits = coherent_bitstream(6.21286, 120)
        assert is_unitary(model.propagate_bitstream(bits))

    def test_coherent_pulses_accumulate_y_rotation(self):
        frequency = 6.21286
        bits = coherent_bitstream(frequency, 253, phase_window=1.0)
        n_pulses = int(bits.sum())
        tip = (math.pi / 2.0) / n_pulses
        model = SFQPulseModel(Transmon(frequency=frequency, levels=6), tip_angle=tip)
        error = leakage_projected_error(model.propagate_bitstream(bits), ry(math.pi / 2))
        # A phase-coherent seed already gets within ~1e-2 of Ry(pi/2).
        assert error < 5e-2

    def test_leakage_increases_with_tip_angle(self):
        frequency = 6.21286
        bits = coherent_bitstream(frequency, 120, phase_window=0.8)
        small = SFQPulseModel(Transmon(frequency=frequency, levels=6), tip_angle=0.02)
        large = SFQPulseModel(Transmon(frequency=frequency, levels=6), tip_angle=0.2)
        assert leakage(large.propagate_bitstream(bits)) > leakage(small.propagate_bitstream(bits))


class TestCoherentBitstream:
    def test_pulse_density_tracks_phase_window(self):
        narrow = coherent_bitstream(6.21286, 300, phase_window=0.2)
        wide = coherent_bitstream(6.21286, 300, phase_window=1.0)
        assert wide.sum() > narrow.sum()

    def test_invalid_phase_window(self):
        with pytest.raises(ValueError):
            coherent_bitstream(6.0, 100, phase_window=0.0)

    def test_first_bit_fires_with_zero_offset(self):
        bits = coherent_bitstream(6.0, 10, phase_window=0.3)
        assert bits[0] == 1
