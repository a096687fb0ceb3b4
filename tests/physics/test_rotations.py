"""Unit and property tests for repro.physics.rotations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics.operators import PAULI_X, PAULI_Y, PAULI_Z
from repro.physics.rotations import global_phase_aligned, rx, ry, rz, u3, zyz_angles
from tests.oracles import (
    bloch_vector,
    circular_distance,
    equivalent_up_to_phase,
    is_unitary,
    rotation,
    su2_distance,
    wrap_angle,
)

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False)


class TestElementaryRotations:
    def test_rx_pi_is_x(self):
        assert equivalent_up_to_phase(rx(math.pi), PAULI_X)

    def test_ry_pi_is_y(self):
        assert equivalent_up_to_phase(ry(math.pi), PAULI_Y)

    def test_rz_pi_is_z(self):
        assert equivalent_up_to_phase(rz(math.pi), PAULI_Z)

    def test_half_pi_y_rotation_maps_z_to_x(self):
        state = ry(math.pi / 2) @ np.array([1.0, 0.0])
        assert np.allclose(bloch_vector(state), [1.0, 0.0, 0.0], atol=1e-9)

    def test_rotation_about_arbitrary_axis_matches_named(self):
        assert np.allclose(rotation((1, 0, 0), 0.7), rx(0.7))
        assert np.allclose(rotation((0, 1, 0), 0.7), ry(0.7))
        assert np.allclose(rotation((0, 0, 1), 0.7), rz(0.7))

    def test_rotation_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation((0.0, 0.0, 0.0), 1.0)

    def test_u3_matches_euler_product(self):
        theta, phi, lam = 0.9, 0.4, -1.3
        expected = rz(phi) @ ry(theta) @ rz(lam)
        assert equivalent_up_to_phase(u3(theta, phi, lam), expected)


class TestZYZ:
    @given(angles, st.floats(0.0, math.pi, allow_nan=False), angles)
    @settings(max_examples=80, deadline=None)
    def test_zyz_roundtrip(self, alpha, theta, beta):
        target = rz(beta) @ ry(theta) @ rz(alpha)
        a, t, b = zyz_angles(target)
        rebuilt = rz(b) @ ry(t) @ rz(a)
        assert su2_distance(rebuilt, target) < 1e-7

    def test_zyz_of_identity(self):
        a, t, b = zyz_angles(np.eye(2))
        assert abs(t) < 1e-9
        assert abs(wrap_angle(a + b)) < 1e-9

    def test_zyz_theta_range(self):
        for _ in range(5):
            matrix = u3(2.7, 0.3, 1.1)
            _, theta, _ = zyz_angles(matrix)
            assert 0.0 <= theta <= math.pi + 1e-12


class TestComparisons:
    def test_su2_distance_zero_for_global_phase(self):
        gate = u3(1.0, 0.2, 0.3)
        assert su2_distance(gate, np.exp(1j * 0.77) * gate) < 1e-6

    def test_su2_distance_positive_for_distinct(self):
        assert su2_distance(rx(0.5), ry(0.5)) > 1e-3

    def test_global_phase_aligned_det_one(self):
        aligned = global_phase_aligned(np.exp(1j * 1.1) * u3(0.4, 0.1, 0.9))
        assert np.isclose(np.linalg.det(aligned), 1.0)

    def test_global_phase_aligned_rejects_singular(self):
        with pytest.raises(ValueError):
            global_phase_aligned(np.zeros((2, 2)))

    @given(angles, angles)
    @settings(max_examples=50, deadline=None)
    def test_circular_distance_symmetric_and_bounded(self, a, b):
        d = circular_distance(a, b)
        assert 0.0 <= d <= math.pi + 1e-9
        assert math.isclose(d, circular_distance(b, a), abs_tol=1e-9)

    @given(angles)
    @settings(max_examples=50, deadline=None)
    def test_wrap_angle_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi + 1e-12
        assert circular_distance(wrapped, angle) < 1e-9


class TestBlochVector:
    def test_unit_norm(self):
        vec = bloch_vector(np.array([0.6, 0.8j]))
        assert np.isclose(np.linalg.norm(vec), 1.0)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            bloch_vector(np.zeros(2))

    @given(angles, st.floats(0.0, math.pi, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_rotations_preserve_norm(self, phi, theta):
        state = u3(theta, phi, 0.0) @ np.array([1.0, 0.0])
        assert np.isclose(np.linalg.norm(bloch_vector(state)), 1.0)


class TestUnitarity:
    @given(angles)
    @settings(max_examples=40, deadline=None)
    def test_all_rotations_unitary(self, angle):
        for gate in (rx(angle), ry(angle), rz(angle)):
            assert is_unitary(gate)
