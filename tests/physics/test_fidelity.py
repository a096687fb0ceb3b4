"""Unit and property tests for repro.physics.fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics.fidelity import (
    average_gate_error,
    average_gate_fidelity,
    leakage_projected_error,
    leakage_projected_fidelity,
)
from repro.physics.operators import PAULI_X
from repro.physics.rotations import rx, rz, u3
from tests.oracles import embed_qubit_operator, leakage

angles = st.floats(-math.pi, math.pi, allow_nan=False)


class TestAverageGateFidelity:
    def test_identical_gate_has_unit_fidelity(self):
        gate = u3(0.7, 0.2, 1.1)
        assert np.isclose(average_gate_fidelity(gate, gate), 1.0)

    def test_global_phase_invariance(self):
        gate = rx(0.3)
        assert np.isclose(average_gate_fidelity(np.exp(1j * 0.9) * gate, gate), 1.0)

    def test_orthogonal_gates(self):
        # X vs I: F = (0 + 2) / 6 = 1/3.
        assert np.isclose(average_gate_fidelity(PAULI_X, np.eye(2)), 1.0 / 3.0)

    def test_small_rotation_error_quadratic(self):
        delta = 1e-3
        error = average_gate_error(rz(delta), np.eye(2))
        assert np.isclose(error, delta**2 / 6.0, rtol=1e-3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_gate_fidelity(np.eye(2), np.eye(4))

    @given(angles, angles, angles)
    @settings(max_examples=50, deadline=None)
    def test_fidelity_bounded(self, theta, phi, lam):
        value = average_gate_fidelity(u3(theta, phi, lam), np.eye(2))
        assert 0.0 <= value <= 1.0


class TestLeakage:
    def test_unitary_on_subspace_has_no_leakage(self):
        full = embed_qubit_operator(rx(0.4), 6)
        assert leakage(full) < 1e-12
        assert np.isclose(leakage_projected_fidelity(full, rx(0.4)), 1.0)

    def test_swap_to_third_level_counts_as_leakage(self):
        # A unitary moving |1> -> |2> entirely leaks half the subspace.
        full = np.eye(4, dtype=complex)
        full[1, 1] = 0.0
        full[2, 2] = 0.0
        full[1, 2] = 1.0
        full[2, 1] = 1.0
        assert np.isclose(leakage(full), 0.5)
        assert leakage_projected_error(full, np.eye(2)) > 0.3

