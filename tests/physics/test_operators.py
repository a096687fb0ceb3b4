"""Unit and property tests for repro.physics.operators and its test oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics.operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    destroy,
    kron,
    number,
    project_to_qubit,
)
from tests.oracles import (
    basis_state,
    commutator,
    create,
    dagger,
    embed_qubit_operator,
    is_hermitian,
    is_unitary,
    projector,
)


class TestPaulis:
    def test_pauli_algebra(self):
        assert np.allclose(PAULI_X @ PAULI_X, np.eye(2))
        assert np.allclose(PAULI_Y @ PAULI_Y, np.eye(2))
        assert np.allclose(PAULI_Z @ PAULI_Z, np.eye(2))
        assert np.allclose(commutator(PAULI_X, PAULI_Y), 2j * PAULI_Z)

    def test_paulis_are_hermitian_and_unitary(self):
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            assert is_hermitian(pauli)
            assert is_unitary(pauli)


class TestLadderOperators:
    def test_destroy_lowers_fock_state(self):
        op = destroy(4)
        two = basis_state(4, 2)
        lowered = op @ two
        assert np.allclose(lowered, np.sqrt(2) * basis_state(4, 1))

    def test_create_is_dagger_of_destroy(self):
        assert np.allclose(create(5), dagger(destroy(5)))

    def test_number_operator_counts_excitations(self):
        n = number(5)
        for level in range(5):
            state = basis_state(5, level)
            assert np.isclose(np.real(state.conj() @ n @ state), level)

    def test_commutation_relation_truncated(self):
        # [b, b+] = 1 except on the truncation boundary.
        dim = 6
        comm = commutator(destroy(dim), create(dim))
        expected = np.eye(dim)
        expected[-1, -1] = -(dim - 1)
        assert np.allclose(comm, expected)

    @pytest.mark.parametrize("dim", [0, 1])
    def test_small_dimensions_rejected(self, dim):
        with pytest.raises(ValueError):
            destroy(dim)


class TestProjectionEmbedding:
    def test_projector_traces_to_level_count(self):
        proj = projector(6, levels=(0, 1))
        assert np.isclose(np.trace(proj).real, 2.0)
        assert is_hermitian(proj)

    def test_projector_invalid_level(self):
        with pytest.raises(ValueError):
            projector(3, levels=(5,))

    def test_embed_then_project_roundtrip(self):
        embedded = embed_qubit_operator(PAULI_X, 6)
        assert np.allclose(project_to_qubit(embedded), PAULI_X)
        assert is_unitary(embedded)

    def test_embed_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            embed_qubit_operator(np.eye(3), 6)

    def test_basis_state_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(4, 4)


class TestKron:
    def test_kron_dimensions(self):
        result = kron(np.eye(2), np.eye(3), np.eye(4))
        assert result.shape == (24, 24)

    def test_kron_empty_rejected(self):
        with pytest.raises(ValueError):
            kron()


@st.composite
def random_unitary_2x2(draw):
    """A Haar-ish random SU(2) element built from three Euler angles."""
    from repro.physics.rotations import rz, ry

    alpha = draw(st.floats(-np.pi, np.pi, allow_nan=False))
    theta = draw(st.floats(0.0, np.pi, allow_nan=False))
    beta = draw(st.floats(-np.pi, np.pi, allow_nan=False))
    return rz(beta) @ ry(theta) @ rz(alpha)


class TestProperties:
    @given(random_unitary_2x2())
    @settings(max_examples=50, deadline=None)
    def test_embedded_unitaries_stay_unitary(self, unitary):
        assert is_unitary(embed_qubit_operator(unitary, 6))

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_number_equals_create_destroy(self, dim):
        assert np.allclose(number(dim), create(dim) @ destroy(dim))
