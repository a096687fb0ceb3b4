"""Operator construction helpers for truncated-oscillator (transmon) models.

All operators are returned as dense ``numpy`` arrays because the dimensions
involved are tiny (single transmons are truncated to ~6 levels and coupled
pairs to ~3-4 levels per transmon), and dense linear algebra is both simpler
and faster at these sizes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# ---------------------------------------------------------------------------
# Pauli matrices and friends (2-level / qubit subspace)
# ---------------------------------------------------------------------------

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = {"I": IDENTITY_2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def destroy(dim: int) -> np.ndarray:
    """Annihilation (lowering) operator on a ``dim``-level truncated oscillator."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    op = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        op[n - 1, n] = np.sqrt(n)
    return op


def number(dim: int) -> np.ndarray:
    """Number operator ``b† b`` on a ``dim``-level truncated oscillator."""
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def project_to_qubit(op: np.ndarray, levels: Sequence[int] = (0, 1)) -> np.ndarray:
    """Project a multi-level operator onto the selected computational levels.

    The result is in general *not* unitary; the deviation from unitarity
    captures leakage out of the computational subspace and is accounted for by
    :func:`repro.physics.fidelity.average_gate_fidelity`.
    """
    op = np.asarray(op, dtype=complex)
    idx = np.asarray(levels, dtype=int)
    return op[np.ix_(idx, idx)]


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of an arbitrary number of operators (left to right)."""
    if not ops:
        raise ValueError("kron requires at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out
