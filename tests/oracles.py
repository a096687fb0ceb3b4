"""Reference predicates the tests check library results against.

Nothing in ``src/`` needs these: they answer "is this matrix unitary?" or
"do these two qubits share a coupler?" for assertions, independently of the
code under test.
"""

import math
from typing import Dict, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.circuits.library import gate_matrix
from repro.physics.rotations import zyz_angles


def projector(dim: int, levels: Sequence[int] = (0, 1)) -> np.ndarray:
    """Projector onto the given energy levels of a ``dim``-level system."""
    proj = np.zeros((dim, dim), dtype=complex)
    for level in levels:
        if not 0 <= level < dim:
            raise ValueError(f"level {level} outside of dimension {dim}")
        proj[level, level] = 1.0
    return proj


def basis_state(dim: int, level: int) -> np.ndarray:
    """Column vector for the Fock/energy eigenstate ``|level>``."""
    if not 0 <= level < dim:
        raise ValueError(f"level {level} outside of dimension {dim}")
    state = np.zeros(dim, dtype=complex)
    state[level] = 1.0
    return state


def embed_qubit_operator(op_2x2: np.ndarray, dim: int) -> np.ndarray:
    """Embed a 2x2 qubit operator into the {|0>, |1>} subspace of ``dim`` levels.

    The remaining levels are acted on as identity, so a target gate defined
    on the computational subspace can be compared with a multi-level
    propagator.
    """
    op_2x2 = np.asarray(op_2x2, dtype=complex)
    if op_2x2.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op_2x2.shape}")
    full = np.eye(dim, dtype=complex)
    full[:2, :2] = op_2x2
    return full


def is_unitary(op: np.ndarray, atol: float = 1e-9) -> bool:
    """Return True if ``op`` is unitary within absolute tolerance ``atol``."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    ident = np.eye(op.shape[0], dtype=complex)
    return bool(np.allclose(op.conj().T @ op, ident, atol=atol))


def is_hermitian(op: np.ndarray, atol: float = 1e-9) -> bool:
    """Return True if ``op`` is Hermitian within absolute tolerance ``atol``."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    return bool(np.allclose(op, op.conj().T, atol=atol))


def dagger(op: np.ndarray) -> np.ndarray:
    """Hermitian conjugate."""
    return np.asarray(op, dtype=complex).conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator ``[a, b] = a b - b a``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return a @ b - b @ a


def are_coupled(coupling, a: int, b: int) -> bool:
    """True if physical qubits ``a`` and ``b`` share a coupler of ``coupling``."""
    return b in coupling.neighbors(a)


def fuse_single_qubit_runs_reference(circuit: QuantumCircuit, tol: float = 1e-9) -> QuantumCircuit:
    """Single-qubit fusion with no memo: one product and one ZYZ per run.

    Each qubit's pending unitary starts at the identity and takes every gate
    of its run on the left (``gate_matrix(g) @ pending``); a two-qubit gate
    flushes its qubits, and the end flushes the rest in qubit order.  A run
    becomes ``rz(alpha + beta)`` when ``theta`` is 0, ``u3(theta, beta,
    alpha)`` otherwise, and nothing at all when it is the identity up to
    global phase.
    """
    out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    pending: Dict[int, np.ndarray] = {}

    def flush(qubit: int) -> None:
        if qubit not in pending:
            return
        alpha, theta, beta = zyz_angles(pending.pop(qubit))
        if abs(theta) < tol:
            phase = alpha + beta
            if abs(math.remainder(phase, 2.0 * math.pi)) >= tol:
                out.append(Gate("rz", (qubit,), (phase,)))
        else:
            out.append(Gate("u3", (qubit,), (theta, beta, alpha)))

    for gate in circuit:
        if len(gate.qubits) == 1:
            qubit = gate.qubits[0]
            pending[qubit] = gate_matrix(gate) @ pending.get(qubit, np.eye(2, dtype=complex))
        else:
            for qubit in gate.qubits:
                flush(qubit)
            out.append(gate)
    for qubit in sorted(pending):
        flush(qubit)
    return out
