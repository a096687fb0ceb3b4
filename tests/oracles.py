"""Reference functions the tests check library results against.

Nothing in ``src/`` calls these, and ``tests/test_no_dead_code.py`` keeps it
that way: a ``src/`` definition that only tests use fails that check, so a
helper a test needs lives here.  They answer questions such as "is this
matrix unitary?", "which secret does this BV circuit encode?" or "what does
this compiled circuit do to the logical register?", independently of the
code under test, or they drive it the way a test needs (one moment's SIMD
cost, a plain ASAP layering).
"""

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.circuits.library import gate_matrix
from repro.circuits.simulator import simulate
from repro.compiler.layout import Layout
from repro.compiler.pipeline import CompiledCircuit
from repro.compiler.scheduling import Moment, Schedule
from repro.core import scheduler as simd
from repro.core.scheduler import MomentCost, SIMDScheduler, SIMDScheduleResult
from repro.physics.coupled import CZ_TARGET
from repro.physics.operators import PAULI_X, PAULI_Y, PAULI_Z, destroy, project_to_qubit
from repro.physics.rotations import _wrap_angle, zyz_angles


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


def cz_target() -> np.ndarray:
    """The ideal CZ unitary (4x4)."""
    return CZ_TARGET.copy()


def leakage(propagator: np.ndarray, levels: Sequence[int] = (0, 1)) -> float:
    """Average population leaked out of the computational subspace.

    Computed as ``1 - tr(M† M) / d`` where ``M`` is the projected propagator,
    i.e. the average over computational basis states of the probability of
    ending up outside the computational subspace.
    """
    projected = project_to_qubit(propagator, levels=levels)
    dim = projected.shape[0]
    survival = np.real(np.trace(projected.conj().T @ projected)) / dim
    return float(min(max(1.0 - survival, 0.0), 1.0))


def rotation(axis: Tuple[float, float, float], angle: float) -> np.ndarray:
    """Rotation by ``angle`` around an arbitrary (not necessarily unit) axis."""
    nx, ny, nz = axis
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if norm == 0.0:
        raise ValueError("rotation axis must be non-zero")
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    generator = nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z
    return (
        math.cos(angle / 2.0) * np.eye(2, dtype=complex)
        - 1j * math.sin(angle / 2.0) * generator
    )


def wrap_angle(angle: float) -> float:
    """The wrapper ``zyz_angles`` applies to its angles (range ``(-pi, pi]``)."""
    return _wrap_angle(angle)


def circular_distance(a: float, b: float, period: float = 2.0 * math.pi) -> float:
    """Smallest absolute distance between two angles on a circle of ``period``."""
    diff = math.fmod(a - b, period)
    if diff < 0:
        diff += period
    return min(diff, period - diff)


def su2_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Phase-insensitive operator distance between two single-qubit unitaries.

    Returns ``sqrt(1 - |tr(a† b)| / 2)`` which is zero iff the two unitaries
    are equal up to global phase and grows monotonically with gate infidelity.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = abs(np.trace(a.conj().T @ b)) / 2.0
    overlap = min(overlap, 1.0)
    return math.sqrt(max(0.0, 1.0 - overlap))


def equivalent_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    """True if two unitaries are equal up to a global phase within ``atol``."""
    return su2_distance(a, b) < atol


def bloch_vector(state: np.ndarray) -> np.ndarray:
    """Bloch vector (x, y, z) of a single-qubit pure state."""
    state = np.asarray(state, dtype=complex).reshape(2)
    norm = np.linalg.norm(state)
    if norm < 1e-12:
        raise ValueError("state vector must be non-zero")
    state = state / norm
    rho = np.outer(state, state.conj())
    return np.real(
        np.array(
            [
                np.trace(rho @ PAULI_X),
                np.trace(rho @ PAULI_Y),
                np.trace(rho @ PAULI_Z),
            ]
        )
    )


def create(dim: int) -> np.ndarray:
    """Creation (raising) operator on a ``dim``-level truncated oscillator."""
    return destroy(dim).conj().T


def bernstein_vazirani_secret(circuit: QuantumCircuit) -> str:
    """Recover the secret encoded in a BV circuit (for verification in tests)."""
    num_bits = circuit.num_qubits - 1
    secret = ["0"] * num_bits
    ancilla = num_bits
    for gate in circuit:
        if gate.name == "cx" and gate.qubits[1] == ancilla:
            secret[gate.qubits[0]] = "1"
    return "".join(reversed(secret))


def register_value(bitstring: str, register: Sequence[int]) -> int:
    """Decode a register's value from a measured bitstring (qubit 0 rightmost)."""
    num_qubits = len(bitstring)
    value = 0
    for position, qubit in enumerate(register):
        bit = bitstring[num_qubits - 1 - qubit]
        value |= int(bit) << position
    return value


def basis_state_index(bits: Sequence[int], num_qubits: Optional[int] = None) -> int:
    """Index of the basis state with the given per-qubit bits (qubit 0 first).

    When ``num_qubits`` is given, the bit list must describe exactly that
    register width; a mismatch raises ``ValueError`` instead of silently
    addressing a state of a differently-sized register.
    """
    bits = list(bits)
    if num_qubits is not None and len(bits) != num_qubits:
        raise ValueError(
            f"got {len(bits)} bits for a register of {num_qubits} qubits"
        )
    index = 0
    for position, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0/1, got {bit}")
        index |= bit << position
    return index


def asap_schedule(circuit: QuantumCircuit) -> Schedule:
    """Plain ASAP layering (no crosstalk constraint)."""
    moments: List[Moment] = []
    frontier = [0] * circuit.num_qubits
    for gate in circuit:
        level = max(frontier[q] for q in gate.qubits)
        while len(moments) <= level:
            moments.append(Moment())
        moments[level].gates.append(gate)
        for q in gate.qubits:
            frontier[q] = level + 1
    return Schedule(moments=moments, num_qubits=circuit.num_qubits)


def logical_unitary(compiled: CompiledCircuit, max_qubits: int = 12) -> np.ndarray:
    """The compiled circuit's action on the *logical* register.

    Simulates the physical circuit on every embedded logical basis state
    (via the initial layout) and reads the outcome back through the final
    layout, returning a ``2**n_logical`` square matrix.  Because routing
    only permutes tensor factors, physical qubits that hold no logical
    qubit stay in ``|0>`` and the extraction is exact.  This is what the
    equivalence tests compare across optimization levels (compilation
    preserves it up to global phase).
    """
    num_logical = compiled.source.num_qubits
    num_physical = compiled.coupling.num_qubits
    if num_physical > max_qubits:
        raise ValueError(
            f"logical_unitary simulates all {num_physical} physical qubits; "
            f"refusing beyond {max_qubits}"
        )
    dim_logical = 2**num_logical

    def embed(basis_index: int, layout: Layout) -> int:
        physical_index = 0
        for logical in range(num_logical):
            if (basis_index >> logical) & 1:
                physical_index |= 1 << layout.physical(logical)
        return physical_index

    batch = np.zeros((dim_logical, 2**num_physical), dtype=complex)
    for basis_index in range(dim_logical):
        batch[basis_index, embed(basis_index, compiled.initial_layout)] = 1.0
    evolved = simulate(compiled.physical_circuit, initial_state=batch)

    unitary = np.empty((dim_logical, dim_logical), dtype=complex)
    for out_index in range(dim_logical):
        unitary[out_index, :] = evolved[:, embed(out_index, compiled.final_layout)]
    return unitary


def schedule_moments(
    scheduler: SIMDScheduler, schedule: Schedule, num_qubits: int
) -> SIMDScheduleResult:
    """``scheduler``'s cost of an explicit moment list, as it costs a compiled circuit.

    The same moment profile and costing as :meth:`SIMDScheduler.schedule`,
    without the per-compiled-circuit profile memo.  The profile comes from
    the module attribute, so a test that wraps it sees every build.
    """
    profile = simd.moment_profile(schedule, scheduler.config.groups, num_qubits)
    return scheduler._schedule_profile(profile, schedule, num_qubits)


def moment_cost(
    scheduler: SIMDScheduler, moment: Moment, index: int, num_qubits: int
) -> MomentCost:
    """Controller-cycle cost of one moment, as :func:`schedule_moments` costs it."""
    (cost,) = schedule_moments(scheduler, Schedule([moment], num_qubits), num_qubits).moments
    return replace(cost, index=index)


def power_in_flight(service) -> float:
    """Summed priced power of a ``QueueService``'s admitted jobs (watts)."""
    with service._lock:
        return sum(service._inflight.values())
