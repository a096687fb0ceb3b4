"""Small statevector simulator used for functional verification.

This simulator is deliberately simple: dense statevector, little-endian
ordering (qubit 0 is the least-significant basis-index bit), no noise.  It is
used by the test suite to check that benchmark generators and compiler passes
preserve circuit semantics on small instances, and by the examples to show
end-to-end correctness of compiled circuits.

Statevectors may carry arbitrary leading *batch* axes: a ``(B, 2**n)`` array
is ``B`` independent trajectories advanced in lockstep by one vectorized
matrix application per gate.  :mod:`repro.simulation` relies on this to run
Monte-Carlo noise trajectories at a fraction of the cost of ``B`` sequential
:func:`simulate` calls.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .circuit import QuantumCircuit
from .gate import Gate
from .library import gate_matrix


def zero_state(num_qubits: int) -> np.ndarray:
    """The all-zeros computational basis state."""
    if num_qubits < 1:
        raise ValueError(f"a circuit needs at least one qubit, got {num_qubits}")
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


@lru_cache(maxsize=4096)
def _apply_plan(
    targets: Tuple[int, ...], num_qubits: int
) -> Tuple[Tuple[int, ...], Tuple[Tuple[object, ...], ...]]:
    """Cached reshape/slice plan for applying a ``len(targets)``-qubit matrix.

    The plan is independent of the matrix values and of the batch size (the
    leading ``-1`` reshape extent absorbs any batch axes), so the trajectory
    hot loop — which applies the same (targets, num_qubits) sites thousands
    of times — pays the Python-level shape arithmetic exactly once.

    Returns ``(shape, blocks)``: the interleaved view shape — qubit axes in
    descending qubit order (most significant first) separated by the
    untouched index ranges between them — and, per basis index, the strided
    slice of the view where each target qubit holds its basis bit.
    """
    k = len(targets)
    order = sorted(range(k), key=lambda j: targets[j], reverse=True)
    shape = [-1]
    previous = num_qubits
    for position in order:
        qubit = targets[position]
        shape.append(2 ** (previous - 1 - qubit))
        shape.append(2)
        previous = qubit
    shape.append(2**previous)
    axis_of_operand = {operand: 2 + 2 * slot for slot, operand in enumerate(order)}

    def block(basis: int) -> Tuple[object, ...]:
        index: list = [slice(None)] * len(shape)
        for operand in range(k):
            index[axis_of_operand[operand]] = (basis >> operand) & 1
        return tuple(index)

    return tuple(shape), tuple(block(basis) for basis in range(2**k))


@lru_cache(maxsize=64)
def _nonzero_terms(
    matrix_bytes: bytes, dim: int
) -> Tuple[Tuple[Tuple[int, np.complex128], ...], ...]:
    """Per row of a gate matrix, its ``(column, entry)`` pairs with nonzero
    entries, in column order; keyed by the matrix's exact bytes, as
    :func:`_matrix_strategy` is.

    The cache is small on purpose: the matrices that recur are the few fixed
    gates (``h``, ``cx``, ``cz``, ...), which stay in it, while fused
    rotation runs are mostly one-off and would only hold memory.
    """
    matrix = np.frombuffer(matrix_bytes, dtype=complex).reshape(dim, dim)
    return tuple(
        tuple(
            (column, matrix[row, column])
            for column in range(dim)
            if matrix[row, column] != 0
        )
        for row in range(dim)
    )


def apply_matrix(
    state: np.ndarray, matrix: np.ndarray, targets: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a ``2**k x 2**k`` unitary to ``targets`` of a (batched) statevector.

    ``state`` has shape ``(..., 2**num_qubits)``; any leading axes are batch
    dimensions and every batch entry is advanced by the same matrix in one
    vectorized contraction.  ``matrix`` uses little-endian ordering of
    ``targets`` (operand 0 is the least-significant bit), matching
    :func:`repro.circuits.library.gate_matrix`.

    The hot path avoids axis-transposition copies entirely: the flat vector
    is reshaped (free, because qubit axes stay in significance order) using a
    cached :func:`_apply_plan`, and each output slice is a linear combination
    of strided input slices.  Zero matrix entries are skipped (each matrix's
    nonzero entries are found once, by :func:`_nonzero_terms`), so
    permutation-like (``cx``) and diagonal (``cz``, ``rz``) gates touch only
    the amplitudes they move.
    """
    state = np.asarray(state, dtype=complex)
    matrix = np.asarray(matrix, dtype=complex)
    targets = tuple(int(q) for q in targets)
    k = len(targets)
    dim = 2**num_qubits
    if state.shape[-1:] != (dim,):
        raise ValueError(
            f"state has dimension {state.shape}, expected (..., {dim})"
        )
    if matrix.shape != (2**k, 2**k):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k} target qubits"
        )
    original_shape = state.shape
    shape, blocks = _apply_plan(targets, num_qubits)
    view = state.reshape(shape)
    inputs = [view[block] for block in blocks]
    result = np.empty_like(view)
    for row, terms in enumerate(_nonzero_terms(matrix.tobytes(), 2**k)):
        out_slice = result[blocks[row]]
        if not terms:
            out_slice[...] = 0.0
            continue
        column, coeff = terms[0]
        np.multiply(inputs[column], coeff, out=out_slice)
        for column, coeff in terms[1:]:
            out_slice += coeff * inputs[column]
    return result.reshape(original_shape)


#: Inner stride (``2**qubit`` amplitudes) at or above which a dense 2x2 is
#: applied as one batched matmul over ``(pairs, 2, stride)`` blocks instead
#: of the strided two-plane update: one fused read-compute-write pass over
#: the state beats the two-plane path's copy plus four axpy passes once the
#: inner blocks are long enough to stream (~1.3-2x measured).  Below it the
#: per-block gufunc overhead dominates and the two-plane update wins —
#: except at stride 1, where the amplitude pairs are already contiguous
#: ``(pairs, 2)`` rows and the update collapses to a single 2D BLAS matmul.
_DENSE1_MATMUL_MIN_STRIDE = 16


@lru_cache(maxsize=1024)
def _matrix_strategy(matrix_bytes: bytes, dim: int) -> Tuple[object, ...]:
    """Structural classification of a gate matrix, keyed by its exact bytes.

    ``("diag", coeffs)`` — diagonal (cz/rz/ccz/rzz phases); ``("perm", perm,
    coeffs)`` — generalized permutation, one nonzero per row and column (x,
    cx, ccx, swap, y); ``("dense1",)`` — dense single-qubit; ``("dense",)`` —
    anything else.  The classes with structure admit in-place application
    that touches only the amplitudes the gate actually moves, which is what
    :func:`apply_matrix_inplace` exploits on the trajectory hot path.

    The cache holds the distinct op matrices of about one circuit, which a
    run's lockstep groups look up once each.  Fused rotation runs rarely
    recur across circuits, so a larger cache mostly holds dead entries.
    """
    matrix = np.frombuffer(matrix_bytes, dtype=complex).reshape(dim, dim)
    nonzero = matrix != 0
    if not (nonzero & ~np.eye(dim, dtype=bool)).any():
        return ("diag", tuple(complex(c) for c in np.diag(matrix)))
    if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
        perm = tuple(int(np.nonzero(nonzero[row])[0][0]) for row in range(dim))
        coeffs = tuple(complex(matrix[row, perm[row]]) for row in range(dim))
        return ("perm", perm, coeffs)
    if dim == 2:
        return ("dense1",)
    return ("dense",)


def apply_matrix_inplace(
    state: np.ndarray, matrix: np.ndarray, targets: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a unitary, mutating ``state`` when its structure allows it.

    Returns the final array: ``state`` itself (mutated) on the fast paths,
    or a fresh array on the dense fallback and the low-stride dense1 matmul
    path — so callers must use the return value and may not rely on the
    input being preserved.  Results agree with :func:`apply_matrix` to within a rounding
    unit (the in-place update accumulates the two-term sums in a different
    order than the dense contraction); what changes is
    memory traffic: a diagonal gate multiplies only its non-unit blocks, a
    permutation gate rotates block cycles through one temporary, and a dense
    2x2 updates the two planes with one half-plane temporary, instead of
    every one of them rebuilding the full ``(..., 2**n)`` array.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if (
        state.dtype != np.complex128
        or not state.flags.c_contiguous
        or state.shape[-1:] != (2**num_qubits,)
    ):
        return apply_matrix(state, matrix, targets, num_qubits)
    targets = tuple(int(q) for q in targets)
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k} target qubits"
        )
    strategy = _matrix_strategy(matrix.tobytes(), 2**k)
    kind = strategy[0]
    if kind == "dense":
        return apply_matrix(state, matrix, targets, num_qubits)

    shape, blocks = _apply_plan(targets, num_qubits)
    view = state.reshape(shape)
    if kind == "diag":
        for block, coeff in zip(blocks, strategy[1]):
            if coeff != 1.0:
                view[block] *= coeff
        return state
    if kind == "perm":
        perm, coeffs = strategy[1], strategy[2]
        visited = [False] * len(perm)
        for start in range(len(perm)):
            if visited[start]:
                continue
            visited[start] = True
            if perm[start] == start:
                if coeffs[start] != 1.0:
                    view[blocks[start]] *= coeffs[start]
                continue
            # Rotate the cycle: out[row] = coeff[row] * in[perm[row]], walked
            # so every source is read before it is overwritten.
            held = view[blocks[start]].copy()
            row = start
            while perm[row] != start:
                source = perm[row]
                if coeffs[row] == 1.0:
                    np.copyto(view[blocks[row]], view[blocks[source]])
                else:
                    np.multiply(view[blocks[source]], coeffs[row], out=view[blocks[row]])
                row = source
                visited[row] = True
            if coeffs[row] == 1.0:
                np.copyto(view[blocks[row]], held)
            else:
                np.multiply(held, coeffs[row], out=view[blocks[row]])
        return state
    lower = 1 << targets[0]
    if lower == 1:
        # Qubit 0: amplitude pairs are contiguous, so the whole update is
        # one 2D ``(pairs, 2) @ matrix.T`` BLAS matmul.
        updated = state.reshape(-1, 2) @ np.ascontiguousarray(matrix.T)
        return updated.reshape(state.shape)
    if lower >= _DENSE1_MATMUL_MIN_STRIDE:
        updated = np.matmul(matrix, state.reshape(-1, 2, lower))
        return updated.reshape(state.shape)
    # dense1: new0 = m00*s0 + m01*s1, new1 = m10*s0 + m11*s1, via one
    # temporary copy of the |0> plane.
    plane0 = view[blocks[0]]
    plane1 = view[blocks[1]]
    held = plane0.copy()
    plane0 *= matrix[0, 0]
    plane0 += matrix[0, 1] * plane1
    plane1 *= matrix[1, 1]
    plane1 += matrix[1, 0] * held
    return state


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply one gate to a (batched) statevector and return the new statevector."""
    return apply_matrix(state, gate_matrix(gate), gate.qubits, num_qubits)


def simulate(circuit: QuantumCircuit, initial_state: Optional[np.ndarray] = None) -> np.ndarray:
    """Run a circuit on a statevector and return the final state.

    ``initial_state`` may carry leading batch axes (shape ``(..., 2**n)``);
    every batch entry is evolved through the circuit in one vectorized pass.
    """
    if circuit.num_qubits < 1:
        raise ValueError(f"a circuit needs at least one qubit, got {circuit.num_qubits}")
    if circuit.num_qubits > 24:
        raise ValueError(
            f"statevector simulation of {circuit.num_qubits} qubits is not supported; "
            "this simulator exists for functional verification of small circuits"
        )
    state = zero_state(circuit.num_qubits) if initial_state is None else (
        np.asarray(initial_state, dtype=complex).copy()
    )
    if state.shape[-1:] != (2**circuit.num_qubits,):
        raise ValueError(
            f"initial state has dimension {state.shape}, expected "
            f"(..., {2**circuit.num_qubits})"
        )
    for gate in circuit:
        state = apply_gate(state, gate, circuit.num_qubits)
    return state


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Full unitary of a (small) circuit, little-endian ordering."""
    if circuit.num_qubits > 10:
        raise ValueError("circuit_unitary supports at most 10 qubits")
    dim = 2**circuit.num_qubits
    # One batched pass over all basis columns at once: row b of the batch is
    # the evolution of basis state |b>, i.e. column b of the unitary.
    columns = simulate(circuit, initial_state=np.eye(dim, dtype=complex))
    return np.ascontiguousarray(columns.T)


def measure_probabilities(state: np.ndarray) -> np.ndarray:
    """Measurement probability of each computational basis state.

    Batched input of shape ``(..., 2**n)`` yields probabilities of the same
    shape, normalized independently per batch entry.
    """
    state = np.asarray(state, dtype=complex)
    probs = np.abs(state) ** 2
    total = probs.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("state has zero norm")
    return probs / total


def _register_width(probs: np.ndarray, caller: str) -> int:
    """Register width of a single statevector's probability array.

    Width is derived from the *last* axis only — ``probs.size`` would be
    wrong for any batched ``(B, 2**n)`` input (a flattened ``B * 2**n``
    entries is not a register) — and batch axes are rejected outright with a
    clear error instead of silently mis-sampling the flattened array.
    """
    if probs.ndim != 1:
        raise ValueError(
            f"{caller} expects a single statevector of shape (2**n,), got batched "
            f"shape {probs.shape}; call it per batch entry (e.g. state[i])"
        )
    dim = int(probs.shape[-1])
    width = dim.bit_length() - 1
    if dim < 2 or (1 << width) != dim:
        raise ValueError(
            f"{caller} needs a power-of-two state dimension >= 2, got {dim}"
        )
    return width


def sample_counts(state: np.ndarray, shots: int, seed: Optional[int] = None) -> Dict[str, int]:
    """Sample measurement outcomes; keys are bitstrings with qubit 0 rightmost.

    Only a single (unbatched) statevector is accepted; batched input raises
    ``ValueError``.  Tallying is a single vectorized ``np.unique`` pass, not
    an O(shots) Python loop, and returns exactly the counts the per-outcome
    loop would have produced for the same seed (keys sorted by outcome).
    """
    probs = measure_probabilities(state)
    num_qubits = _register_width(probs, "sample_counts")
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(probs.size, size=shots, p=probs)
    values, tallies = np.unique(outcomes, return_counts=True)
    return {
        format(int(value), f"0{num_qubits}b"): int(tally)
        for value, tally in zip(values, tallies)
    }


def dominant_bitstring(state: np.ndarray) -> str:
    """The most probable measurement outcome (qubit 0 rightmost).

    Only a single (unbatched) statevector is accepted; a batched ``(B, 2**n)``
    input raises ``ValueError`` instead of silently returning a wrong-width
    bitstring over the flattened array.
    """
    probs = measure_probabilities(state)
    num_qubits = _register_width(probs, "dominant_bitstring")
    return format(int(np.argmax(probs)), f"0{num_qubits}b")
