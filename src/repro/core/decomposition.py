"""Single-qubit gate decomposition onto the DigiQ basis operations (Sec. V-A).

DigiQ never applies a tailored pulse per qubit; instead every qubit of a SIMD
group shares the same stored bitstream(s), and software decomposes each
logical single-qubit gate into the *actual* operations those shared
bitstreams implement on that particular (drifted) qubit:

* **DigiQ_opt** — the available per-cycle operation is
  ``Ubs @ Rz(phi_d)`` where ``Ubs`` is the qubit's actual response to the
  shared Ry(pi/2) bitstream and ``phi_d`` is one of the ``N + 1`` delay
  phases.  A gate is decomposed as
  ``Rz(residual) · Ubs Rz(phi_{d_L}) · ... · Ubs Rz(phi_{d_1})`` with the
  trailing ``Rz(residual)`` absorbed into the next gate (a virtual Z).  The
  paper finds ``L <= 2`` sufficient for most gates and ``L = 3`` needed for
  near-pi rotations on drifted qubits.
* **DigiQ_min** — the available operations are a small discrete set of
  qubit-specific basis gates (the actual responses to the ``BS`` stored
  bitstreams); gates are decomposed as sequences of those operations up to a
  depth cap (28 in the paper), found here with a beam search.

All error figures are average gate errors with leakage counted as error,
matching Sec. V of the paper.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Dimension-2 denominator of the average-gate-fidelity formula: d*(d+1).
_FIDELITY_DENOM = 6.0


def _as_matrix_stack(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Stack a sequence of 2x2 matrices into an (n, 2, 2) complex array."""
    stack = np.asarray(matrices, dtype=complex)
    if stack.ndim == 2:
        stack = stack[None, :, :]
    if stack.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {stack.shape}")
    return stack


def optimal_virtual_rz(actual: np.ndarray, target: np.ndarray) -> Tuple[float, float]:
    """Best trailing virtual ``Rz(phi)`` and the resulting gate error.

    Finds ``phi`` minimising the average gate error of ``Rz(phi) @ actual``
    against ``target``; the optimum has a closed form because the overlap
    ``tr(target† Rz(phi) actual)`` is a sum of two phasors.

    Returns ``(phi, error)``.  ``actual`` may be non-unitary (leakage), in
    which case the lost norm shows up as error.
    """
    actual = np.asarray(actual, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if actual.shape != (2, 2) or target.shape != (2, 2):
        raise ValueError("optimal_virtual_rz expects 2x2 matrices")
    b = actual @ target.conj().T
    overlap = abs(b[0, 0]) + abs(b[1, 1])
    phi = cmath.phase(b[0, 0]) - cmath.phase(b[1, 1])
    trace_mm = float(np.real(np.trace(actual.conj().T @ actual)))
    fidelity = (overlap**2 + trace_mm) / _FIDELITY_DENOM
    return float(phi), float(1.0 - min(max(fidelity, 0.0), 1.0))


def gate_error(actual: np.ndarray, target: np.ndarray) -> float:
    """Average gate error of a (possibly non-unitary) 2x2 map against a target."""
    actual = np.asarray(actual, dtype=complex)
    target = np.asarray(target, dtype=complex)
    overlap = abs(np.trace(target.conj().T @ actual))
    trace_mm = float(np.real(np.trace(actual.conj().T @ actual)))
    fidelity = (overlap**2 + trace_mm) / _FIDELITY_DENOM
    return float(1.0 - min(max(fidelity, 0.0), 1.0))


# ---------------------------------------------------------------------------
# DigiQ_opt decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptDecomposition:
    """A DigiQ_opt single-qubit gate decomposition.

    Attributes
    ----------
    delays:
        Delay values (SFQ cycles), one per basis pulse, in application order.
        An empty tuple means the gate is a pure (virtual) Z rotation.
    residual_phase:
        Trailing virtual ``Rz`` angle to be absorbed into the next gate.
    error:
        Average gate error of the decomposition (leakage included).
    num_pulses:
        Number of ``Ubs`` basis pulses used (``len(delays)``).
    """

    delays: Tuple[int, ...]
    residual_phase: float
    error: float

    @property
    def num_pulses(self) -> int:
        """Number of basis pulses (controller cycles on this qubit)."""
        return len(self.delays)


class OptBasis:
    """Per-qubit DigiQ_opt basis: the actual ``Ubs`` and the reachable delay phases.

    Parameters
    ----------
    ubs:
        2x2 computational-subspace block of the qubit's actual response to
        the shared Ry(pi/2) bitstream (may be slightly non-unitary).
    phases:
        Array of reachable Rz angles; element ``d`` is the phase implemented
        by delaying the bitstream ``d`` SFQ cycles on *this* qubit.
    """

    def __init__(self, ubs: np.ndarray, phases: Sequence[float]):
        self.ubs = np.asarray(ubs, dtype=complex)
        if self.ubs.shape != (2, 2):
            raise ValueError("ubs must be a 2x2 matrix")
        self.phases = np.asarray(phases, dtype=float)
        if self.phases.ndim != 1 or self.phases.size < 2:
            raise ValueError("phases must be a 1-D array with at least two entries")
        # Pre-build the per-delay cycle operations M_d = Ubs @ Rz(phi_d).
        half = 0.5 * self.phases
        rz_stack = np.zeros((self.phases.size, 2, 2), dtype=complex)
        rz_stack[:, 0, 0] = np.exp(-1j * half)
        rz_stack[:, 1, 1] = np.exp(+1j * half)
        self.cycle_ops = np.einsum("ij,djk->dik", self.ubs, rz_stack)

    @property
    def num_delays(self) -> int:
        """Number of available delay values (``N + 1``)."""
        return int(self.phases.size)

    def sequence_unitary(self, delays: Sequence[int]) -> np.ndarray:
        """The 2x2 map implemented by a sequence of delays (without the virtual Rz)."""
        result = np.eye(2, dtype=complex)
        for delay in delays:
            result = self.cycle_ops[int(delay)] @ result
        return result


def _errors_with_virtual_rz(candidates: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Vectorised gate error (with optimal trailing Rz) of a stack of 2x2 maps."""
    b = np.einsum("nij,jk->nik", candidates, target.conj().T)
    overlap = np.abs(b[:, 0, 0]) + np.abs(b[:, 1, 1])
    trace_mm = np.real(np.einsum("nij,nij->n", candidates.conj(), candidates))
    fidelity = (overlap**2 + trace_mm) / _FIDELITY_DENOM
    return 1.0 - np.clip(fidelity, 0.0, 1.0)


def decompose_opt(
    target: np.ndarray,
    basis: OptBasis,
    max_pulses: int = 3,
    error_target: float = 1e-4,
    coordinate_descent_starts: int = 4,
    coordinate_descent_rounds: int = 6,
) -> OptDecomposition:
    """Decompose a single-qubit target gate onto a DigiQ_opt qubit basis.

    The search tries increasing pulse counts: zero pulses (pure virtual Rz),
    one pulse and two pulses are searched exhaustively over the delay values
    (vectorised); three pulses use multi-start coordinate descent over the
    three delays.  The first pulse count meeting ``error_target`` wins;
    otherwise the overall best decomposition is returned.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise ValueError("target must be a 2x2 matrix")
    if max_pulses < 0:
        raise ValueError("max_pulses must be non-negative")

    best: Optional[OptDecomposition] = None

    def consider(delays: Tuple[int, ...], matrix: np.ndarray) -> OptDecomposition:
        phi, error = optimal_virtual_rz(matrix, target)
        return OptDecomposition(delays=delays, residual_phase=phi, error=error)

    # 0 pulses: the gate is (approximately) a Z rotation absorbed virtually.
    best = consider((), np.eye(2, dtype=complex))
    if best.error <= error_target or max_pulses == 0:
        return best

    ops = basis.cycle_ops
    num_delays = basis.num_delays

    # 1 pulse: exhaustive.
    errors_1 = _errors_with_virtual_rz(ops, target)
    d1 = int(np.argmin(errors_1))
    candidate = consider((d1,), ops[d1])
    if candidate.error < best.error:
        best = candidate
    if best.error <= error_target or max_pulses == 1:
        return best

    # 2 pulses: exhaustive over all ordered pairs, vectorised.
    pair_products = np.einsum("aij,bjk->abik", ops, ops)  # ops[a] @ ops[b]
    flat = pair_products.reshape(-1, 2, 2)
    errors_2 = _errors_with_virtual_rz(flat, target)
    best_flat = int(np.argmin(errors_2))
    second, first = divmod(best_flat, num_delays)
    candidate = consider((first, second), flat[best_flat])
    if candidate.error < best.error:
        best = candidate
    if best.error <= error_target or max_pulses == 2:
        return best

    # 3 pulses: coordinate descent over (d1, d2, d3) from several starts.
    starts: List[Tuple[int, int, int]] = [(first, second, int(np.argmin(errors_1)))]
    stride = max(1, num_delays // (coordinate_descent_starts + 1))
    for k in range(1, coordinate_descent_starts):
        starts.append(
            (
                (first + k * stride) % num_delays,
                (second + 2 * k * stride) % num_delays,
                (k * stride) % num_delays,
            )
        )

    identity = np.eye(2, dtype=complex)
    for start in starts:
        delays = list(start)
        current_error = float("inf")
        for _ in range(coordinate_descent_rounds):
            improved = False
            for position in range(3):
                before = identity
                for d in delays[:position]:
                    before = ops[d] @ before
                after = identity
                for d in delays[position + 1 :]:
                    after = ops[d] @ after
                # candidates for this position: after @ ops[d] @ before for all d
                stacked = np.einsum("ij,djk,kl->dil", after, ops, before)
                errors = _errors_with_virtual_rz(stacked, target)
                best_d = int(np.argmin(errors))
                if errors[best_d] < current_error - 1e-15:
                    current_error = float(errors[best_d])
                    if delays[position] != best_d:
                        delays[position] = best_d
                        improved = True
            if not improved:
                break
        matrix = basis.sequence_unitary(delays)
        candidate = consider(tuple(delays), matrix)
        if candidate.error < best.error:
            best = candidate
        if best.error <= error_target:
            break
    return best


# ---------------------------------------------------------------------------
# DigiQ_min decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinDecomposition:
    """A DigiQ_min single-qubit gate decomposition.

    Attributes
    ----------
    gate_indices:
        Indices into the qubit's discrete basis gate set, in application order.
    error:
        Average gate error of the sequence against the target.
    """

    gate_indices: Tuple[int, ...]
    error: float

    @property
    def depth(self) -> int:
        """Sequence length (number of controller cycles on this qubit)."""
        return len(self.gate_indices)


class MinBasis:
    """Per-qubit DigiQ_min basis: the actual discrete gate set of one qubit."""

    def __init__(self, gates: Sequence[np.ndarray], names: Optional[Sequence[str]] = None):
        self.gates = _as_matrix_stack(gates)
        if names is not None and len(names) != self.gates.shape[0]:
            raise ValueError("names must match the number of gates")
        self.names = tuple(names) if names is not None else tuple(
            f"g{i}" for i in range(self.gates.shape[0])
        )

    @property
    def num_gates(self) -> int:
        """Size of the discrete gate set (the design's BS value)."""
        return int(self.gates.shape[0])

    def sequence_unitary(self, indices: Sequence[int]) -> np.ndarray:
        """The 2x2 map implemented by a gate-index sequence."""
        result = np.eye(2, dtype=complex)
        for index in indices:
            result = self.gates[int(index)] @ result
        return result


def decompose_min(
    target: np.ndarray,
    basis: MinBasis,
    max_depth: int = 28,
    error_target: float = 1e-4,
    beam_width: int = 128,
) -> MinDecomposition:
    """Decompose a single-qubit gate into a sequence of discrete basis gates.

    A beam search over gate sequences is used (the paper uses a brute-force
    search; a beam with duplicate-state pruning keeps the cost polynomial
    while exploring the same space).  The search stops as soon as the error
    target is met and otherwise returns the best sequence found within
    ``max_depth``.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise ValueError("target must be a 2x2 matrix")
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")

    identity = np.eye(2, dtype=complex)
    best = MinDecomposition(gate_indices=(), error=gate_error(identity, target))
    if best.error <= error_target or max_depth == 0:
        return best

    # Beam entries: (matrix, sequence).
    beam_matrices = identity[None, :, :]
    beam_sequences: List[Tuple[int, ...]] = [()]
    num_gates = basis.num_gates

    for _ in range(max_depth):
        # Expand every beam entry with every basis gate (vectorised).
        expanded = np.einsum("gij,bjk->bgik", basis.gates, beam_matrices)
        expanded = expanded.reshape(-1, 2, 2)
        overlap = np.abs(np.einsum("ij,nij->n", target.conj(), expanded))
        trace_mm = np.real(np.einsum("nij,nij->n", expanded.conj(), expanded))
        errors = 1.0 - np.clip((overlap**2 + trace_mm) / _FIDELITY_DENOM, 0.0, 1.0)

        # Keep the best candidates, pruning states whose (phase-stripped)
        # matrices coincide: duplicate prefixes only crowd out useful ones.
        order = np.argsort(errors)
        new_sequences: List[Tuple[int, ...]] = []
        kept_indices: List[int] = []
        seen_signatures: set = set()
        for flat_index in order:
            if len(kept_indices) >= beam_width:
                break
            matrix = expanded[flat_index]
            anchor = matrix[0, 0] if abs(matrix[0, 0]) > 1e-9 else matrix[0, 1]
            phase = anchor / abs(anchor) if abs(anchor) > 1e-12 else 1.0
            signature = tuple(np.round(matrix / phase, 6).ravel().view(float))
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            beam_index, gate_index = divmod(int(flat_index), num_gates)
            new_sequences.append(beam_sequences[beam_index] + (gate_index,))
            kept_indices.append(int(flat_index))
        beam_matrices = expanded[kept_indices]
        beam_sequences = new_sequences

        top_error = float(errors[kept_indices[0]])
        if top_error < best.error:
            best = MinDecomposition(gate_indices=beam_sequences[0], error=top_error)
        if best.error <= error_target:
            break
    return best
