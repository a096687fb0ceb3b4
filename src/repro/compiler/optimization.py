"""Optimization passes: gate cancellation and commutation-aware fusion.

These are the result-changing passes behind the ``-O1``/``-O2`` optimization
levels (:mod:`repro.compiler.pipeline`):

* :class:`CancelInverseGates` — removes adjacent inverse pairs (``h h``,
  ``cx cx``, ``cz cz``, ``t tdg``, ``u3 u3†``, ...) and merges adjacent
  same-axis rotations (``rz(a) rz(b) -> rz(a+b)``), dropping any that reach
  the identity.  "Adjacent" is dependency adjacency: two gates cancel when no
  intervening gate touches any of their qubits.
* :class:`CommutationAwareFusion` — single-qubit fusion that, unlike the
  plain rebase-time fusion, carries diagonal (Z-axis) rotations *through* CZ
  barriers: ``rz`` commutes with ``cz`` on either qubit, so the Z factor of a
  pending unitary (its ZYZ left factor) slides across the barrier and merges
  with single-qubit gates on the far side.

Both passes preserve the circuit's unitary up to global phase and never
introduce gates outside the input's gate set (the fusion pass emits only
``u3``/``rz``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gate import Gate, fast_gate
from ..circuits.library import gate_matrix, inverse_gate
from ..physics.rotations import rz as rz_matrix
from ..physics.rotations import zyz_angles
from .basis import _EYE2, u3_gate_from_angles
from .passes import PropertySet, TransformationPass

#: Two-qubit gates whose matrix is diagonal: Z-axis rotations commute with
#: them on either operand, which is what lets fusion cross these barriers.
DIAGONAL_TWO_QUBIT = frozenset({"cz", "rzz", "cp"})

#: Gates invariant under operand order (compared as sets when cancelling).
SYMMETRIC_GATES = frozenset({"cz", "swap", "rzz", "cp"})

#: Single-parameter rotation families whose adjacent members merge by angle
#: addition.  All are (+/-) identity at angle 0 mod 2*pi.
MERGEABLE_ROTATIONS = frozenset({"rx", "ry", "rz", "p", "rzz", "cp"})

_TOL = 1e-9


def zyz_angles_cached(matrix: np.ndarray) -> Tuple[float, float, float]:
    """Memoized :func:`~repro.physics.rotations.zyz_angles`.

    Keyed by the matrix's exact bytes, so identical accumulated unitaries
    (the common case — fusion re-derives the same products over and over)
    return bit-identical cached angles without re-entering LAPACK.
    """
    key = matrix.tobytes()
    hit = _ZYZ_CACHE.get(key)
    if hit is None:
        hit = zyz_angles(matrix)
        if len(_ZYZ_CACHE) >= _ZYZ_CACHE_MAX:
            _ZYZ_CACHE.clear()
        _ZYZ_CACHE[key] = hit
    return hit


_ZYZ_CACHE: Dict[bytes, Tuple[float, float, float]] = {}
_ZYZ_CACHE_MAX = 8192


def _same_operands(a: Gate, b: Gate) -> bool:
    if a.name in SYMMETRIC_GATES and b.name in SYMMETRIC_GATES:
        return set(a.qubits) == set(b.qubits)
    return a.qubits == b.qubits


def _is_inverse_pair(earlier: Gate, later: Gate) -> bool:
    """True if ``later`` undoes ``earlier`` (up to global phase)."""
    if not _same_operands(earlier, later):
        return False
    try:
        inverse = inverse_gate(earlier)
    except ValueError:
        return False
    if inverse.name != later.name:
        return False
    return all(
        abs(math.remainder(p - q, 2.0 * math.pi)) < _TOL
        for p, q in zip(inverse.params, later.params)
    )


#: Sentinel: the merged pair is (up to global phase) the identity — drop both.
_IDENTITY = object()


def _merge_rotations(earlier: Gate, later: Gate) -> Optional[object]:
    """Merged rotation if both gates are the same single-angle family.

    Returns the merged :class:`Gate`, the :data:`_IDENTITY` sentinel when the
    angles cancel (drop both gates), or None when the pair does not merge.
    """
    if earlier.name != later.name or earlier.name not in MERGEABLE_ROTATIONS:
        return None
    if not _same_operands(earlier, later):
        return None
    angle = earlier.params[0] + later.params[0]
    if abs(math.remainder(angle, 2.0 * math.pi)) < _TOL:
        return _IDENTITY
    return Gate(earlier.name, earlier.qubits, (angle,))


def cancel_inverse_gates(circuit: QuantumCircuit) -> QuantumCircuit:
    """Peephole cancellation of dependency-adjacent inverse pairs.

    Cascades: removing a pair can make an enclosing pair adjacent
    (``t cx cx tdg`` collapses completely).

    Returns the *input circuit object* unchanged when no pair fires, so
    callers (and :class:`~repro.compiler.passes.PassManager`) can detect the
    no-op by identity and skip downstream work.
    """
    gates: List[Optional[Gate]] = []
    history: Dict[int, List[int]] = {}  # qubit -> indices of live gates on it
    changed = False

    def remove(index: int) -> None:
        for qubit in gates[index].qubits:
            history[qubit].pop()
        gates[index] = None

    get_stack = history.get
    for gate in circuit:
        qubits = gate.qubits
        stack = get_stack(qubits[0])
        previous = stack[-1] if stack else None
        if previous is not None:
            earlier = gates[previous]
            # Dependency adjacency: every operand's latest live gate must be
            # this same one (the first operand's check is already done).
            if len(earlier.qubits) == len(qubits) and all(
                (other := get_stack(q)) and other[-1] == previous
                for q in qubits[1:]
            ):
                if _is_inverse_pair(earlier, gate):
                    remove(previous)
                    changed = True
                    continue
                merged = _merge_rotations(earlier, gate)
                if merged is _IDENTITY:
                    remove(previous)
                    changed = True
                    continue
                if merged is not None:
                    gates[previous] = merged
                    changed = True
                    continue
        index = len(gates)
        gates.append(gate)
        for qubit in qubits:
            stack = get_stack(qubit)
            if stack is None:
                history[qubit] = [index]
            else:
                stack.append(index)

    if not changed:
        return circuit
    out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    append = out._append_fast
    for gate in gates:
        if gate is not None:
            append(gate)
    return out


def commutation_aware_fusion(circuit: QuantumCircuit) -> QuantumCircuit:
    """Fuse single-qubit runs, sliding Z-rotations through diagonal barriers.

    Each qubit accumulates a pending 2x2 unitary.  At a diagonal two-qubit
    gate (``cz``/``rzz``/``cp``) the pending unitary is ZYZ-split: the
    non-diagonal part ``Ry(theta) Rz(alpha)`` is emitted before the barrier
    and the diagonal left factor ``Rz(beta)`` is carried across it, where it
    merges with whatever single-qubit gates follow.  Non-diagonal two-qubit
    gates flush pendings entirely.

    The carry is skipped on a qubit with no later single-qubit gates (the
    split would then *add* a gate instead of saving one).

    Returns the *input circuit object* unchanged when fusion changes
    nothing, so callers can detect the no-op by identity.
    """
    out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    append = out._append_fast
    pending: Dict[int, np.ndarray] = {}

    # Position of each qubit's last single-qubit gate: carrying a Z factor
    # past a barrier only pays off if something later can absorb it.
    last_single: Dict[int, int] = {}
    for position, gate in enumerate(circuit):
        if len(gate.qubits) == 1:
            last_single[gate.qubits[0]] = position

    def flush(qubit: int) -> None:
        matrix = pending.pop(qubit, None)
        if matrix is None:
            return
        emitted = u3_gate_from_angles(zyz_angles_cached(matrix), qubit)
        if emitted is not None:
            append(emitted)

    def carry_through(qubit: int) -> None:
        matrix = pending.get(qubit)
        if matrix is None:
            return
        alpha, theta, beta = zyz_angles_cached(matrix)
        if abs(theta) < _TOL:
            return  # fully diagonal: the whole pending commutes through
        # Emit the non-commuting part, carry the diagonal left factor.
        pending.pop(qubit)
        append(fast_gate("u3", (qubit,), (theta, 0.0, alpha)))
        if abs(math.remainder(beta, 2.0 * math.pi)) >= _TOL:
            pending[qubit] = rz_matrix(beta)

    for position, gate in enumerate(circuit):
        if len(gate.qubits) == 1:
            qubit = gate.qubits[0]
            # The initial `@ _EYE2` is load-bearing: it normalises -0.0
            # components exactly as accumulated products do, keeping zyz
            # phases (and so fingerprints) bit-identical.
            pending[qubit] = gate_matrix(gate) @ pending.get(qubit, _EYE2)
            continue
        if gate.name in DIAGONAL_TWO_QUBIT:
            for qubit in gate.qubits:
                if last_single.get(qubit, -1) > position:
                    carry_through(qubit)
                else:
                    flush(qubit)
        else:
            for qubit in gate.qubits:
                flush(qubit)
        append(gate)
    for qubit in sorted(pending):
        flush(qubit)
    if out._gates == circuit._gates:
        return circuit
    return out


class CancelInverseGates(TransformationPass):
    """Pass wrapper over :func:`cancel_inverse_gates`."""

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        return cancel_inverse_gates(circuit)


class CommutationAwareFusion(TransformationPass):
    """Pass wrapper over :func:`commutation_aware_fusion`."""

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        return commutation_aware_fusion(circuit)
