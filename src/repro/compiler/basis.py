"""Basis translation passes.

Two passes are provided:

* :func:`decompose_to_two_qubit_gates` — expands three-qubit gates (Toffoli,
  CCZ) into the standard CX/T network so the router only ever sees one- and
  two-qubit gates.
* :func:`rebase_to_cz_basis` — rewrites every remaining gate into the DigiQ
  hardware basis: arbitrary single-qubit ``u3`` rotations plus ``cz``
  (Sec. VI-B: "each circuit is then decomposed into CZ and single-qubit
  gates").  Runs of adjacent single-qubit gates on the same qubit are fused
  into a single ``u3`` so each circuit "moment" carries at most one
  single-qubit gate per qubit.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from .. import telemetry
from ..circuits.circuit import QuantumCircuit
from ..circuits.gate import Gate, fast_gate
from ..circuits.library import gate_matrix
from ..physics.rotations import zyz_angles

_EYE2 = np.eye(2, dtype=complex)
_EYE2.setflags(write=False)


#: Fused outcome of each single-qubit run seen so far, keyed by the run's
#: flat ``(name, params, name, params, ...)`` sequence: the ``(name, params)``
#: of the one gate the run fuses to, or ``()`` when the run is the identity
#: and is dropped.
#: At most :data:`RUN_MEMO_SIZE` entries, oldest first out; writes hold
#: :data:`_RUN_MEMO_LOCK` (``Session`` compiles on threads), reads take no
#: lock.  Keys compare params as floats, as ``gate_matrix``'s memo does.
RUN_MEMO_SIZE = 2048
_RUN_MEMO: Dict[tuple, tuple] = {}
_RUN_MEMO_LOCK = threading.Lock()


def decompose_to_two_qubit_gates(circuit: QuantumCircuit) -> QuantumCircuit:
    """Expand gates acting on three qubits into one- and two-qubit gates."""
    out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    for gate in circuit:
        if len(gate.qubits) <= 2:
            out._append_fast(gate)
        elif gate.name == "ccx":
            _append_toffoli(out, *gate.qubits)
        elif gate.name == "ccz":
            control_a, control_b, target = gate.qubits
            out.h(target)
            _append_toffoli(out, control_a, control_b, target)
            out.h(target)
        else:
            raise ValueError(f"no two-qubit decomposition rule for gate '{gate.name}'")
    return out


def _append_toffoli(circuit: QuantumCircuit, c0: int, c1: int, target: int) -> None:
    """Standard 6-CX Toffoli decomposition (operands pre-validated)."""
    append = circuit._append_fast
    append(fast_gate("h", (target,)))
    append(fast_gate("cx", (c1, target)))
    append(fast_gate("tdg", (target,)))
    append(fast_gate("cx", (c0, target)))
    append(fast_gate("t", (target,)))
    append(fast_gate("cx", (c1, target)))
    append(fast_gate("tdg", (target,)))
    append(fast_gate("cx", (c0, target)))
    append(fast_gate("t", (c1,)))
    append(fast_gate("t", (target,)))
    append(fast_gate("h", (target,)))
    append(fast_gate("cx", (c0, c1)))
    append(fast_gate("t", (c0,)))
    append(fast_gate("tdg", (c1,)))
    append(fast_gate("cx", (c0, c1)))


def rebase_to_cz_basis(circuit: QuantumCircuit, fuse: bool = True) -> QuantumCircuit:
    """Rewrite a (<=2-qubit-gate) circuit into the {u3, cz} basis.

    Two-qubit rules::

        cx(c, t)   ->  h(t) cz(c, t) h(t)
        swap(a, b) ->  3 alternated cx, each rebased
        rzz(th)    ->  cx(a, b) rz(th, b) cx(a, b), each cx rebased
        cp(th)     ->  rz(th/2, a) rz(th/2, b) + rzz(-th/2) identity, rebased

    If ``fuse`` is true, runs of single-qubit gates on the same qubit are
    collapsed into one ``u3``.
    """
    expanded = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    for gate in circuit:
        _rebase_gate(expanded, gate)
    if fuse:
        return fuse_single_qubit_runs(expanded)
    return expanded


def _emit_cx(out: QuantumCircuit, control: int, target: int) -> None:
    """Emit ``cx(control, target)`` in CZ form (``h cz h``), unchecked."""
    append = out._append_fast
    append(fast_gate("h", (target,)))
    append(fast_gate("cz", (control, target)))
    append(fast_gate("h", (target,)))


def _rebase_gate(out: QuantumCircuit, gate: Gate) -> None:
    # All emissions are unchecked: operands come from an already-validated
    # input gate and every rule produces library-valid {h, s, rz, cz} gates.
    if len(gate.qubits) == 1:
        out._append_fast(gate)
        return
    name = gate.name
    if name == "cz":
        out._append_fast(gate)
        return
    if name == "cx":
        control, target = gate.qubits
        _emit_cx(out, control, target)
        return
    if name == "swap":
        a, b = gate.qubits
        for control, target in ((a, b), (b, a), (a, b)):
            _emit_cx(out, control, target)
        return
    if name == "rzz":
        a, b = gate.qubits
        theta = gate.params[0]
        _emit_cx(out, a, b)
        out._append_fast(fast_gate("rz", (b,), (theta,)))
        _emit_cx(out, a, b)
        return
    if name == "cp":
        a, b = gate.qubits
        theta = gate.params[0]
        out._append_fast(fast_gate("rz", (a,), (theta / 2.0,)))
        _emit_cx(out, a, b)
        out._append_fast(fast_gate("rz", (b,), (-theta / 2.0,)))
        _emit_cx(out, a, b)
        out._append_fast(fast_gate("rz", (b,), (theta / 2.0,)))
        return
    if name == "iswap":
        a, b = gate.qubits
        # iswap = (S ⊗ S) . H_a . CX(a,b) . CX(b,a) . H_b, with each CX in CZ form.
        append = out._append_fast
        append(fast_gate("s", (a,)))
        append(fast_gate("s", (b,)))
        append(fast_gate("h", (a,)))
        append(fast_gate("h", (b,)))
        append(fast_gate("cz", (a, b)))
        append(fast_gate("h", (b,)))
        append(fast_gate("h", (a,)))
        append(fast_gate("cz", (b, a)))
        append(fast_gate("h", (a,)))
        append(fast_gate("h", (b,)))
        return
    raise ValueError(f"no CZ-basis rule for two-qubit gate '{gate.name}'")


def fuse_single_qubit_runs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Fuse consecutive single-qubit gates on each qubit into one ``u3``.

    Single-qubit gates that multiply to the identity (within tolerance) are
    dropped entirely.  Each run's outcome comes from :data:`_RUN_MEMO`, so
    a run of gates seen before costs no matrix product and no ZYZ.  One call
    observes its totals once each in the ``compile.fuse.memo.hit`` and
    ``.miss`` histograms: histograms, not counters, because the memo is per
    process, so a pooled sweep's split differs from a serial one's while
    the number of calls does not.
    """
    out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    append = out._gates.append
    # Each qubit's open run as its memo key's parts: name, params, name, ...
    runs: Dict[int, list] = {}
    get = runs.get
    pop = runs.pop
    memo_get = _RUN_MEMO.get
    runs_seen = misses = 0

    def flush(qubit: int) -> None:
        nonlocal runs_seen, misses
        run = pop(qubit, None)
        if run is None:
            return
        runs_seen += 1
        key = tuple(run)
        outcome = memo_get(key)
        if outcome is None:
            misses += 1
            outcome = _fuse_run(key)
        if outcome:
            append(fast_gate(outcome[0], (qubit,), outcome[1]))

    for gate in circuit:
        qubits = gate.qubits
        if len(qubits) == 1:
            run = get(qubits[0])
            if run is None:
                runs[qubits[0]] = [gate.name, gate.params]
            else:
                run += gate.name, gate.params
        else:
            for qubit in qubits:
                flush(qubit)
            append(gate)
    for qubit in sorted(runs):
        flush(qubit)
    if runs_seen:
        telemetry.histogram("compile.fuse.memo.hit").observe(runs_seen - misses)
        telemetry.histogram("compile.fuse.memo.miss").observe(misses)
    return out


def _fuse_run(key: tuple) -> tuple:
    """The fused ``(name, params)`` of the run ``key`` spells, ``()`` for the identity.

    Stores it in :data:`_RUN_MEMO`.
    """
    # The initial `@ _EYE2` looks redundant but is load-bearing: it
    # normalises -0.0 components exactly as the accumulated products do,
    # keeping zyz phases (and so fingerprints) bit-identical.
    matrix = _EYE2
    for position in range(0, len(key), 2):
        matrix = gate_matrix(fast_gate(key[position], (0,), key[position + 1])) @ matrix
    fused = u3_gate_from_matrix(matrix, 0)
    outcome = () if fused is None else (fused.name, fused.params)
    with _RUN_MEMO_LOCK:
        if key not in _RUN_MEMO and len(_RUN_MEMO) >= RUN_MEMO_SIZE:
            del _RUN_MEMO[next(iter(_RUN_MEMO))]
        _RUN_MEMO[key] = outcome
    return outcome


def u3_gate_from_matrix(matrix: np.ndarray, qubit: int, tol: float = 1e-9) -> Optional[Gate]:
    """Convert an accumulated 2x2 unitary into a ``u3`` (or ``rz``) gate.

    Returns None when the matrix is the identity up to global phase (nothing
    to emit).
    """
    return u3_gate_from_angles(zyz_angles(matrix), qubit, tol)


def u3_gate_from_angles(
    angles: Tuple[float, float, float], qubit: int, tol: float = 1e-9
) -> Optional[Gate]:
    """The ``u3`` (or ``rz``) gate with ZYZ ``angles``; None for the identity.

    Shared by the rebase-time fusion and the commutation-aware fusion pass
    of :mod:`repro.compiler.optimization`, which passes memoized angles.
    """
    alpha, theta, beta = angles
    if abs(theta) < tol:
        phase = alpha + beta
        if abs(math.remainder(phase, 2.0 * math.pi)) < tol:
            return None
        return fast_gate("rz", (qubit,), (phase,))
    # U3(theta, phi, lam) ~ Rz(phi) Ry(theta) Rz(lam) with phi=beta, lam=alpha.
    return fast_gate("u3", (qubit,), (theta, beta, alpha))


def count_basis_violations(circuit: QuantumCircuit, basis=("u3", "rz", "cz")) -> int:
    """Number of gates outside the given basis (0 means fully rebased)."""
    allowed = {name.lower() for name in basis}
    return sum(1 for gate in circuit if gate.name not in allowed)
