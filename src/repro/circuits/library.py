"""Standard gate library: names, arities, parameter counts, and matrices.

The library covers the gates produced by the benchmark generators and the
compiler: Paulis, Hadamard, phase gates, parameterised rotations, ``u3``, and
the common two- and three-qubit gates.  Matrices are built on demand by
:func:`gate_matrix` and use the little-endian qubit ordering convention
(qubit 0 is the least-significant bit of the computational basis index),
matching the behaviour of :mod:`repro.circuits.simulator`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..physics.rotations import rx, ry, rz, u3
from .gate import Gate


@dataclass(frozen=True)
class GateSpec:
    """Static description of a named gate."""

    name: str
    num_qubits: int
    num_params: int
    self_inverse: bool = False


_SPECS: Dict[str, GateSpec] = {
    spec.name: spec
    for spec in [
        GateSpec("id", 1, 0, self_inverse=True),
        GateSpec("x", 1, 0, self_inverse=True),
        GateSpec("y", 1, 0, self_inverse=True),
        GateSpec("z", 1, 0, self_inverse=True),
        GateSpec("h", 1, 0, self_inverse=True),
        GateSpec("s", 1, 0),
        GateSpec("sdg", 1, 0),
        GateSpec("t", 1, 0),
        GateSpec("tdg", 1, 0),
        GateSpec("sx", 1, 0),
        GateSpec("rx", 1, 1),
        GateSpec("ry", 1, 1),
        GateSpec("rz", 1, 1),
        GateSpec("p", 1, 1),
        GateSpec("u3", 1, 3),
        GateSpec("cx", 2, 0, self_inverse=True),
        GateSpec("cz", 2, 0, self_inverse=True),
        GateSpec("swap", 2, 0, self_inverse=True),
        GateSpec("iswap", 2, 0),
        GateSpec("rzz", 2, 1),
        GateSpec("cp", 2, 1),
        GateSpec("ccx", 3, 0, self_inverse=True),
        GateSpec("ccz", 3, 0, self_inverse=True),
    ]
}

#: Gate names understood by the library.
KNOWN_GATES = frozenset(_SPECS)

#: Basis the DigiQ compiler targets: arbitrary 1q rotations plus CZ.
DIGIQ_BASIS = frozenset({"u3", "rz", "cz"})


def gate_spec(name: str) -> GateSpec:
    """Look up the :class:`GateSpec` for a gate name (case-insensitive)."""
    try:
        return _SPECS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown gate '{name}'; known gates: {sorted(_SPECS)}") from None


def validate_gate(gate: Gate) -> None:
    """Raise ``ValueError`` if a gate is inconsistent with its library spec."""
    spec = gate_spec(gate.name)
    if gate.num_qubits != spec.num_qubits:
        raise ValueError(
            f"gate '{gate.name}' expects {spec.num_qubits} qubits, got {gate.num_qubits}"
        )
    if len(gate.params) != spec.num_params:
        raise ValueError(
            f"gate '{gate.name}' expects {spec.num_params} parameters, got {len(gate.params)}"
        )


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary matrix of a gate on its own qubits (little-endian ordering).

    Results are memoized per gate value and returned as read-only arrays —
    the compiler's fusion passes request the same small set of matrices
    thousands of times per compile.  Callers that need a mutable copy must
    ``.copy()`` it.
    """
    key = (gate.name, len(gate.qubits), gate.params)
    cached = _MATRIX_CACHE.get(key)
    if cached is not None:
        return cached
    matrix = _build_gate_matrix(gate)
    matrix.setflags(write=False)
    if len(_MATRIX_CACHE) >= _MATRIX_CACHE_MAX:
        _MATRIX_CACHE.clear()
    _MATRIX_CACHE[key] = matrix
    return matrix


_MATRIX_CACHE: Dict[tuple, np.ndarray] = {}
_MATRIX_CACHE_MAX = 4096


def _build_gate_matrix(gate: Gate) -> np.ndarray:
    validate_gate(gate)
    name, params = gate.name, gate.params
    if name == "id":
        return np.eye(2, dtype=complex)
    if name == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if name == "z":
        return np.diag([1, -1]).astype(complex)
    if name == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    if name == "s":
        return np.diag([1, 1j]).astype(complex)
    if name == "sdg":
        return np.diag([1, -1j]).astype(complex)
    if name == "t":
        return np.diag([1, cmath.exp(1j * math.pi / 4)]).astype(complex)
    if name == "tdg":
        return np.diag([1, cmath.exp(-1j * math.pi / 4)]).astype(complex)
    if name == "sx":
        return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
    if name == "rx":
        return rx(params[0])
    if name == "ry":
        return ry(params[0])
    if name == "rz":
        return rz(params[0])
    if name == "p":
        return np.diag([1, cmath.exp(1j * params[0])]).astype(complex)
    if name == "u3":
        return u3(*params)
    if name == "cx":
        # control = first operand = less significant qubit in little-endian kron order
        return np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
    if name == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if name == "swap":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    if name == "iswap":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    if name == "rzz":
        phase = cmath.exp(-0.5j * params[0])
        conj = cmath.exp(0.5j * params[0])
        return np.diag([phase, conj, conj, phase]).astype(complex)
    if name == "cp":
        return np.diag([1, 1, 1, cmath.exp(1j * params[0])]).astype(complex)
    if name == "ccx":
        mat = np.eye(8, dtype=complex)
        # controls are qubits 0 and 1 (basis index bits 0 and 1), target qubit 2.
        mat[[3, 7], :] = 0
        mat[3, 7] = 1
        mat[7, 3] = 1
        return mat
    if name == "ccz":
        mat = np.eye(8, dtype=complex)
        mat[7, 7] = -1
        return mat
    raise KeyError(f"no matrix builder for gate '{name}'")  # pragma: no cover


def inverse_gate(gate: Gate) -> Gate:
    """The inverse of a library gate, as another library gate."""
    spec = gate_spec(gate.name)
    if spec.self_inverse:
        return gate
    inverses: Dict[str, str] = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}
    if gate.name in inverses:
        return Gate(inverses[gate.name], gate.qubits)
    if gate.name in {"rx", "ry", "rz", "p", "rzz", "cp"}:
        return Gate(gate.name, gate.qubits, (-gate.params[0],))
    if gate.name == "u3":
        theta, phi, lam = gate.params
        return Gate("u3", gate.qubits, (-theta, -lam, -phi))
    if gate.name == "sx":
        return Gate("u3", gate.qubits, (-math.pi / 2.0, -math.pi / 2.0, math.pi / 2.0))
    if gate.name == "iswap":
        raise ValueError("iswap inverse is not in the library; decompose it first")
    raise ValueError(f"no inverse rule for gate '{gate.name}'")  # pragma: no cover
