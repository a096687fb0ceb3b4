"""SU(2) rotation utilities: rotation gates, Euler decompositions, comparisons.

These helpers operate on 2x2 unitaries in the computational {|0>, |1>} basis
and are used pervasively by the DigiQ decomposition and calibration code:

* :func:`rx`, :func:`ry`, :func:`rz`, :func:`u3` build standard rotations;
* :func:`zyz_angles` performs the Z-Y-Z Euler decomposition that underlies the
  DigiQ_opt decomposition ``U = Rz(c) Ry(theta) Rz(a)``;
* :func:`global_phase_aligned` removes the global phase, giving the SU(2)
  representative.
"""

from __future__ import annotations

import cmath
import math
from typing import Tuple

import numpy as np


def rx(theta: float) -> np.ndarray:
    """Rotation by ``theta`` around the x axis of the Bloch sphere."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation by ``theta`` around the y axis of the Bloch sphere."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(phi: float) -> np.ndarray:
    """Rotation by ``phi`` around the z axis of the Bloch sphere."""
    return np.array(
        [[cmath.exp(-0.5j * phi), 0.0], [0.0, cmath.exp(0.5j * phi)]], dtype=complex
    )


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """The standard U3 gate, ``U3 = Rz(phi) Ry(theta) Rz(lam)`` up to phase.

    This matches the OpenQASM/Qiskit convention:
    ``U3(theta, phi, lam) = [[cos(t/2), -e^{i lam} sin(t/2)],
                             [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]]``.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def global_phase_aligned(unitary: np.ndarray) -> np.ndarray:
    """Return ``unitary`` rescaled to have determinant 1 (an SU(2) representative).

    The representative is further normalised so the first non-negligible
    diagonal element has non-negative real part, making the output canonical
    up to an overall sign ambiguity inherent to SU(2).
    """
    unitary = np.asarray(unitary, dtype=complex)
    det = np.linalg.det(unitary)
    if abs(det) < 1e-12:
        raise ValueError("matrix is singular, not a unitary")
    su2 = unitary / cmath.sqrt(det)
    # Fix the sign ambiguity deterministically.
    anchor = su2[0, 0] if abs(su2[0, 0]) > 1e-9 else su2[0, 1]
    if anchor.real < 0 or (abs(anchor.real) < 1e-12 and anchor.imag < 0):
        su2 = -su2
    return su2


def zyz_angles(unitary: np.ndarray) -> Tuple[float, float, float]:
    """Z-Y-Z Euler angles ``(alpha, theta, beta)`` with ``U ~ Rz(beta) Ry(theta) Rz(alpha)``.

    The decomposition is exact up to a global phase.  ``theta`` is returned in
    ``[0, pi]``; ``alpha`` and ``beta`` are returned in ``(-pi, pi]``.
    """
    su2 = global_phase_aligned(unitary)
    # su2 = [[ cos(t/2) e^{-i(a+b)/2}, -sin(t/2) e^{ i(a-b)/2}],
    #        [ sin(t/2) e^{-i(a-b)/2},  cos(t/2) e^{ i(a+b)/2}]]
    # with U = Rz(b) Ry(t) Rz(a).
    cos_half = abs(su2[0, 0])
    sin_half = abs(su2[1, 0])
    theta = 2.0 * math.atan2(sin_half, cos_half)

    if cos_half > 1e-9 and sin_half > 1e-9:
        sum_angle = -2.0 * cmath.phase(su2[0, 0])
        diff_angle = -2.0 * cmath.phase(su2[1, 0])
        alpha = (sum_angle + diff_angle) / 2.0
        beta = (sum_angle - diff_angle) / 2.0
    elif sin_half <= 1e-9:
        # Pure Z rotation: only alpha + beta is determined.
        alpha = -2.0 * cmath.phase(su2[0, 0])
        beta = 0.0
    else:
        # theta ~ pi: only alpha - beta is determined.
        alpha = -2.0 * cmath.phase(su2[1, 0])
        beta = 0.0

    return _wrap_angle(alpha), theta, _wrap_angle(beta)


def _wrap_angle(angle: float) -> float:
    """Wrap an angle into ``(-pi, pi]``."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi
