"""Gate fidelity measures.

The paper reports gate errors as ``epsilon = 1 - F`` where ``F`` is the
*average gate fidelity* [Nielsen, Phys. Lett. A 303, 249 (2002)].  For a
(possibly non-unitary) linear map ``M`` obtained by projecting a multi-level
propagator onto the computational subspace, and a target unitary ``U`` of
dimension ``d``:

``F_avg = ( |tr(U† M)|^2 + tr(M† M) ) / ( d (d + 1) )``

The trace-preservation deficit of ``M`` (leakage out of the computational
subspace) automatically reduces both terms, so leakage is counted as error —
this matches the treatment referenced by the paper [Ghosh, arXiv:1111.2478].
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .operators import project_to_qubit


def average_gate_fidelity(actual: np.ndarray, target: np.ndarray) -> float:
    """Average gate fidelity between an actual map and a target unitary.

    ``actual`` may be non-unitary (e.g. a leakage-projected propagator); it
    must have the same dimension as ``target``.
    """
    actual = np.asarray(actual, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if actual.shape != target.shape or actual.ndim != 2:
        raise ValueError(
            f"shape mismatch between actual {actual.shape} and target {target.shape}"
        )
    dim = actual.shape[0]
    overlap = np.trace(target.conj().T @ actual)
    trace_mm = np.real(np.trace(actual.conj().T @ actual))
    fidelity = (abs(overlap) ** 2 + trace_mm) / (dim * (dim + 1))
    return float(min(max(fidelity, 0.0), 1.0))


def average_gate_error(actual: np.ndarray, target: np.ndarray) -> float:
    """Gate error ``1 - F_avg`` (the paper's ``epsilon``)."""
    return 1.0 - average_gate_fidelity(actual, target)


def leakage_projected_fidelity(
    propagator: np.ndarray,
    target_qubit_unitary: np.ndarray,
    levels: Sequence[int] = (0, 1),
) -> float:
    """Fidelity of a multi-level propagator against a computational-subspace target.

    The propagator is projected onto the computational ``levels`` before the
    average gate fidelity is evaluated, so leakage appears as error.
    """
    projected = project_to_qubit(propagator, levels=levels)
    return average_gate_fidelity(projected, target_qubit_unitary)


def leakage_projected_error(
    propagator: np.ndarray,
    target_qubit_unitary: np.ndarray,
    levels: Sequence[int] = (0, 1),
) -> float:
    """Gate error of a multi-level propagator against a subspace target."""
    return 1.0 - leakage_projected_fidelity(propagator, target_qubit_unitary, levels)

