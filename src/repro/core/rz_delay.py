"""Rz(phi) gates by free evolution (DigiQ_opt, Sec. IV-A.2 and Table II).

DigiQ_opt implements arbitrary Z rotations by delaying the stored Ry(pi/2)
bitstream by ``d`` SFQ clock cycles (0 <= d <= N): while the qubit idles, its
Bloch vector precesses relative to the fixed pulse pattern, so the delayed
bitstream acts about a rotated axis — equivalent to an ``Rz(phi_d)`` before
the Ry(pi/2), with ``phi_d = -2 pi f d T_clk (mod 2 pi)``.

The quality of this scheme depends on how well the ``N + 1`` reachable phases
cover the unit circle, which in turn depends on the qubit frequency ``f``
(through the fractional part of ``f * T_clk``).  This module provides:

* the reachable phase set;
* the worst-case Rz approximation error over all target angles;
* the drift-tolerance calculation that reproduces Table II of the paper at
  its parking frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..physics.constants import DEFAULT_SFQ_CLOCK_PERIOD_NS, TWO_PI

#: Default number of delay slots (the paper uses N = 255).
DEFAULT_DELAY_SLOTS = 255


def reachable_phases(
    frequency_ghz: float,
    n_slots: int = DEFAULT_DELAY_SLOTS,
    clock_period_ns: float = DEFAULT_SFQ_CLOCK_PERIOD_NS,
) -> np.ndarray:
    """The ``n_slots + 1`` Rz angles reachable by delays ``d = 0 .. n_slots``.

    Element ``d`` is the Rz angle ``(-2 pi f d T) mod 2 pi`` implemented by
    delaying the bitstream ``d`` SFQ cycles: the operation is
    ``Ry(pi/2) @ Rz(phase)``.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    if frequency_ghz <= 0:
        raise ValueError("frequency must be positive")
    delays = np.arange(n_slots + 1)
    phases = (-TWO_PI * frequency_ghz * clock_period_ns * delays) % TWO_PI
    return phases


def phase_error_to_gate_error(phase_error: float) -> float:
    """Average gate error of ``Rz(delta)`` compared with the identity.

    For a residual Z rotation of ``delta`` radians the average gate fidelity
    is ``(4 cos^2(delta/2) + 2) / 6``, so the error is
    ``(2/3) sin^2(delta/2)``, which is approximately ``delta^2 / 6`` for small
    angles.  With the ideal equally-spaced phase set of ``N = 255`` (worst
    residual ``pi / 256``), this evaluates to 2.5e-5, the paper's
    "error <= 0.25e-4" statement.
    """
    return (2.0 / 3.0) * math.sin(0.5 * phase_error) ** 2


def worst_case_phase_error(
    frequency_ghz: float,
    n_slots: int = DEFAULT_DELAY_SLOTS,
    clock_period_ns: float = DEFAULT_SFQ_CLOCK_PERIOD_NS,
) -> float:
    """Largest distance from any target angle to the nearest reachable phase.

    Equal to half the widest gap between adjacent reachable phases on the
    circle.
    """
    phases = np.sort(reachable_phases(frequency_ghz, n_slots, clock_period_ns))
    gaps = np.diff(phases)
    wrap_gap = TWO_PI - phases[-1] + phases[0]
    widest = max(float(gaps.max()) if gaps.size else 0.0, float(wrap_gap))
    return 0.5 * widest


def worst_case_rz_error(
    frequency_ghz: float,
    n_slots: int = DEFAULT_DELAY_SLOTS,
    clock_period_ns: float = DEFAULT_SFQ_CLOCK_PERIOD_NS,
) -> float:
    """Worst-case Rz approximation (gate) error at a qubit frequency."""
    return phase_error_to_gate_error(
        worst_case_phase_error(frequency_ghz, n_slots, clock_period_ns)
    )


@dataclass(frozen=True)
class ParkingFrequency:
    """One Table II row: a parking frequency and its drift tolerance.

    Attributes
    ----------
    frequency_ghz:
        The nominal parking frequency.
    drift_tolerance_ghz:
        Half-width of the frequency interval around the parking frequency in
        which the worst-case Rz error stays below the error threshold.
    worst_case_error:
        Worst-case Rz gate error exactly at the parking frequency.
    """

    frequency_ghz: float
    drift_tolerance_ghz: float
    worst_case_error: float

    def as_row(self) -> dict:
        """Table II row as a plain dict."""
        return {
            "parking_frequency_ghz": self.frequency_ghz,
            "drift_tolerance_ghz": self.drift_tolerance_ghz,
            "worst_case_rz_error": self.worst_case_error,
        }


def drift_tolerance(
    frequency_ghz: float,
    error_threshold: float = 1e-4,
    n_slots: int = DEFAULT_DELAY_SLOTS,
    clock_period_ns: float = DEFAULT_SFQ_CLOCK_PERIOD_NS,
    max_drift_ghz: float = 0.1,
    resolution_ghz: float = 1e-4,
) -> float:
    """Half-width of the drift interval keeping the worst-case Rz error below threshold.

    The compiler always recomputes delays from the *measured* frequency, so
    the relevant question (Table II) is how far the qubit can drift before
    even the best achievable phase coverage violates the error budget.  The
    tolerance is measured by stepping outward from the parking frequency in
    both directions until the threshold is crossed and returning the smaller
    of the two excursions.
    """
    if worst_case_rz_error(frequency_ghz, n_slots, clock_period_ns) > error_threshold:
        return 0.0

    def excursion(direction: float) -> float:
        drift = resolution_ghz
        while drift <= max_drift_ghz:
            freq = frequency_ghz + direction * drift
            if worst_case_rz_error(freq, n_slots, clock_period_ns) > error_threshold:
                return drift - resolution_ghz
            drift += resolution_ghz
        return max_drift_ghz

    return min(excursion(+1.0), excursion(-1.0))


def parking_frequency_table(
    frequencies: Optional[Sequence[float]] = None,
    error_threshold: float = 1e-4,
    n_slots: int = DEFAULT_DELAY_SLOTS,
    clock_period_ns: float = DEFAULT_SFQ_CLOCK_PERIOD_NS,
) -> List[ParkingFrequency]:
    """Drift tolerances for a given set of parking frequencies (Table II check).

    When ``frequencies`` is None the paper's Table II frequencies are used,
    so the result can be compared row by row against the published table.
    """
    from ..physics.constants import PAPER_PARKING_FREQUENCIES_GHZ

    frequencies = list(frequencies) if frequencies is not None else list(
        PAPER_PARKING_FREQUENCIES_GHZ
    )
    rows = []
    for freq in frequencies:
        rows.append(
            ParkingFrequency(
                frequency_ghz=freq,
                drift_tolerance_ghz=drift_tolerance(
                    freq,
                    error_threshold=error_threshold,
                    n_slots=n_slots,
                    clock_period_ns=clock_period_ns,
                ),
                worst_case_error=worst_case_rz_error(freq, n_slots, clock_period_ns),
            )
        )
    return rows
