"""SFQ bitstream search for the stored basis gates (Sec. IV-A.2, Sec. V-A step 1).

DigiQ stores a small number of SFQ bitstreams on chip; the central one is the
``Ry(pi/2)`` bitstream that, together with Rz-by-delay, gives DigiQ_opt its
continuous single-qubit gate set.  Following the paper (and [Li, McDermott,
Vavilov 2019]), a bitstream is found for the *nominal* parking frequency of a
group once, at design/calibration time, and is then shared by every qubit of
the group; per-qubit drift is handled downstream by the software calibration.

The search here has two stages:

1. a phase-coherent seed (:func:`repro.physics.sfq_pulse.coherent_bitstream`)
   that fires pulses whenever the qubit's free-precession phase re-aligns
   with the pulse axis, with the per-pulse tip angle chosen so the seed
   accumulates the target rotation within the target gate time;
2. a greedy bit-flip hill climb evaluated against the full six-level transmon
   model, which trims leakage and rotation-angle error.

The result is an :class:`SFQBitstream` carrying the bit pattern and the
design-point metadata; its :meth:`SFQBitstream.unitary` method propagates it
on an arbitrary (e.g. drifted) transmon, which is what the calibration layer
uses to obtain each qubit's *actual* basis operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ..physics.constants import DEFAULT_SFQ_CLOCK_PERIOD_NS
from ..physics.fidelity import leakage_projected_error
from ..physics.operators import project_to_qubit
from ..physics.rotations import ry
from ..physics.sfq_pulse import SFQPulseModel, coherent_bitstream
from ..physics.transmon import Transmon
from .architecture import single_qubit_gate_time_ns


@dataclass(frozen=True)
class SFQBitstream:
    """A stored SFQ bitstream and the design point it was optimised for.

    Attributes
    ----------
    bits:
        The bit pattern (one bit per SFQ clock cycle, 1 = fire a pulse).
    design_frequency:
        Nominal qubit frequency the bitstream was optimised for, in GHz.
    tip_angle:
        Per-pulse tip angle of the SFQ drive, in radians.
    clock_period_ns:
        SFQ chip clock period, in ns.
    target_name:
        Name of the target gate (e.g. ``"ry_half_pi"``).
    design_error:
        Gate error achieved at the design frequency (leakage included).
    """

    bits: Tuple[int, ...]
    design_frequency: float
    tip_angle: float
    clock_period_ns: float
    target_name: str
    design_error: float

    @property
    def num_bits(self) -> int:
        """Number of SFQ clock cycles spanned by the bitstream."""
        return len(self.bits)

    def pulse_model(self, transmon: Transmon) -> SFQPulseModel:
        """The pulse model used to propagate this bitstream on a transmon."""
        return SFQPulseModel(
            transmon, tip_angle=self.tip_angle, clock_period_ns=self.clock_period_ns
        )

    def unitary(self, transmon: Optional[Transmon] = None, levels: int = 6) -> np.ndarray:
        """Multi-level propagator of the bitstream on a (possibly drifted) transmon.

        With no argument the design-frequency transmon is used.  The result is
        expressed in the rotating frame of the *given* transmon's frequency,
        which is the frame the software calibration works in.
        """
        if transmon is None:
            transmon = Transmon(frequency=self.design_frequency, levels=levels)
        return self.pulse_model(transmon).propagate_bitstream(self.bits)

    def qubit_unitary(self, transmon: Optional[Transmon] = None, levels: int = 6) -> np.ndarray:
        """The 2x2 computational-subspace block of :meth:`unitary` (non-unitary if leaking)."""
        return project_to_qubit(self.unitary(transmon, levels=levels))


def _bitstream_error(
    bits: Sequence[int], model: SFQPulseModel, target: np.ndarray
) -> float:
    """Leakage-projected error of a bit pattern against a 2x2 target."""
    return leakage_projected_error(model.propagate_bitstream(bits), target)


def _tune_tip_angle(
    bits: Sequence[int],
    transmon: Transmon,
    target: np.ndarray,
    clock_period_ns: float,
    center: Optional[float] = None,
    span: float = 0.5,
    points: int = 41,
) -> Tuple[float, float]:
    """Scan the per-pulse tip angle around ``center`` and return (tip, error).

    The tip angle is a continuous hardware design parameter (set by the
    coupling capacitance between the SFQ driver and the qubit), so tuning it
    at design time is legitimate and removes the rotation-angle quantisation
    error of a fixed pulse count.
    """
    num_pulses = int(sum(bits))
    if num_pulses == 0:
        return 0.01, 1.0
    center = center if center is not None else math.pi / 2.0 / num_pulses
    best_error, best_tip = float("inf"), center
    for scale in np.linspace(1.0 - span, 1.0 + span, points):
        tip = center * float(scale)
        if not 0.0 < tip < math.pi:
            continue
        model = SFQPulseModel(transmon, tip_angle=tip, clock_period_ns=clock_period_ns)
        error = _bitstream_error(bits, model, target)
        if error < best_error:
            best_error, best_tip = error, tip
    return best_tip, best_error


def find_ry_half_pi_bitstream(
    frequency_ghz: float,
    anharmonicity_ghz: float = -0.250,
    levels: int = 6,
    gate_time_ns: Optional[float] = None,
    clock_period_ns: float = DEFAULT_SFQ_CLOCK_PERIOD_NS,
    phase_window: float = 1.0,
    refine_passes: int = 4,
    error_target: float = 1e-4,
) -> SFQBitstream:
    """Find an SFQ bitstream implementing ``Ry(pi/2)`` at a nominal frequency.

    The search alternates greedy bit-flip passes (which shave leakage and
    axis error against the six-level model) with a fine tuning of the
    per-pulse tip angle (which zeroes the net rotation-angle error).

    Parameters
    ----------
    frequency_ghz:
        Nominal (parking) frequency of the qubits that will share the
        bitstream.
    gate_time_ns:
        Target bitstream duration; defaults to the paper's per-frequency gate
        time (10.12 ns at 6.21286 GHz, 9.00 ns at 4.14238 GHz).
    phase_window:
        Phase-coherence window of the seed construction (radians).
    refine_passes:
        Number of greedy bit-flip passes over the pattern; each pass flips any
        bit whose flip lowers the six-level gate error.
    error_target:
        The refinement stops early once the error falls below this target.
    """
    if gate_time_ns is None:
        gate_time_ns = single_qubit_gate_time_ns(frequency_ghz)
    n_bits = max(4, int(round(gate_time_ns / clock_period_ns)))
    transmon = Transmon(
        frequency=frequency_ghz, anharmonicity=anharmonicity_ghz, levels=levels
    )
    target = ry(math.pi / 2.0)

    bits = list(
        coherent_bitstream(
            frequency_ghz, n_bits, clock_period_ns=clock_period_ns, phase_window=phase_window
        )
    )
    tip_angle, error = _tune_tip_angle(bits, transmon, target, clock_period_ns)

    for _ in range(max(0, refine_passes)):
        if error <= error_target:
            break
        model = SFQPulseModel(
            transmon, tip_angle=tip_angle, clock_period_ns=clock_period_ns
        )
        improved = False
        for index in range(n_bits):
            bits[index] ^= 1
            trial_error = _bitstream_error(bits, model, target)
            if trial_error < error:
                error = trial_error
                improved = True
            else:
                bits[index] ^= 1
        tip_angle, error = _tune_tip_angle(
            bits, transmon, target, clock_period_ns, center=tip_angle, span=0.1
        )
        if not improved:
            break

    return SFQBitstream(
        bits=tuple(int(b) for b in bits),
        design_frequency=frequency_ghz,
        tip_angle=tip_angle,
        clock_period_ns=clock_period_ns,
        target_name="ry_half_pi",
        design_error=error,
    )


def find_rz_bitstream(
    frequency_ghz: float,
    angle: float,
    clock_period_ns: float = DEFAULT_SFQ_CLOCK_PERIOD_NS,
    max_cycles: int = 256,
    phase_tolerance: float = 0.02,
) -> SFQBitstream:
    """A pulse-free bitstream implementing ``Rz(angle)`` by timed free evolution.

    Used by DigiQ_min, whose discrete gate set pairs the Ry(pi/2) bitstream
    with a Z rotation (e.g. the T gate) realised as a fixed idle interval.
    The *shortest* idle interval whose accumulated precession phase at the
    design frequency lands within ``phase_tolerance`` of ``angle`` is chosen
    (falling back to the best phase within ``max_cycles`` if none qualifies):
    short idles keep the gate robust to frequency drift, since the drifted
    phase error grows as ``2 pi * drift * duration``.  On a drifted qubit the
    same idle interval produces a different rotation, which is exactly the
    calibration challenge of Sec. V-A.
    """
    if max_cycles < 1:
        raise ValueError("max_cycles must be >= 1")
    if phase_tolerance <= 0:
        raise ValueError("phase_tolerance must be positive")
    target = float(angle) % (2.0 * math.pi)
    best_cycles, best_distance = 1, float("inf")
    for cycles in range(1, max_cycles + 1):
        phase = (-2.0 * math.pi * frequency_ghz * cycles * clock_period_ns) % (2.0 * math.pi)
        distance = abs(phase - target)
        distance = min(distance, 2.0 * math.pi - distance)
        if distance < best_distance:
            best_cycles, best_distance = cycles, distance
        if distance <= phase_tolerance:
            best_cycles, best_distance = cycles, distance
            break
    return SFQBitstream(
        bits=tuple([0] * best_cycles),
        design_frequency=frequency_ghz,
        tip_angle=0.0125,  # unused by a pulse-free stream; kept for model building
        clock_period_ns=clock_period_ns,
        target_name=f"rz_{angle:.4f}",
        design_error=(2.0 / 3.0) * math.sin(0.5 * best_distance) ** 2,
    )


@lru_cache(maxsize=64)
def cached_ry_half_pi_bitstream(
    frequency_ghz: float,
    anharmonicity_ghz: float = -0.250,
    levels: int = 6,
    clock_period_ns: float = DEFAULT_SFQ_CLOCK_PERIOD_NS,
) -> SFQBitstream:
    """Cached :func:`find_ry_half_pi_bitstream` keyed by the design point.

    The bitstream search is run once per parking frequency (the paper does
    the same: bitstreams are fixed at design time), so experiment drivers
    that sweep many qubits share this cache.
    """
    return find_ry_half_pi_bitstream(
        frequency_ghz,
        anharmonicity_ghz=anharmonicity_ghz,
        levels=levels,
        clock_period_ns=clock_period_ns,
    )
