"""SFQ pulse-train driving of a transmon qubit.

An SFQ-based single-qubit gate is specified by a *bitstream*: one bit per SFQ
chip clock cycle (40 ps in DigiQ), where a ``1`` means an SFQ pulse is fired
into the qubit's drive line at that cycle and a ``0`` means the qubit evolves
freely.  Each SFQ pulse deposits a fixed quantum of energy through the qubit's
charge degree of freedom, producing a small *tip* rotation of angle
``delta_theta`` about the y axis of the (instantaneous) frame; pulses that
arrive in phase with the qubit's free precession therefore add up coherently
into a macroscopic rotation such as ``Ry(pi/2)`` (Fig. 2 of the paper).

:class:`SFQPulseModel` turns a bitstream into a multi-level unitary propagator
for a specific :class:`~repro.physics.transmon.Transmon`, capturing both the
intended rotation and the leakage into higher levels that the DigiQ
calibration procedures must contend with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .constants import DEFAULT_SFQ_CLOCK_PERIOD_NS, TWO_PI
from .transmon import Transmon


@dataclass(frozen=True)
class SFQPulseModel:
    """Propagates SFQ bitstreams on a multi-level transmon.

    Parameters
    ----------
    transmon:
        The driven transmon (its ``levels`` sets the simulation dimension).
    tip_angle:
        Rotation angle (radians) imparted on the |0>-|1> subspace by a single
        SFQ pulse.  Physically this is set by the coupling capacitance between
        the SFQ driver and the qubit; architecturally it fixes how many pulses
        a ``Ry(pi/2)`` needs and hence the single-qubit gate time.
    clock_period_ns:
        SFQ chip clock period (40 ps in DigiQ).
    """

    transmon: Transmon
    tip_angle: float = 0.025
    clock_period_ns: float = DEFAULT_SFQ_CLOCK_PERIOD_NS

    def __post_init__(self) -> None:
        if self.tip_angle <= 0 or self.tip_angle >= math.pi:
            raise ValueError(f"tip_angle must be in (0, pi), got {self.tip_angle}")
        if self.clock_period_ns <= 0:
            raise ValueError("clock_period_ns must be positive")

    # -- elementary propagators -------------------------------------------------

    def pulse_propagator(self) -> np.ndarray:
        """Instantaneous unitary kick applied by one SFQ pulse.

        The pulse couples through the charge quadrature ``-i (b - b†)``; on the
        computational subspace this is the Pauli-Y generator, so a single pulse
        is ``Ry(tip_angle)`` plus the multi-level corrections responsible for
        leakage.
        """
        generator = self.transmon.drive_operator()
        return expm(-0.5j * self.tip_angle * generator)

    def free_propagator(self, n_cycles: int = 1) -> np.ndarray:
        """Free-evolution propagator over ``n_cycles`` SFQ clock periods (lab frame)."""
        if n_cycles < 0:
            raise ValueError("n_cycles must be non-negative")
        return self.transmon.free_propagator(n_cycles * self.clock_period_ns)

    def frame_propagator(self, duration_ns: float, frame_frequency: Optional[float] = None) -> np.ndarray:
        """Rotating-frame transformation operator ``exp(+i H_frame t)``.

        The frame is harmonic at ``frame_frequency`` (default: the qubit's own
        |0>-|1> frequency), i.e. level ``n`` rotates at ``n * frame_frequency``.
        Gates are always *defined* in this frame: the free precession of the
        qubit is pure bookkeeping handled by the software Rz tracking.
        """
        freq = self.transmon.frequency if frame_frequency is None else frame_frequency
        n = np.arange(self.transmon.levels, dtype=float)
        phases = TWO_PI * freq * n * duration_ns
        return np.diag(np.exp(1j * phases)).astype(complex)

    # -- bitstream propagation --------------------------------------------------

    def propagate_bitstream(
        self,
        bits: Sequence[int],
        frame_frequency: Optional[float] = None,
        lab_frame: bool = False,
    ) -> np.ndarray:
        """Unitary implemented by a bitstream, in the qubit rotating frame.

        Each clock cycle applies the pulse kick (if the bit is 1) followed by
        free evolution for one clock period.  By default the result is
        transformed into the harmonic rotating frame at ``frame_frequency``
        (the qubit's own frequency if not given); pass ``lab_frame=True`` to
        get the raw lab-frame propagator instead.
        """
        bits = np.asarray(list(bits), dtype=int)
        if bits.ndim != 1:
            raise ValueError("bits must be a 1-D sequence")
        if bits.size and (bits.min() < 0 or bits.max() > 1):
            raise ValueError("bits must contain only 0s and 1s")

        kick = self.pulse_propagator()
        free = self.free_propagator(1)
        dim = self.transmon.levels
        unitary = np.eye(dim, dtype=complex)
        for bit in bits:
            if bit:
                unitary = kick @ unitary
            unitary = free @ unitary

        if lab_frame:
            return unitary
        duration = bits.size * self.clock_period_ns
        return self.frame_propagator(duration, frame_frequency) @ unitary


def coherent_bitstream(
    frequency_ghz: float,
    n_bits: int,
    clock_period_ns: float = DEFAULT_SFQ_CLOCK_PERIOD_NS,
    phase_window: float = 0.35,
    phase_offset: float = 0.0,
) -> np.ndarray:
    """Phase-coherent seed bitstream for a y-axis rotation.

    A pulse is scheduled at SFQ cycle ``k`` whenever the qubit's free-precession
    phase ``2 pi f k T_clk + phase_offset`` is within ``phase_window`` radians
    of a multiple of ``2 pi`` — i.e. whenever a pulse fired at that instant
    rotates the qubit about (approximately) the same rotating-frame y axis as
    the previous pulses.  This reproduces the "one pulse per qubit period"
    intuition of Fig. 2 while handling clock periods that do not divide the
    qubit period.

    The result is a good seed; :mod:`repro.core.bitstream` refines it with a
    local search against the full multi-level model.
    """
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    if phase_window <= 0 or phase_window >= math.pi:
        raise ValueError("phase_window must be in (0, pi)")
    cycles = np.arange(n_bits)
    phases = (TWO_PI * frequency_ghz * clock_period_ns * cycles + phase_offset) % TWO_PI
    distances = np.minimum(phases, TWO_PI - phases)
    return (distances <= phase_window).astype(int)
