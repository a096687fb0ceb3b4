"""Two-qubit physics: capacitively-coupled flux-tunable transmons and the CZ gate.

The DigiQ two-qubit gate works exactly like the flux-tunable-transmon CZ of
microwave-based systems (Sec. IV-A.3): an electrical current pulse — generated
*inside the fridge* by an array of SFQ/DC converters — threads flux through the
tunable transmon's SQUID loop, temporarily shifting its frequency so that the
|11> and |20> states are brought onto resonance.  Holding the excursion for
half a vacuum-Rabi period of the sqrt(2)*g coupling between those states
accumulates a conditional pi phase, i.e. a CZ up to single-qubit phases.

This module provides:

* :class:`TwoTransmonSystem` — the coupled-Duffing-oscillator Hamiltonian and
  piecewise-constant Schrödinger integration for time-dependent frequency
  trajectories (the ``Uqq`` of the paper);
* :data:`CZ_TARGET` / :func:`project_two_qubit` — comparison helpers;
* :class:`FluxPulseCalibration` — the mapping from a current waveform to a
  frequency trajectory, with the nominal design point chosen so the gate
  matches the paper's 60 ns CZ duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .constants import TWO_PI
from .operators import destroy, kron, number
from .transmon import TransmonPairParameters

#: The ideal CZ gate in the two-qubit computational basis (|00>,|01>,|10>,|11>).
CZ_TARGET = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def computational_indices(levels: int) -> Tuple[int, int, int, int]:
    """Indices of |00>, |01>, |10>, |11> within the two-transmon product basis."""
    return (0, 1, levels, levels + 1)


def project_two_qubit(propagator: np.ndarray, levels: int) -> np.ndarray:
    """Project a two-transmon propagator onto the 4-dimensional qubit subspace."""
    propagator = np.asarray(propagator, dtype=complex)
    expected = levels * levels
    if propagator.shape != (expected, expected):
        raise ValueError(
            f"propagator shape {propagator.shape} inconsistent with levels={levels}"
        )
    idx = np.asarray(computational_indices(levels))
    return propagator[np.ix_(idx, idx)]


class TwoTransmonSystem:
    """Hamiltonian model of two capacitively-coupled transmons.

    The tunable qubit is ``qubit_a`` (by convention the *higher-frequency*
    qubit, which is flux-excursed downward toward the |11> <-> |20> resonance
    during a CZ); ``qubit_b`` stays parked.
    """

    def __init__(self, pair: TransmonPairParameters):
        self.pair = pair
        self.levels = pair.levels
        dim = self.levels
        b = destroy(dim)
        n = number(dim)
        ident = np.eye(dim, dtype=complex)
        self._n_a = kron(n, ident)
        self._n_b = kron(ident, n)
        self._anh_a = kron(n @ (n - ident), ident)
        self._anh_b = kron(ident, n @ (n - ident))
        self._coupling_op = kron(b, b.conj().T) + kron(b.conj().T, b)

    @property
    def dimension(self) -> int:
        """Total Hilbert-space dimension ``levels ** 2``."""
        return self.levels * self.levels

    def hamiltonian(self, freq_a: Optional[float] = None, freq_b: Optional[float] = None) -> np.ndarray:
        """Hamiltonian (rad/ns) with the given instantaneous qubit frequencies."""
        fa = self.pair.qubit_a.frequency if freq_a is None else freq_a
        fb = self.pair.qubit_b.frequency if freq_b is None else freq_b
        alpha_a = self.pair.qubit_a.anharmonicity
        alpha_b = self.pair.qubit_b.anharmonicity
        g = self.pair.coupling
        ham = (
            fa * self._n_a
            + fb * self._n_b
            + 0.5 * alpha_a * self._anh_a
            + 0.5 * alpha_b * self._anh_b
            + g * self._coupling_op
        )
        return TWO_PI * ham

    def static_propagator(self, duration_ns: float, freq_a: Optional[float] = None,
                          freq_b: Optional[float] = None) -> np.ndarray:
        """Propagator for a constant Hamiltonian held for ``duration_ns``."""
        ham = self.hamiltonian(freq_a, freq_b)
        return _expm_hermitian(ham, duration_ns)

    def propagate_frequency_trajectory(
        self,
        freq_a_samples: Sequence[float],
        dt_ns: float,
        freq_b: Optional[float] = None,
    ) -> np.ndarray:
        """Piecewise-constant propagation of a tunable-qubit frequency trajectory.

        ``freq_a_samples[k]`` is the tunable qubit's frequency during the k-th
        time slice of width ``dt_ns``.  Consecutive slices whose frequency
        differs by less than 1 kHz are merged into a single matrix exponential
        (the plateau of the CZ pulse dominates the duration, so this merge is
        a large speed-up with no loss of accuracy).
        """
        samples = np.asarray(freq_a_samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("freq_a_samples must be a non-empty 1-D sequence")
        if dt_ns <= 0:
            raise ValueError("dt_ns must be positive")

        unitary = np.eye(self.dimension, dtype=complex)
        segment_freq = samples[0]
        segment_len = 0
        for freq in samples:
            if abs(freq - segment_freq) < 1e-6:
                segment_len += 1
                continue
            unitary = (
                self.static_propagator(segment_len * dt_ns, freq_a=segment_freq, freq_b=freq_b)
                @ unitary
            )
            segment_freq = freq
            segment_len = 1
        if segment_len:
            unitary = (
                self.static_propagator(segment_len * dt_ns, freq_a=segment_freq, freq_b=freq_b)
                @ unitary
            )
        return unitary

    def rotating_frame(self, duration_ns: float, freq_a: Optional[float] = None,
                       freq_b: Optional[float] = None) -> np.ndarray:
        """Frame operator ``exp(+i H_frame t)`` at the parked qubit frequencies.

        The frame is harmonic (no anharmonicity, no coupling): it removes the
        trivial phase accumulation of the parked qubits so that an idle pair
        maps approximately to the identity and a CZ excursion maps to a
        CZ-like unitary up to local Z phases (which software absorbs).
        """
        fa = self.pair.qubit_a.frequency if freq_a is None else freq_a
        fb = self.pair.qubit_b.frequency if freq_b is None else freq_b
        ham_frame = TWO_PI * (fa * self._n_a + fb * self._n_b)
        return _expm_hermitian(ham_frame, -duration_ns)  # exp(+i H t)

    # -- CZ resonance helpers ----------------------------------------------------

    def resonance_frequency_for_cz(self) -> float:
        """Tunable-qubit frequency bringing |11> and |20> onto resonance.

        With qubit a tunable and qubit b parked, the condition
        ``E(20) = E(11)`` reads ``2 f_a + alpha_a = f_a + f_b``, i.e.
        ``f_a = f_b - alpha_a``.
        """
        return self.pair.qubit_b.frequency - self.pair.qubit_a.anharmonicity


@dataclass(frozen=True)
class FluxPulseCalibration:
    """Conversion from a current waveform to a tunable-qubit frequency trajectory.

    The current generated by the SFQ/DC array (see
    :mod:`repro.hardware.current_generator`) threads flux through the tunable
    transmon's SQUID loop.  For the purposes of the controller-level study the
    relevant quantity is the *frequency excursion per unit current*; we expose
    it directly as ``ghz_per_ma`` (:mod:`repro.core.two_qubit` calibrates it
    so that the plateau of a given waveform lands at a chosen detuning from
    the CZ resonance).

    Attributes
    ----------
    ghz_per_ma:
        Frequency shift (negative = downward) per mA of generator current.
    amplitude_scale:
        Multiplicative error of the current generator output (sigma = 1 % in
        the paper's variability model; 1.0 means nominal).
    """

    ghz_per_ma: float
    amplitude_scale: float = 1.0

    def frequency_trajectory(
        self, parked_frequency: float, current_samples_ma: Sequence[float]
    ) -> np.ndarray:
        """Tunable-qubit frequency during each sample of the current waveform."""
        currents = np.asarray(current_samples_ma, dtype=float) * self.amplitude_scale
        return parked_frequency + self.ghz_per_ma * currents


def simulate_uqq(
    system: TwoTransmonSystem,
    current_samples_ma: Sequence[float],
    dt_ns: float,
    calibration: FluxPulseCalibration,
    rotating_frame: bool = True,
) -> np.ndarray:
    """Simulate the two-qubit unitary produced by one current pulse (``Uqq``).

    Returns the full multi-level propagator (``levels**2`` square); project it
    with :func:`project_two_qubit` before comparing against :data:`CZ_TARGET`.
    """
    samples = np.asarray(current_samples_ma, dtype=float)
    trajectory = calibration.frequency_trajectory(system.pair.qubit_a.frequency, samples)
    unitary = system.propagate_frequency_trajectory(trajectory, dt_ns)
    if rotating_frame:
        duration = samples.size * dt_ns
        unitary = system.rotating_frame(duration) @ unitary
    return unitary


def embed_single_qubit_pair(
    gate_a: np.ndarray, gate_b: np.ndarray, levels: int
) -> np.ndarray:
    """Embed a pair of 2x2 single-qubit gates into the two-transmon space.

    Levels above |1> are acted on as identity; used when composing echo
    sequences of ``Uqq`` with interleaved single-qubit gates in the full
    multi-level space.
    """
    def embed(gate: np.ndarray) -> np.ndarray:
        full = np.eye(levels, dtype=complex)
        full[:2, :2] = np.asarray(gate, dtype=complex)
        return full

    return kron(embed(gate_a), embed(gate_b))


def _expm_hermitian(hamiltonian: np.ndarray, duration_ns: float) -> np.ndarray:
    """``exp(-i H t)`` for Hermitian ``H`` via eigendecomposition (fast, stable)."""
    if duration_ns == 0.0:
        return np.eye(hamiltonian.shape[0], dtype=complex)
    eigenvalues, eigenvectors = np.linalg.eigh(hamiltonian)
    phases = np.exp(-1j * eigenvalues * duration_ns)
    return (eigenvectors * phases) @ eigenvectors.conj().T
