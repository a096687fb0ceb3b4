"""Transmon qubit models.

Two models are provided:

* :class:`Transmon` — a fixed-frequency Duffing-oscillator model truncated to a
  configurable number of levels (the paper uses six levels for single-qubit
  fidelity evaluation so that leakage is fully captured).
* :class:`AsymmetricTransmon` — a flux-tunable transmon built from two
  Josephson junctions with an asymmetry parameter.  The effective Josephson
  energy (and hence the qubit frequency) depends on the external flux, which
  is how the DigiQ two-qubit (CZ) gate is actuated: the SFQ/DC current
  generator drives a flux excursion that shifts the qubit frequency onto the
  |11> <-> |02> resonance.

Frequency conventions follow :mod:`repro.physics.constants`: plain frequencies
in GHz, times in ns, Hamiltonians expressed in angular units (rad/ns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import DEFAULT_ANHARMONICITY_GHZ, TWO_PI
from .operators import destroy


@dataclass(frozen=True)
class Transmon:
    """A fixed-frequency transmon modelled as a Duffing oscillator.

    Parameters
    ----------
    frequency:
        Qubit |0> -> |1> transition frequency in GHz.
    anharmonicity:
        Anharmonicity ``alpha = f12 - f01`` in GHz (negative for transmons).
    levels:
        Number of oscillator levels kept in the truncation.
    """

    frequency: float
    anharmonicity: float = DEFAULT_ANHARMONICITY_GHZ
    levels: int = 6

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        if self.levels < 2:
            raise ValueError(f"at least two levels are required, got {self.levels}")

    def level_frequencies(self) -> np.ndarray:
        """Energies of each level, expressed as frequencies in GHz.

        Level ``n`` sits at ``n * f01 + alpha * n(n-1)/2``.
        """
        n = np.arange(self.levels, dtype=float)
        return n * self.frequency + 0.5 * self.anharmonicity * n * (n - 1)

    def drive_operator(self) -> np.ndarray:
        """Charge-like drive operator ``-i (b - b†)`` coupling adjacent levels.

        An SFQ pulse deposits energy through the qubit's charge degree of
        freedom; in the Fock basis this corresponds (up to normalisation) to
        the ``y``-quadrature operator, which on the two-level subspace reduces
        to the Pauli-Y generator of the small per-pulse rotation.
        """
        b = destroy(self.levels)
        return -1j * (b - b.conj().T)

    def free_propagator(self, duration_ns: float) -> np.ndarray:
        """Free-evolution propagator ``exp(-i H t)`` for ``duration_ns`` ns."""
        phases = -TWO_PI * self.level_frequencies() * duration_ns
        return np.diag(np.exp(1j * phases)).astype(complex)


@dataclass(frozen=True)
class AsymmetricTransmon:
    """A flux-tunable asymmetric transmon.

    The two parallel Josephson junctions with energies ``ej1`` and ``ej2``
    give an effective Josephson energy that depends on the external flux
    ``phi`` (in units of the flux quantum):

    ``EJ(phi) = EJ_sum * |cos(pi phi)| * sqrt(1 + d^2 tan^2(pi phi))``

    where ``d = (ej1 - ej2) / (ej1 + ej2)`` is the junction asymmetry.  In the
    transmon limit the qubit frequency follows
    ``f01(phi) ~ sqrt(8 EC EJ(phi)) - EC`` [Koch et al., PRA 76, 042319].

    Parameters
    ----------
    ej_sum:
        Total Josephson energy ``ej1 + ej2`` expressed in GHz.
    ec:
        Charging energy in GHz.
    asymmetry:
        Junction asymmetry ``d`` in [0, 1).
    levels:
        Truncation used when building Duffing models at a given flux.
    """

    ej_sum: float
    ec: float
    asymmetry: float = 0.1
    levels: int = 6

    def __post_init__(self) -> None:
        if self.ej_sum <= 0 or self.ec <= 0:
            raise ValueError("ej_sum and ec must be positive")
        if not 0.0 <= self.asymmetry < 1.0:
            raise ValueError(f"asymmetry must be in [0, 1), got {self.asymmetry}")

    def effective_ej(self, flux: float) -> float:
        """Effective Josephson energy (GHz) at external flux ``flux`` (in Phi0)."""
        c = math.cos(math.pi * flux)
        s = math.sin(math.pi * flux)
        return self.ej_sum * math.sqrt(c * c + (self.asymmetry * s) ** 2)

    def frequency(self, flux: float = 0.0) -> float:
        """Qubit |0>-|1> frequency in GHz at the given external flux."""
        ej = self.effective_ej(flux)
        value = math.sqrt(8.0 * ej * self.ec) - self.ec
        if value <= 0:
            raise ValueError(
                f"flux {flux} drives the transmon frequency non-positive "
                f"(EJ={ej:.3f} GHz, EC={self.ec:.3f} GHz)"
            )
        return value

    def anharmonicity(self) -> float:
        """Transmon anharmonicity, approximately ``-EC`` in GHz."""
        return -self.ec

    def max_frequency(self) -> float:
        """Frequency at the flux sweet spot (zero flux)."""
        return self.frequency(0.0)

    @staticmethod
    def from_frequency(
        frequency: float,
        anharmonicity: float = DEFAULT_ANHARMONICITY_GHZ,
        asymmetry: float = 0.1,
        levels: int = 6,
    ) -> "AsymmetricTransmon":
        """Construct an asymmetric transmon whose sweet-spot frequency is ``frequency``.

        The charging energy is set to ``-anharmonicity`` and the Josephson
        energy chosen such that ``frequency(0) == frequency``.
        """
        ec = abs(anharmonicity)
        if ec <= 0:
            raise ValueError("anharmonicity must be non-zero")
        ej_sum = (frequency + ec) ** 2 / (8.0 * ec)
        return AsymmetricTransmon(
            ej_sum=ej_sum, ec=ec, asymmetry=asymmetry, levels=levels
        )

    def with_ej_scale(self, scale: float) -> "AsymmetricTransmon":
        """A copy with the total Josephson energy scaled by ``scale``.

        Used by the variability model: a sigma = 0.2 % variation of each
        junction's Josephson energy is modelled as a scale factor applied to
        the total EJ, which shifts the sweet-spot frequency by roughly half
        the relative EJ change (about +-6 MHz at 5 GHz for 0.2 %).
        """
        if scale <= 0:
            raise ValueError(f"EJ scale must be positive, got {scale}")
        return replace(self, ej_sum=self.ej_sum * scale)


@dataclass(frozen=True)
class TransmonPairParameters:
    """Static parameters of a capacitively-coupled pair of transmons.

    Attributes
    ----------
    qubit_a, qubit_b:
        The two transmons.  ``qubit_b`` is the flux-tunable one whose
        frequency is excursed during the CZ gate.
    coupling:
        Capacitive (exchange) coupling strength in GHz.
    levels:
        Per-transmon truncation used in two-qubit simulations.
    """

    qubit_a: Transmon
    qubit_b: Transmon
    coupling: float = 0.010
    levels: int = 3

    def __post_init__(self) -> None:
        if self.coupling <= 0:
            raise ValueError(f"coupling must be positive, got {self.coupling}")
        if self.levels < 3:
            raise ValueError(
                "two-qubit simulations need at least 3 levels per transmon to "
                "capture the |11> <-> |02> interaction used by the CZ gate"
            )
