"""Qubit- and hardware-variability models used in the paper's evaluation.

Section VI-B of the paper models frequency variation by giving each qubit an
asymmetric-transmon Hamiltonian whose Josephson energies vary with a relative
standard deviation of 0.2 % (normal distribution), which at the Table II
parking frequencies corresponds to roughly ±6 MHz of |0>-|1> frequency
fluctuation.  Hardware variability of the CZ actuation is modelled by a 1 %
(sigma) multiplicative error on each current generator's output.

:class:`VariabilityModel` samples these quantities deterministically from a
seed so experiments are reproducible, and produces per-qubit
:class:`QubitSample` records consumed by the calibration and error analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..physics.constants import DEFAULT_ANHARMONICITY_GHZ
from ..physics.transmon import AsymmetricTransmon, Transmon

#: Relative sigma of each qubit's Josephson-energy variation (paper: 0.2 %).
DEFAULT_EJ_SIGMA = 0.002

#: Relative sigma of each current generator's amplitude error (paper: 1 %).
DEFAULT_CURRENT_SIGMA = 0.01


@dataclass(frozen=True)
class QubitSample:
    """One sampled qubit: its nominal design point and its actual parameters.

    Attributes
    ----------
    index:
        Qubit index on the device.
    group:
        SIMD group the qubit belongs to (qubits in a group share a nominal
        frequency and the broadcast SFQ bitstreams).
    nominal_frequency:
        Design-time parking frequency in GHz (from Table II).
    actual_frequency:
        Sampled |0>-|1> frequency after EJ variation, in GHz.
    anharmonicity:
        Anharmonicity in GHz.
    """

    index: int
    group: int
    nominal_frequency: float
    actual_frequency: float
    anharmonicity: float = DEFAULT_ANHARMONICITY_GHZ

    @property
    def drift(self) -> float:
        """Frequency drift (actual - nominal) in GHz."""
        return self.actual_frequency - self.nominal_frequency

    def transmon(self, levels: int = 6) -> Transmon:
        """The actual (drifted) transmon model for physics simulations."""
        return Transmon(
            frequency=self.actual_frequency,
            anharmonicity=self.anharmonicity,
            levels=levels,
        )


class VariabilityModel:
    """Samples per-qubit frequency variation and per-coupler hardware error.

    Parameters
    ----------
    ej_sigma:
        Relative standard deviation of the total Josephson energy of each
        qubit (0.002 in the paper).
    current_sigma:
        Relative standard deviation of each current generator's amplitude
        (0.01 in the paper).
    anharmonicity:
        Transmon anharmonicity in GHz.
    seed:
        Seed for the underlying random generator; the same seed always
        produces the same device sample.
    """

    def __init__(
        self,
        ej_sigma: float = DEFAULT_EJ_SIGMA,
        current_sigma: float = DEFAULT_CURRENT_SIGMA,
        anharmonicity: float = DEFAULT_ANHARMONICITY_GHZ,
        seed: Optional[int] = None,
    ):
        if ej_sigma < 0 or current_sigma < 0:
            raise ValueError("sigmas must be non-negative")
        self.ej_sigma = ej_sigma
        self.current_sigma = current_sigma
        self.anharmonicity = anharmonicity
        self._rng = np.random.default_rng(seed)

    # -- frequency sampling -------------------------------------------------------

    def sample_frequency(self, nominal_frequency: float) -> float:
        """Sample one qubit's actual frequency given its nominal parking frequency.

        The qubit is modelled as an asymmetric transmon whose sweet spot is at
        the nominal frequency; the sampled EJ scale shifts the sweet spot.
        Because the transmon frequency goes as ``sqrt(EJ)``, a relative EJ
        deviation of ``x`` produces a relative frequency deviation of about
        ``x / 2`` (≈ ±6 MHz for 0.2 % at ~5-6 GHz), matching the paper.
        """
        transmon = AsymmetricTransmon.from_frequency(
            nominal_frequency, anharmonicity=self.anharmonicity
        )
        scale = 1.0 + self._rng.normal(0.0, self.ej_sigma)
        scale = max(scale, 0.5)  # guard against absurd tail samples
        return transmon.with_ej_scale(scale).max_frequency()

    def sample_qubits(
        self,
        nominal_frequencies: Sequence[float],
        groups: Optional[Sequence[int]] = None,
    ) -> List[QubitSample]:
        """Sample a full device: one :class:`QubitSample` per nominal frequency.

        ``groups[i]`` assigns qubit ``i`` to a SIMD group; by default qubits
        with the same nominal frequency share a group (the paper's static
        grouping rule).
        """
        nominal = list(nominal_frequencies)
        if groups is None:
            unique = sorted(set(nominal))
            group_of = {f: g for g, f in enumerate(unique)}
            groups = [group_of[f] for f in nominal]
        else:
            groups = list(groups)
            if len(groups) != len(nominal):
                raise ValueError("groups must have the same length as nominal_frequencies")

        samples = []
        for index, (freq, group) in enumerate(zip(nominal, groups)):
            samples.append(
                QubitSample(
                    index=index,
                    group=group,
                    nominal_frequency=freq,
                    actual_frequency=self.sample_frequency(freq),
                    anharmonicity=self.anharmonicity,
                )
            )
        return samples

    # -- hardware error sampling --------------------------------------------------

    def sample_current_scale(self) -> float:
        """Multiplicative amplitude error of one current generator (mean 1.0)."""
        return float(max(1.0 + self._rng.normal(0.0, self.current_sigma), 0.0))

    # -- residual gate-error sampling ---------------------------------------------

    def sample_error_scales(self, count: int, sigma: float = 0.25) -> np.ndarray:
        """Multiplicative per-qubit gate-error spread (log-normal, median 1.0).

        Software calibration leaves each qubit a residual decomposition error
        near the configured target, but not exactly at it: bitstream quality
        differs from qubit to qubit.  These factors scale a base error rate
        into a long-tailed per-qubit distribution, as in Fig. 10(a); they are
        consumed by :meth:`repro.simulation.NoiseModel.sampled`.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        return np.exp(self._rng.normal(0.0, sigma, size=count))


def expected_frequency_fluctuation(
    nominal_frequency: float,
    ej_sigma: float = DEFAULT_EJ_SIGMA,
    anharmonicity: float = DEFAULT_ANHARMONICITY_GHZ,
) -> float:
    """One-sigma frequency fluctuation (GHz) implied by an EJ sigma.

    Useful for sanity checks: at ~6 GHz and 0.2 % EJ sigma this is ~6 MHz,
    which is the figure quoted in Sec. VI-B of the paper.
    """
    transmon = AsymmetricTransmon.from_frequency(nominal_frequency, anharmonicity=anharmonicity)
    up = transmon.with_ej_scale(1.0 + ej_sigma).max_frequency()
    down = transmon.with_ej_scale(1.0 - ej_sigma).max_frequency()
    return (up - down) / 2.0
