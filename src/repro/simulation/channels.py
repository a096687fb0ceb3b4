"""Stochastic error channels for Monte-Carlo trajectory simulation.

A :class:`NoiseModel` assigns every qubit a single-qubit gate-error rate and
every coupler a CZ error rate; the trajectory engine converts these rates
into stochastic Pauli/phase kicks injected between the gates of a compiled
circuit.  Rates come from one of three places:

* :meth:`NoiseModel.sampled` — the fast path used by sweeps.  Per-qubit
  frequency drift is sampled from :class:`~repro.noise.variability.VariabilityModel`
  (with the device's group parking frequencies), per-coupler current-generator
  amplitude errors likewise, and both are mapped onto error rates around the
  configuration's decomposition error target.  This reproduces the *shape* of
  Fig. 10 (a long-tailed per-qubit/per-coupler distribution around the
  calibrated target) without paying for a full bitstream calibration.
* :meth:`NoiseModel.from_error_reports` — the faithful path: per-qubit and
  per-coupler rates lifted directly from the Fig. 10 reports produced by
  :mod:`repro.core.errors` against a real :class:`~repro.core.calibration.DeviceCalibration`.
* :meth:`NoiseModel.uniform` — flat rates, for tests and quick estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.architecture import DigiQConfig
from ..noise.variability import VariabilityModel, expected_frequency_fluctuation

#: Default CZ error charged per coupler when no better information exists.
DEFAULT_CZ_ERROR = 1e-3

#: Default single-qubit gate error (the paper's decomposition error target).
DEFAULT_SINGLE_QUBIT_ERROR = 1e-4


def _coupler_key(pair: Sequence[int]) -> Tuple[int, int]:
    a, b = pair
    return (a, b) if a <= b else (b, a)


def sampled_single_qubit_rates(
    num_qubits: int,
    config: DigiQConfig,
    variability: VariabilityModel,
    base_single_error: float,
) -> Dict[int, float]:
    """Per-qubit error rates sampled from the fabrication-variability model.

    Each qubit's parking frequency comes from ``config``'s static group
    assignment; its sampled drift (relative to the one-sigma fluctuation the
    EJ spread implies) scales the base single-qubit error, so badly drifted
    qubits carry proportionally worse gates — the long tail of Fig. 10(a).
    Consumes the variability model's RNG; callers that also sample coupler
    rates must call this first to keep the draw order stable.
    """
    groups = [config.group_of_qubit(q, num_qubits) for q in range(num_qubits)]
    nominal = [config.group_frequency(g) for g in groups]
    samples = variability.sample_qubits(nominal, groups)
    scales = variability.sample_error_scales(num_qubits)

    single_rates: Dict[int, float] = {}
    for sample, scale in zip(samples, scales):
        sigma_f = expected_frequency_fluctuation(
            sample.nominal_frequency,
            ej_sigma=max(variability.ej_sigma, 1e-12),
            anharmonicity=variability.anharmonicity,
        )
        relative_drift = abs(sample.drift) / max(sigma_f, 1e-12)
        # Calibration compensates the drift to first order; the residual
        # error grows quadratically with how far out in the distribution
        # the qubit landed.
        rate = base_single_error * float(scale) * (1.0 + relative_drift**2)
        single_rates[sample.index] = min(rate, 1.0)
    return single_rates


def sampled_coupler_rates(
    couplers: Sequence[Tuple[int, int]],
    variability: VariabilityModel,
    base_cz_error: float,
) -> Dict[Tuple[int, int], float]:
    """Per-coupler CZ error rates from sampled current-generator amplitudes.

    Each coupler's rate scales with its current generator's sampled amplitude
    error, the Fig. 10(b) mechanism.
    """
    coupler_rates: Dict[Tuple[int, int], float] = {}
    for pair in couplers:
        key = _coupler_key(pair)
        if key in coupler_rates:
            continue
        amplitude_scale = variability.sample_current_scale()
        relative_amp = abs(amplitude_scale - 1.0) / max(variability.current_sigma, 1e-12)
        rate = base_cz_error * (1.0 + relative_amp**2)
        coupler_rates[key] = min(rate, 1.0)
    return coupler_rates


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit / per-coupler stochastic error rates for one device.

    Attributes
    ----------
    num_qubits:
        Size of the device the rates describe.
    single_qubit_rates:
        Map qubit index -> probability that one single-qubit gate on that
        qubit is followed by a random Pauli kick.  Qubits absent from the map
        fall back to ``default_single_rate``.
    coupler_rates:
        Map (sorted qubit pair) -> CZ error probability.  Pairs absent from
        the map fall back to ``default_coupler_rate``.
    pauli_weights:
        Relative weights of X, Y and Z kicks.  The default biases towards Z
        (phase) kicks, the dominant residual of the paper's software
        calibration, while keeping bit-flip channels open.
    """

    num_qubits: int
    single_qubit_rates: Mapping[int, float] = field(default_factory=dict)
    coupler_rates: Mapping[Tuple[int, int], float] = field(default_factory=dict)
    default_single_rate: float = DEFAULT_SINGLE_QUBIT_ERROR
    default_coupler_rate: float = DEFAULT_CZ_ERROR
    pauli_weights: Tuple[float, float, float] = (1.0, 1.0, 2.0)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("a noise model needs at least one qubit")
        for rate in (self.default_single_rate, self.default_coupler_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"error rates must be in [0, 1], got {rate}")
        for rate in list(self.single_qubit_rates.values()) + list(self.coupler_rates.values()):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"error rates must be in [0, 1], got {rate}")
        if len(self.pauli_weights) != 3 or any(w < 0 for w in self.pauli_weights):
            raise ValueError("pauli_weights must be three non-negative numbers")
        if sum(self.pauli_weights) <= 0:
            raise ValueError("pauli_weights must not all be zero")

    # -- rate queries -------------------------------------------------------------

    def single_qubit_rate(self, qubit: int) -> float:
        """Pauli-kick probability after one single-qubit gate on ``qubit``."""
        return float(self.single_qubit_rates.get(qubit, self.default_single_rate))

    def coupler_rate(self, qubit_a: int, qubit_b: int) -> float:
        """CZ error probability of a coupler (order-insensitive)."""
        return float(
            self.coupler_rates.get(_coupler_key((qubit_a, qubit_b)), self.default_coupler_rate)
        )

    def kick_cumulative_weights(self) -> np.ndarray:
        """Cumulative normalized Pauli weights, for vectorized kick selection.

        The last entry is pinned to exactly 1.0: float accumulation can leave
        ``cumsum(...)[-1]`` a few ulp below 1, and a uniform draw landing in
        that gap would ``searchsorted`` to index 3 — outside the Pauli table —
        silently dropping the kick.  The kernel additionally clips its picks,
        so either defence alone closes the edge case.
        """
        weights = np.asarray(self.pauli_weights, dtype=float)
        cumulative = np.cumsum(weights / weights.sum())
        cumulative[-1] = 1.0
        return cumulative

    # -- constructors -------------------------------------------------------------

    @staticmethod
    def uniform(
        num_qubits: int,
        single_qubit_error: float = DEFAULT_SINGLE_QUBIT_ERROR,
        cz_error: float = DEFAULT_CZ_ERROR,
        pauli_weights: Tuple[float, float, float] = (1.0, 1.0, 2.0),
    ) -> "NoiseModel":
        """A flat-rate model: every qubit and coupler shares one rate."""
        return NoiseModel(
            num_qubits=num_qubits,
            default_single_rate=single_qubit_error,
            default_coupler_rate=cz_error,
            pauli_weights=pauli_weights,
        )

    @staticmethod
    def sampled(
        num_qubits: int,
        config: Optional[DigiQConfig] = None,
        couplers: Sequence[Tuple[int, int]] = (),
        variability: Optional[VariabilityModel] = None,
        seed: Optional[int] = None,
        base_single_error: Optional[float] = None,
        base_cz_error: float = DEFAULT_CZ_ERROR,
    ) -> "NoiseModel":
        """Sample a device's rates from the variability model (the sweep fast path).

        Each qubit's parking frequency comes from ``config``'s static group
        assignment; its sampled drift (relative to the one-sigma fluctuation
        the EJ spread implies) scales the base single-qubit error, so badly
        drifted qubits carry proportionally worse gates — the long tail of
        Fig. 10(a).  Each coupler's rate scales with its current generator's
        sampled amplitude error, the Fig. 10(b) mechanism.
        """
        config = config or DigiQConfig()
        if variability is not None and seed is not None:
            raise ValueError(
                "pass either an explicit variability model or a seed, not both; "
                "the seed only parameterises the internally-built model"
            )
        if variability is None:
            variability = VariabilityModel(seed=0 if seed is None else seed)
        base_single = (
            base_single_error if base_single_error is not None else config.error_target
        )

        single_rates = sampled_single_qubit_rates(num_qubits, config, variability, base_single)
        coupler_rates = sampled_coupler_rates(couplers, variability, base_cz_error)

        return NoiseModel(
            num_qubits=num_qubits,
            single_qubit_rates=single_rates,
            coupler_rates=coupler_rates,
            default_single_rate=min(base_single, 1.0),
            default_coupler_rate=min(base_cz_error, 1.0),
        )

    @staticmethod
    def from_target(target) -> "NoiseModel":
        """Build a model from a backend :class:`~repro.backends.target.Target`.

        The target's calibrated per-qubit and per-coupler error rates (and its
        default rates for qubits/couplers without an explicit entry) transfer
        directly, so noisy sweeps against a registered backend automatically
        simulate the device the backend describes.
        """
        return NoiseModel(
            num_qubits=target.num_qubits,
            single_qubit_rates=dict(target.single_qubit_error_rates),
            coupler_rates={
                _coupler_key(pair): rate
                for pair, rate in target.coupler_error_rates.items()
            },
            default_single_rate=target.default_single_qubit_error,
            default_coupler_rate=target.default_cz_error,
        )

    @staticmethod
    def from_error_reports(
        num_qubits: int,
        single_report=None,
        coupler_report=None,
        default_single_rate: float = DEFAULT_SINGLE_QUBIT_ERROR,
        default_coupler_rate: float = DEFAULT_CZ_ERROR,
    ) -> "NoiseModel":
        """Build a model from the Fig. 10 reports of :mod:`repro.core.errors`.

        ``single_report`` is a
        :class:`~repro.core.errors.SingleQubitErrorReport` and
        ``coupler_report`` a :class:`~repro.core.errors.CouplerErrorReport`;
        either may be omitted, in which case the corresponding default rate
        applies everywhere.
        """
        single_rates: Dict[int, float] = {}
        if single_report is not None:
            single_rates = single_report.as_rates()
        coupler_rates: Dict[Tuple[int, int], float] = {}
        if coupler_report is not None:
            coupler_rates = {
                _coupler_key(pair): rate
                for pair, rate in coupler_report.as_rates().items()
            }
        return NoiseModel(
            num_qubits=num_qubits,
            single_qubit_rates=single_rates,
            coupler_rates=coupler_rates,
            default_single_rate=default_single_rate,
            default_coupler_rate=default_coupler_rate,
        )
