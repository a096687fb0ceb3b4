"""Gate- and circuit-level error models (Fig. 10, Sec. VI-B.2).

Fig. 10(a) reports, for every qubit of the 1024-qubit device, the *median*
error of the single-qubit gates the benchmarks execute on that qubit after
DigiQ decomposition.  Fig. 10(b) reports the CZ error of every coupled qubit
pair after software calibration (and the paper notes that 84 % of pairs would
exceed 2e-3 without it).

This module provides the drivers for those analyses at a configurable scale
(the paper's full 1024 qubits / 2048 couplers down to a handful of qubits for
tests), reusing the physics-level calibration of
:mod:`repro.core.calibration` and :mod:`repro.core.two_qubit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.library import gate_matrix
from ..noise.variability import VariabilityModel
from .calibration import DeviceCalibration
from .decomposition import OptDecomposition
from .two_qubit import (
    TransmonPairSpec,
    decomposed_cz_error,
    uncalibrated_cz_error,
)

#: A compact sample of single-qubit targets representative of the compiled
#: benchmarks (Hadamard and Pauli gates from the CX/Toffoli expansions, phase
#: gates from the arithmetic circuits, and a few arbitrary rotations from the
#: variational/Trotter benchmarks).
def default_gate_sample() -> List[np.ndarray]:
    """Representative single-qubit gate targets used for Fig. 10(a)."""
    from ..circuits.gate import Gate

    names = [
        Gate("h", (0,)),
        Gate("x", (0,)),
        Gate("y", (0,)),
        Gate("s", (0,)),
        Gate("t", (0,)),
        Gate("sx", (0,)),
        Gate("u3", (0,), (0.7, 0.3, 1.9)),
        Gate("u3", (0,), (2.3, -1.1, 0.4)),
        Gate("u3", (0,), (1.5707963, 0.0, 3.14159265)),
        Gate("rx", (0,), (0.25,)),
    ]
    return [gate_matrix(gate) for gate in names]


def gate_targets_from_circuit(
    circuit: QuantumCircuit, max_targets: int = 50
) -> Dict[int, List[np.ndarray]]:
    """Single-qubit gate targets per qubit extracted from a compiled circuit.

    At most ``max_targets`` gates are kept per qubit (the paper evaluates all
    gates of all benchmarks; capping keeps reduced-scale runs fast while
    preserving the per-qubit gate mix).
    """
    targets: Dict[int, List[np.ndarray]] = {}
    for gate in circuit:
        if not gate.is_single_qubit or gate.name == "rz":
            continue
        bucket = targets.setdefault(gate.qubits[0], [])
        if len(bucket) < max_targets:
            bucket.append(gate_matrix(gate))
    return targets


@dataclass(frozen=True)
class SingleQubitErrorReport:
    """Fig. 10(a) data: per-qubit median single-qubit gate error."""

    design_label: str
    median_errors: Tuple[float, ...]

    @property
    def overall_median(self) -> float:
        """Median over qubits of the per-qubit medians."""
        return float(np.median(self.median_errors))

    @property
    def worst(self) -> float:
        """Worst per-qubit median error (the outliers of Fig. 10(a))."""
        return float(np.max(self.median_errors))

    def fraction_above(self, threshold: float) -> float:
        """Fraction of qubits whose median error exceeds a threshold."""
        errors = np.asarray(self.median_errors)
        return float(np.mean(errors > threshold))

    def as_rates(self) -> Dict[int, float]:
        """Per-qubit error rates for :meth:`repro.simulation.NoiseModel.from_error_reports`."""
        return {qubit: float(error) for qubit, error in enumerate(self.median_errors)}


def median_single_qubit_errors(
    calibration: DeviceCalibration,
    targets: Optional[Dict[int, List[np.ndarray]]] = None,
    qubits: Optional[Sequence[int]] = None,
) -> SingleQubitErrorReport:
    """Per-qubit median single-qubit gate error after DigiQ decomposition.

    ``targets`` maps qubit index to the list of gate targets evaluated on
    that qubit; when omitted, :func:`default_gate_sample` is used for every
    qubit.
    """
    qubits = list(qubits) if qubits is not None else list(range(calibration.num_qubits))
    shared_sample = default_gate_sample()
    medians = []
    for qubit in qubits:
        qubit_targets = (targets or {}).get(qubit, shared_sample)
        if not qubit_targets:
            qubit_targets = shared_sample
        errors = [calibration.gate_error(qubit, target) for target in qubit_targets]
        medians.append(float(np.median(errors)))
    return SingleQubitErrorReport(
        design_label=calibration.config.label, median_errors=tuple(medians)
    )


@dataclass(frozen=True)
class CouplerErrorReport:
    """Fig. 10(b) data: CZ error per coupled qubit pair."""

    design_label: str
    couplers: Tuple[Tuple[int, int], ...]
    errors: Tuple[float, ...]
    uncalibrated_errors: Tuple[float, ...]

    def fraction_above(self, threshold: float = 0.002, calibrated: bool = True) -> float:
        """Fraction of couplers whose CZ error exceeds a threshold.

        The paper reports 3 % (DigiQ_min) / 7 % (DigiQ_opt) of pairs above
        2e-3 with software calibration and 84 % without.
        """
        values = np.asarray(self.errors if calibrated else self.uncalibrated_errors)
        if values.size == 0:
            return 0.0
        return float(np.mean(values > threshold))

    @property
    def median_error(self) -> float:
        """Median calibrated CZ error over couplers."""
        return float(np.median(self.errors)) if self.errors else 0.0

    def as_rates(self, calibrated: bool = True) -> Dict[Tuple[int, int], float]:
        """Per-coupler CZ error rates for :meth:`repro.simulation.NoiseModel.from_error_reports`."""
        values = self.errors if calibrated else self.uncalibrated_errors
        return {pair: float(error) for pair, error in zip(self.couplers, values)}


def cz_errors_per_coupler(
    calibration: DeviceCalibration,
    couplers: Sequence[Tuple[int, int]],
    variability: Optional[VariabilityModel] = None,
    n_pulses: int = 2,
    include_uncalibrated: bool = True,
    restarts: int = 2,
) -> CouplerErrorReport:
    """CZ error of each coupled pair with (and without) software calibration.

    For each coupler, the higher-frequency qubit plays the tunable role; its
    drift and the parked qubit's drift come from the device calibration, and
    the current-generator amplitude error is sampled from ``variability``.
    The interleaved single-qubit gates of the echo sequence are decomposed
    with the per-qubit DigiQ calibration, so Fig. 10(b) reflects both error
    sources the paper models.
    """
    variability = variability or VariabilityModel(seed=12345)
    cz_errors: List[float] = []
    uncal_errors: List[float] = []
    kept: List[Tuple[int, int]] = []

    for qubit_a, qubit_b in couplers:
        sample_a = calibration.sample(qubit_a)
        sample_b = calibration.sample(qubit_b)
        if sample_a.nominal_frequency == sample_b.nominal_frequency:
            # Same-frequency pairs cannot be flux-excursed onto resonance
            # without colliding; the paper's grouping avoids them.
            continue
        if sample_a.nominal_frequency > sample_b.nominal_frequency:
            tunable, parked = sample_a, sample_b
            tunable_qubit, parked_qubit = qubit_a, qubit_b
        else:
            tunable, parked = sample_b, sample_a
            tunable_qubit, parked_qubit = qubit_b, qubit_a

        spec = TransmonPairSpec(
            tunable_frequency=tunable.nominal_frequency,
            parked_frequency=parked.nominal_frequency,
            anharmonicity=tunable.anharmonicity,
        )
        amplitude_scale = variability.sample_current_scale()
        error = decomposed_cz_error(
            spec,
            drift_tunable=tunable.drift,
            drift_parked=parked.drift,
            decompose_tunable=_actual_gate_factory(calibration, tunable_qubit),
            decompose_parked=_actual_gate_factory(calibration, parked_qubit),
            n_pulses=n_pulses,
            amplitude_scale=amplitude_scale,
            restarts=restarts,
        )
        cz_errors.append(error)
        kept.append((qubit_a, qubit_b))
        if include_uncalibrated:
            uncal_errors.append(
                uncalibrated_cz_error(
                    spec,
                    drift_tunable=tunable.drift,
                    drift_parked=parked.drift,
                    amplitude_scale=amplitude_scale,
                )
            )

    return CouplerErrorReport(
        design_label=calibration.config.label,
        couplers=tuple(kept),
        errors=tuple(cz_errors),
        uncalibrated_errors=tuple(uncal_errors),
    )


def _actual_gate_factory(
    calibration: DeviceCalibration, qubit: int
) -> Callable[[np.ndarray], np.ndarray]:
    """A callable mapping an ideal 2x2 gate to the qubit's decomposed actual gate."""

    def realise(target: np.ndarray) -> np.ndarray:
        decomposition = calibration.decompose(qubit, target)
        if isinstance(decomposition, OptDecomposition):
            matrix = calibration.opt_basis(qubit).sequence_unitary(decomposition.delays)
            residual = np.diag(
                [
                    np.exp(-0.5j * decomposition.residual_phase),
                    np.exp(+0.5j * decomposition.residual_phase),
                ]
            )
            return residual @ matrix
        return calibration.min_basis(qubit).sequence_unitary(decomposition.gate_indices)

    return realise
