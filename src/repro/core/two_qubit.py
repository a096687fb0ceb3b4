"""Software calibration of the CZ gate (Sec. IV-A.3, Sec. V-B, Fig. 7, Fig. 10(b)).

The DigiQ CZ gate flux-excurses the higher-frequency (tunable) transmon of a
coupled pair down to the |11> <-> |20> resonance using the current pulse of
the in-fridge SFQ/DC generator.  The pulse is calibrated once for the nominal
parking frequencies; on real hardware each pair drifts, so the same pulse
produces a pair-specific two-qubit operation ``Uqq`` instead of an exact CZ.
Sec. V-B shows that composing 1-3 ``Uqq`` pulses with numerically optimised
single-qubit gates in between ("echo" sequences) recovers a low-error CZ over
a wide drift range; this module implements that analysis:

* :func:`calibrate_flux_pulse` — one-time nominal calibration of the pulse
  amplitude mapping and duration;
* :func:`cz_echo_error` — minimum CZ error of an ``n``-pulse echo sequence
  with ideal interleaved single-qubit gates (Fig. 7);
* :func:`cz_error_grid` — the Fig. 7 drift sweeps;
* :func:`decomposed_cz_error` — the same with the interleaved single-qubit
  gates decomposed onto DigiQ basis operations (Fig. 10(b));
* :func:`uncalibrated_cz_error` — the no-software-calibration ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from ..hardware.current_generator import CurrentWaveform, cz_pulse_waveform
from ..physics.coupled import (
    CZ_TARGET,
    FluxPulseCalibration,
    TwoTransmonSystem,
    embed_single_qubit_pair,
    project_two_qubit,
    simulate_uqq,
)
from ..physics.fidelity import average_gate_error
from ..physics.rotations import u3
from ..physics.transmon import Transmon, TransmonPairParameters

#: Default drift range of the Fig. 7 sweeps, in GHz (+- 20 MHz).
DEFAULT_DRIFT_RANGE_GHZ = 0.020


@dataclass(frozen=True)
class TransmonPairSpec:
    """Static description of one coupled qubit pair and its CZ pulse.

    Parameters
    ----------
    tunable_frequency:
        Nominal parking frequency of the flux-tunable (higher) qubit, GHz.
    parked_frequency:
        Nominal parking frequency of the fixed (lower) qubit, GHz.
    anharmonicity:
        Transmon anharmonicity (negative), GHz.
    coupling:
        Capacitive coupling strength, GHz (10 MHz in the paper).
    levels:
        Per-transmon truncation for the two-qubit simulation.
    cz_time_ns:
        Total CZ pulse window, ns (60 ns in the paper).
    dt_ns:
        Waveform sampling step used in the Schrödinger integration, ns.
    """

    tunable_frequency: float = 6.21286
    parked_frequency: float = 4.14238
    anharmonicity: float = -0.250
    coupling: float = 0.010
    levels: int = 3
    cz_time_ns: float = 60.0
    dt_ns: float = 0.1

    def __post_init__(self) -> None:
        if self.tunable_frequency <= self.parked_frequency:
            raise ValueError("the tunable qubit must be the higher-frequency one")
        if self.coupling <= 0:
            raise ValueError("coupling must be positive")
        if self.cz_time_ns <= 0 or self.dt_ns <= 0:
            raise ValueError("cz_time_ns and dt_ns must be positive")

    def pair(self, drift_tunable: float = 0.0, drift_parked: float = 0.0) -> TransmonPairParameters:
        """The (possibly drifted) coupled-pair parameters."""
        qubit_a = Transmon(
            frequency=self.tunable_frequency + drift_tunable,
            anharmonicity=self.anharmonicity,
            levels=self.levels,
        )
        qubit_b = Transmon(
            frequency=self.parked_frequency + drift_parked,
            anharmonicity=self.anharmonicity,
            levels=self.levels,
        )
        return TransmonPairParameters(
            qubit_a=qubit_a, qubit_b=qubit_b, coupling=self.coupling, levels=self.levels
        )

    def system(self, drift_tunable: float = 0.0, drift_parked: float = 0.0) -> TwoTransmonSystem:
        """The (possibly drifted) two-transmon Hamiltonian model."""
        return TwoTransmonSystem(self.pair(drift_tunable, drift_parked))


@dataclass(frozen=True)
class FluxPulseDesign:
    """The nominally calibrated CZ flux pulse.

    Attributes
    ----------
    calibration:
        Current-to-frequency mapping calibrated at the nominal frequencies.
    on_time_ns:
        Converter-enable duration of the pulse within the CZ window.
    plateau_detuning_ghz:
        How far above the |11> <-> |20> resonance the plateau parks the
        tunable qubit.  The gate is operated in the adiabatic-CZ regime: the
        pulse approaches (but never crosses) the resonance, and the level
        repulsion of the |11> state accumulates the conditional pi phase.
    nominal_error:
        CZ error of a single pulse on the nominal (undrifted) pair, with
        virtual-Z corrections only.
    """

    calibration: FluxPulseCalibration
    on_time_ns: float
    plateau_detuning_ghz: float
    nominal_error: float


def _waveform(spec: TransmonPairSpec, on_time_ns: float, amplitude_scale: float = 1.0) -> CurrentWaveform:
    """The current waveform of one CZ pulse with the given enable duration."""
    waveform = cz_pulse_waveform(
        duration_ns=spec.cz_time_ns, dt_ns=spec.dt_ns, amplitude_scale=amplitude_scale
    )
    # cz_pulse_waveform enables the converters for (duration - tail); rebuild
    # with the requested on-time by scaling the enable window.
    from ..hardware.current_generator import simulate_waveform

    waveform = simulate_waveform(
        on_time_ns=min(on_time_ns, spec.cz_time_ns - 0.5),
        total_time_ns=spec.cz_time_ns,
        dt_ns=spec.dt_ns,
        start_time_ns=0.0,
    )
    if amplitude_scale != 1.0:
        waveform = waveform.scaled(amplitude_scale)
    return waveform


def _single_pulse_full(
    spec: TransmonPairSpec,
    design: FluxPulseDesign,
    drift_tunable: float,
    drift_parked: float,
    amplitude_scale: float,
) -> np.ndarray:
    """Full multi-level ``Uqq`` of one calibrated pulse applied to a (drifted) pair.

    The full propagator is needed (rather than the 4x4 projection) because
    echo sequences cancel leakage coherently across pulses: the |20> amplitude
    created by one pulse interferes with the next pulse's, and that
    interference lives outside the computational subspace.
    """
    system = spec.system(drift_tunable, drift_parked)
    waveform = _waveform(spec, design.on_time_ns, amplitude_scale)
    calibration = replace(design.calibration, amplitude_scale=1.0)
    return simulate_uqq(system, waveform.currents_ma, spec.dt_ns, calibration)


def _single_pulse_unitary(
    spec: TransmonPairSpec,
    design: FluxPulseDesign,
    drift_tunable: float,
    drift_parked: float,
    amplitude_scale: float,
) -> np.ndarray:
    """The 4x4 ``Uqq`` of one calibrated pulse applied to a (drifted) pair."""
    full = _single_pulse_full(spec, design, drift_tunable, drift_parked, amplitude_scale)
    return project_two_qubit(full, spec.levels)


def _phase_corrected_error(unitary_4x4: np.ndarray) -> float:
    """CZ error allowing free virtual Z corrections on both qubits.

    Uses a coarse grid plus Nelder-Mead refinement over the four correction
    phases (two before, two after the gate).
    """

    def objective(phases: np.ndarray) -> float:
        pre = np.diag(
            np.kron(
                np.array([1.0, np.exp(1j * phases[0])]),
                np.array([1.0, np.exp(1j * phases[1])]),
            )
        )
        post = np.diag(
            np.kron(
                np.array([1.0, np.exp(1j * phases[2])]),
                np.array([1.0, np.exp(1j * phases[3])]),
            )
        )
        return average_gate_error(post @ unitary_4x4 @ pre, CZ_TARGET)

    best_value, best_start = float("inf"), np.zeros(4)
    grid = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    for pa in grid:
        for pb in grid:
            value = objective(np.array([pa, pb, 0.0, 0.0]))
            if value < best_value:
                best_value, best_start = value, np.array([pa, pb, 0.0, 0.0])
    result = minimize(objective, best_start, method="Nelder-Mead", options={"xatol": 1e-4, "fatol": 1e-9, "maxiter": 600})
    return float(min(best_value, result.fun))


def _calibration_for_detuning(
    spec: TransmonPairSpec, plateau_current_ma: float, detuning_ghz: float
) -> FluxPulseCalibration:
    """Current-to-frequency mapping parking the plateau ``detuning_ghz`` above resonance."""
    nominal_system = spec.system()
    resonance = nominal_system.resonance_frequency_for_cz()
    target = resonance + detuning_ghz
    return FluxPulseCalibration(
        ghz_per_ma=(target - spec.tunable_frequency) / plateau_current_ma
    )


@lru_cache(maxsize=16)
def calibrate_flux_pulse(spec: TransmonPairSpec) -> FluxPulseDesign:
    """Calibrate the CZ flux pulse at the nominal pair frequencies.

    Two quantities are calibrated jointly, exactly as an experimentalist
    would: the plateau depth (how close the tunable qubit approaches the
    |11> <-> |20> resonance) and the converter-enable duration.  The gate is
    operated adiabatically — the plateau parks slightly *above* the resonance
    so the level repulsion accumulates the conditional pi phase without
    populating |20> — which suits the few-ns rise/fall of the SFQ/DC current
    generator.  The objective is the CZ error of the nominal pair with
    virtual-Z corrections.
    """
    nominal_system = spec.system()
    probe = cz_pulse_waveform(duration_ns=spec.cz_time_ns, dt_ns=spec.dt_ns)
    plateau_current = probe.plateau_current_ma()

    def pulse_error(detuning_ghz: float, on_time_ns: float) -> float:
        calibration = _calibration_for_detuning(spec, plateau_current, detuning_ghz)
        waveform = _waveform(spec, on_time_ns)
        full = simulate_uqq(nominal_system, waveform.currents_ma, spec.dt_ns, calibration)
        return _phase_corrected_error(project_two_qubit(full, spec.levels))

    # Coarse grid over (detuning, on-time), then Nelder-Mead refinement.  A
    # detuning of zero parks exactly on resonance (the sudden/diabatic CZ);
    # positive detunings move toward the adiabatic regime.
    detunings = np.linspace(0.0, 0.02, 5)
    on_times = np.linspace(0.5 * spec.cz_time_ns, 0.93 * spec.cz_time_ns, 7)
    best = (float("inf"), float(detunings[0]), float(on_times[0]))
    for detuning in detunings:
        for on_time in on_times:
            error = pulse_error(float(detuning), float(on_time))
            if error < best[0]:
                best = (error, float(detuning), float(on_time))

    def objective(params: np.ndarray) -> float:
        detuning = float(np.clip(params[0], -0.01, 0.08))
        on_time = float(np.clip(params[1], 10.0, spec.cz_time_ns - 0.5))
        return pulse_error(detuning, on_time)

    result = minimize(
        objective,
        np.array([best[1], best[2]]),
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-8, "maxiter": 120},
    )
    if result.fun < best[0]:
        best = (float(result.fun), float(np.clip(result.x[0], -0.01, 0.08)),
                float(np.clip(result.x[1], 10.0, spec.cz_time_ns - 0.5)))

    error, detuning, on_time = best
    return FluxPulseDesign(
        calibration=_calibration_for_detuning(spec, plateau_current, detuning),
        on_time_ns=on_time,
        plateau_detuning_ghz=detuning,
        nominal_error=error,
    )


# ---------------------------------------------------------------------------
# Echo-sequence optimisation
# ---------------------------------------------------------------------------


def _local_gate(params: Sequence[float]) -> np.ndarray:
    """A parametrised single-qubit gate (u3 angles)."""
    return u3(params[0], params[1], params[2])


def _compose_echo(
    uqq_full: np.ndarray, params: np.ndarray, n_pulses: int, levels: int
) -> np.ndarray:
    """Compose ``n_pulses`` full-space Uqq with interleaved parametrised local gates.

    ``params`` holds ``(n_pulses + 1)`` layers of two local gates (3 angles
    each): layer 0 before the first pulse, layer k after pulse k.  The
    composition happens in the full multi-level space so that leakage created
    by one pulse can be coherently undone by a later one; project the result
    with :func:`repro.physics.coupled.project_two_qubit` before comparing
    against the CZ target.
    """
    dim = levels * levels
    result = np.eye(dim, dtype=complex)
    for layer in range(n_pulses + 1):
        base = 6 * layer
        local = embed_single_qubit_pair(
            _local_gate(params[base : base + 3]),
            _local_gate(params[base + 3 : base + 6]),
            levels,
        )
        result = local @ result
        if layer < n_pulses:
            result = uqq_full @ result
    return result


def optimize_echo_sequence(
    uqq_full: np.ndarray,
    n_pulses: int,
    levels: int = 3,
    restarts: int = 3,
    seed: int = 0,
) -> Tuple[float, np.ndarray]:
    """Minimum CZ error of an ``n_pulses`` echo sequence with ideal local gates.

    ``uqq_full`` is the full multi-level propagator of one pulse.  Returns
    ``(error, params)`` where ``params`` are the optimised u3 angles of the
    ``2 * (n_pulses + 1)`` interleaved local gates; the error counts any
    residual leakage.
    """
    uqq_full = np.asarray(uqq_full, dtype=complex)
    expected_dim = levels * levels
    if uqq_full.shape != (expected_dim, expected_dim):
        raise ValueError(
            f"uqq_full shape {uqq_full.shape} inconsistent with levels={levels}"
        )
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")

    num_params = 6 * (n_pulses + 1)

    def objective(params: np.ndarray) -> float:
        composed = _compose_echo(uqq_full, params, n_pulses, levels)
        return average_gate_error(project_two_qubit(composed, levels), CZ_TARGET)

    rng = np.random.default_rng(seed)
    best_error, best_params = float("inf"), np.zeros(num_params)
    starts = [np.zeros(num_params)]
    # A pi rotation on the tunable qubit between pulses is the classic echo
    # seed for cancelling coherent phase errors.
    if n_pulses >= 2:
        echo_start = np.zeros(num_params)
        echo_start[6] = math.pi  # X on the first qubit after pulse 1
        starts.append(echo_start)
    for _ in range(max(0, restarts - len(starts))):
        starts.append(rng.uniform(-math.pi, math.pi, size=num_params) * 0.5)

    for start in starts:
        result = minimize(objective, start, method="L-BFGS-B", options={"maxiter": 500})
        if result.fun < best_error:
            best_error, best_params = float(result.fun), np.asarray(result.x)
    return best_error, best_params


def cz_echo_error(
    spec: TransmonPairSpec,
    drift_tunable: float = 0.0,
    drift_parked: float = 0.0,
    n_pulses: int = 1,
    amplitude_scale: float = 1.0,
    design: Optional[FluxPulseDesign] = None,
    restarts: int = 3,
) -> float:
    """Minimum CZ error of a drifted pair using ``n_pulses`` and ideal 1q gates (Fig. 7)."""
    design = design or calibrate_flux_pulse(spec)
    uqq_full = _single_pulse_full(spec, design, drift_tunable, drift_parked, amplitude_scale)
    error, _ = optimize_echo_sequence(uqq_full, n_pulses, levels=spec.levels, restarts=restarts)
    return error


def cz_error_grid(
    spec: TransmonPairSpec,
    drifts_tunable: Sequence[float],
    drifts_parked: Sequence[float],
    n_pulses: int = 1,
    amplitude_scale: float = 1.0,
    restarts: int = 2,
) -> np.ndarray:
    """CZ error over a grid of per-qubit drifts (one panel of Fig. 7).

    Element ``[i, j]`` is the error at ``drifts_tunable[i]``,
    ``drifts_parked[j]``.
    """
    design = calibrate_flux_pulse(spec)
    grid = np.zeros((len(drifts_tunable), len(drifts_parked)))
    for i, drift_a in enumerate(drifts_tunable):
        for j, drift_b in enumerate(drifts_parked):
            grid[i, j] = cz_echo_error(
                spec,
                drift_tunable=float(drift_a),
                drift_parked=float(drift_b),
                n_pulses=n_pulses,
                amplitude_scale=amplitude_scale,
                design=design,
                restarts=restarts,
            )
    return grid


def uncalibrated_cz_error(
    spec: TransmonPairSpec,
    drift_tunable: float,
    drift_parked: float,
    amplitude_scale: float = 1.0,
    design: Optional[FluxPulseDesign] = None,
) -> float:
    """CZ error without software calibration (ablation of Sec. VI-B.2).

    The virtual-Z corrections are the ones that would be chosen for the
    *nominal* pair; the drifted pair then runs with those stale corrections.
    """
    design = design or calibrate_flux_pulse(spec)
    nominal = _single_pulse_unitary(spec, design, 0.0, 0.0, 1.0)

    def corrections_for(unitary: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        def objective(phases: np.ndarray) -> float:
            pre = np.diag(
                np.kron(
                    np.array([1.0, np.exp(1j * phases[0])]),
                    np.array([1.0, np.exp(1j * phases[1])]),
                )
            )
            post = np.diag(
                np.kron(
                    np.array([1.0, np.exp(1j * phases[2])]),
                    np.array([1.0, np.exp(1j * phases[3])]),
                )
            )
            return average_gate_error(post @ unitary @ pre, CZ_TARGET)

        result = minimize(objective, np.zeros(4), method="Nelder-Mead", options={"maxiter": 600})
        phases = result.x
        pre = np.diag(
            np.kron(
                np.array([1.0, np.exp(1j * phases[0])]),
                np.array([1.0, np.exp(1j * phases[1])]),
            )
        )
        post = np.diag(
            np.kron(
                np.array([1.0, np.exp(1j * phases[2])]),
                np.array([1.0, np.exp(1j * phases[3])]),
            )
        )
        return pre, post

    pre, post = corrections_for(nominal)
    actual = _single_pulse_unitary(spec, design, drift_tunable, drift_parked, amplitude_scale)
    return average_gate_error(post @ actual @ pre, CZ_TARGET)


def decomposed_cz_error(
    spec: TransmonPairSpec,
    drift_tunable: float,
    drift_parked: float,
    decompose_tunable,
    decompose_parked,
    n_pulses: int = 2,
    amplitude_scale: float = 1.0,
    design: Optional[FluxPulseDesign] = None,
    restarts: int = 2,
) -> float:
    """CZ error when the interleaved single-qubit gates are DigiQ-decomposed (Fig. 10(b)).

    ``decompose_tunable`` and ``decompose_parked`` are callables mapping a 2x2
    target to the *actual* 2x2 operation the controller implements for that
    qubit (e.g. ``calibration.decompose`` composed with the per-qubit basis);
    they are applied to the ideal interleaved local gates found by the echo
    optimiser, and the error of the resulting physically-realisable sequence
    is returned.
    """
    design = design or calibrate_flux_pulse(spec)
    uqq_full = _single_pulse_full(spec, design, drift_tunable, drift_parked, amplitude_scale)
    _, params = optimize_echo_sequence(
        uqq_full, n_pulses, levels=spec.levels, restarts=restarts
    )

    result = np.eye(spec.levels * spec.levels, dtype=complex)
    for layer in range(n_pulses + 1):
        base = 6 * layer
        ideal_a = _local_gate(params[base : base + 3])
        ideal_b = _local_gate(params[base + 3 : base + 6])
        actual_a = decompose_tunable(ideal_a)
        actual_b = decompose_parked(ideal_b)
        result = embed_single_qubit_pair(actual_a, actual_b, spec.levels) @ result
        if layer < n_pulses:
            result = uqq_full @ result
    return average_gate_error(project_two_qubit(result, spec.levels), CZ_TARGET)
