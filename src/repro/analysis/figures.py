"""Regeneration of the paper's figures as structured data series.

Every function returns plain Python containers (dicts / lists / numpy arrays)
holding the same series the corresponding paper figure plots, at a
configurable scale:

* :func:`fig4_current_waveform` — Fig. 4(b): the SFQ/DC current waveform.
* :func:`fig7_cz_error_vs_drift` — Fig. 7(a-c): CZ error vs per-qubit drift
  for 1, 2 and 3 Uqq pulses.
* :func:`fig8_hardware_cost` — Fig. 8(a-c): power, area and cable count of
  every design point (plus the MIMD baselines).
* :func:`fig9_execution_time` — Fig. 9: normalised execution time of the
  Table IV benchmarks on a sweep of DigiQ configurations.
* :func:`fig10_gate_errors` — Fig. 10(a, b): per-qubit median single-qubit
  gate error and per-coupler CZ error.
* :func:`scalability_summary` — the Sec. VI-A.3 scalability discussion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.benchmarks import TABLE_IV_NAMES, build_benchmark
from ..compiler.coupling import smallest_grid_for
from ..compiler.pipeline import compile_circuit
from ..core.architecture import DigiQConfig
from ..core.calibration import DeviceCalibration
from ..core.errors import (
    cz_errors_per_coupler,
    gate_targets_from_circuit,
    median_single_qubit_errors,
)
from ..core.execution import normalized_execution_time
from ..core.two_qubit import TransmonPairSpec, cz_error_grid
from ..hardware.budget import cryo_cmos_max_qubits, scalability_report
from ..hardware.controller_designs import ControllerDesign, evaluate_design, evaluate_design_space
from ..hardware.current_generator import CurrentGeneratorDesign, simulate_waveform
from ..noise.variability import VariabilityModel


# ---------------------------------------------------------------------------
# Fig. 4(b)
# ---------------------------------------------------------------------------


def fig4_current_waveform(
    num_converters: int = 25,
    on_time_ns: float = 40.0,
    total_time_ns: float = 70.0,
    dt_ns: float = 0.05,
) -> Dict[str, object]:
    """The Fig. 4(b) current waveform and its headline characteristics."""
    design = CurrentGeneratorDesign(num_converters=num_converters)
    waveform = simulate_waveform(
        design=design, on_time_ns=on_time_ns, total_time_ns=total_time_ns, dt_ns=dt_ns
    )
    return {
        "times_ns": waveform.times_ns,
        "currents_ma": waveform.currents_ma,
        "peak_current_ma": waveform.peak_current_ma,
        "plateau_current_ma": waveform.plateau_current_ma(),
        "rise_time_ns": waveform.rise_time_ns(),
        "num_converters": num_converters,
    }


# ---------------------------------------------------------------------------
# Fig. 7
# ---------------------------------------------------------------------------


def fig7_cz_error_vs_drift(
    drift_range_ghz: float = 0.02,
    grid_points: int = 5,
    pulse_counts: Sequence[int] = (1, 2, 3),
    spec: Optional[TransmonPairSpec] = None,
    restarts: int = 2,
) -> Dict[int, Dict[str, object]]:
    """Fig. 7 panels: CZ error over a drift grid for each Uqq pulse count.

    Returns a mapping from pulse count to a dict with the drift axes and the
    2-D error grid (ideal single-qubit gates, as in the paper).
    """
    spec = spec or TransmonPairSpec()
    drifts = np.linspace(-drift_range_ghz, drift_range_ghz, grid_points)
    panels: Dict[int, Dict[str, object]] = {}
    for n_pulses in pulse_counts:
        grid = cz_error_grid(
            spec, drifts, drifts, n_pulses=n_pulses, restarts=restarts
        )
        panels[n_pulses] = {
            "drifts_tunable_ghz": drifts,
            "drifts_parked_ghz": drifts,
            "errors": grid,
            "min_error": float(grid.min()),
            "max_error": float(grid.max()),
            "median_error": float(np.median(grid)),
        }
    return panels


# ---------------------------------------------------------------------------
# Fig. 8
# ---------------------------------------------------------------------------


def fig8_hardware_cost(
    num_qubits: int = 1024,
    groups: Tuple[int, ...] = (2, 4, 8, 16),
    bitstreams_min: Tuple[int, ...] = (2, 4),
    bitstreams_opt: Tuple[int, ...] = (2, 4, 8, 16),
) -> List[Dict[str, object]]:
    """Fig. 8 rows: power, area and cable count of every design point."""
    costs = evaluate_design_space(
        num_qubits=num_qubits,
        groups=groups,
        bitstreams_min=bitstreams_min,
        bitstreams_opt=bitstreams_opt,
    )
    return [cost.summary() for cost in costs]


def fig8_same_bsg_comparison(num_qubits: int = 1024, product: int = 32) -> List[Dict[str, object]]:
    """Ablation: designs with the same BS * G product (Sec. VI-A.3 observation).

    The paper notes that designs with equal ``BS * G`` have similar hardware
    cost because larger G duplicates the bitstream generators.
    """
    rows = []
    for groups in (2, 4, 8, 16):
        if product % groups:
            continue
        bitstreams = product // groups
        if bitstreams < 1:
            continue
        design = ControllerDesign("digiq_opt", groups=groups, bitstreams=bitstreams)
        rows.append(evaluate_design(design, num_qubits).summary())
    return rows


def scalability_summary(budget_w: float = 10.0, tile_qubits: int = 1024) -> List[Dict[str, object]]:
    """Sec. VI-A.3: maximum system size per design under the fridge power budget."""
    from ..hardware.budget import FridgeBudget

    rows = [
        result.summary()
        for result in scalability_report(
            budget=FridgeBudget(power_w=budget_w), tile_qubits=tile_qubits
        )
    ]
    rows.append(
        {
            "design": "Cryo-CMOS [Van Dijk et al. 2020]",
            "power_per_qubit_mw": 12.0,
            "area_per_qubit_mm2": float("nan"),
            "max_qubits": cryo_cmos_max_qubits(budget_w),
            "chips_per_tile": 1,
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Fig. 9
# ---------------------------------------------------------------------------


def default_fig9_configs() -> List[DigiQConfig]:
    """The DigiQ configurations whose bars Fig. 9 reports."""
    return [
        DigiQConfig.minimal(bitstreams=2),
        DigiQConfig.minimal(bitstreams=4),
        DigiQConfig.opt(bitstreams=4),
        DigiQConfig.opt(bitstreams=8),
        DigiQConfig.opt(bitstreams=16),
    ]


def fig9_execution_time(
    num_qubits: int = 64,
    benchmarks: Optional[Sequence[str]] = None,
    configs: Optional[Sequence[DigiQConfig]] = None,
    seed: int = 1,
    opt_level: int = 0,
) -> List[Dict[str, object]]:
    """Fig. 9 rows: normalised execution time per benchmark per configuration.

    ``opt_level`` selects the compiler pipeline; the paper-faithful figure
    uses ``-O0`` (raise it to measure how compiler optimization shifts the
    bars).
    """
    benchmarks = list(benchmarks) if benchmarks is not None else list(TABLE_IV_NAMES)
    configs = list(configs) if configs is not None else default_fig9_configs()
    coupling = smallest_grid_for(num_qubits)
    rows: List[Dict[str, object]] = []
    for name in benchmarks:
        circuit = build_benchmark(name, num_qubits=num_qubits, seed=seed)
        compiled = compile_circuit(circuit, coupling=coupling, seed=seed, opt_level=opt_level)
        rows.extend(
            normalized_execution_time(compiled, config, benchmark_name=name).as_row()
            for config in configs
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 10
# ---------------------------------------------------------------------------


def fig10_gate_errors(
    num_qubits: int = 16,
    num_couplers: int = 8,
    opt_config: Optional[DigiQConfig] = None,
    min_config: Optional[DigiQConfig] = None,
    benchmark_for_targets: str = "ising",
    seed: int = 5,
    cz_echo_pulses: int = 2,
) -> Dict[str, object]:
    """Fig. 10 data: per-qubit median 1q errors and per-coupler CZ errors.

    The paper evaluates 1024 qubits and 2048 couplers; ``num_qubits`` and
    ``num_couplers`` rescale the experiment (the per-qubit physics is
    identical, only the population size changes).
    """
    opt_config = opt_config or DigiQConfig.opt(bitstreams=8)
    min_config = min_config or DigiQConfig.minimal(bitstreams=2)

    coupling = smallest_grid_for(num_qubits)
    circuit = build_benchmark(benchmark_for_targets, num_qubits=num_qubits, seed=seed)
    # Paper-faithful compilation (-O0): the Fig. 10 gate targets must come
    # from the unoptimized Sec. VI-B flow, like the Fig. 9 bars.
    compiled = compile_circuit(circuit, coupling=coupling, seed=seed, opt_level=0)
    targets = gate_targets_from_circuit(compiled.physical_circuit, max_targets=12)

    results: Dict[str, object] = {}
    for label, config in (("DigiQ_opt", opt_config), ("DigiQ_min", min_config)):
        calibration = DeviceCalibration.calibrate(
            config, num_qubits=coupling.num_qubits, seed=seed
        )
        report = median_single_qubit_errors(
            calibration, targets=targets, qubits=range(min(num_qubits, calibration.num_qubits))
        )
        results[f"{label}_single_qubit"] = {
            "median_errors": list(report.median_errors),
            "overall_median": report.overall_median,
            "worst": report.worst,
            "fraction_above_1e-3": report.fraction_above(1e-3),
        }
        if label == "DigiQ_opt":
            couplers = [
                pair
                for pair in coupling.couplers()
                if calibration.sample(pair[0]).nominal_frequency
                != calibration.sample(pair[1]).nominal_frequency
            ][: max(0, num_couplers)]
            coupler_report = cz_errors_per_coupler(
                calibration,
                couplers,
                variability=VariabilityModel(seed=seed),
                n_pulses=cz_echo_pulses,
            )
            results["cz_per_coupler"] = {
                "couplers": list(coupler_report.couplers),
                "errors": list(coupler_report.errors),
                "uncalibrated_errors": list(coupler_report.uncalibrated_errors),
                "fraction_above_2e-3": coupler_report.fraction_above(0.002),
                "uncalibrated_fraction_above_2e-3": coupler_report.fraction_above(
                    0.002, calibrated=False
                ),
                "median_error": coupler_report.median_error,
            }
    return results
