"""The figure and table drivers of :mod:`repro.analysis` run and agree with
the models they wrap.

The Fig. 9 driver must be nothing but a loop of
:func:`~repro.core.execution.normalized_execution_time` over the configs, on
the paper-faithful ``-O0`` compile of each benchmark.  The Fig. 4(b) current
waveform must have the shape the paper plots: zero before and after the
pulse, a monotone rise while the converters are on, and a peak that grows
with their number.
"""

import numpy as np
import pytest

from repro.analysis import figures, tables
from repro.circuits.benchmarks import build_benchmark
from repro.compiler.coupling import smallest_grid_for
from repro.compiler.pipeline import compile_circuit
from repro.core.architecture import design_space_table
from repro.core.execution import normalized_execution_time


def test_fig9_rows_are_normalized_execution_times_over_the_default_configs():
    benchmarks = ("bv", "ising")
    rows = figures.fig9_execution_time(num_qubits=16, benchmarks=benchmarks)
    coupling = smallest_grid_for(16)
    expected = []
    for name in benchmarks:
        circuit = build_benchmark(name, num_qubits=16, seed=1)
        compiled = compile_circuit(circuit, coupling=coupling, seed=1, opt_level=0)
        expected.extend(
            normalized_execution_time(compiled, config, benchmark_name=name).as_row()
            for config in figures.default_fig9_configs()
        )
    assert rows == expected


DRIVERS = [
    (figures.fig8_hardware_cost, {}),
    (figures.fig8_same_bsg_comparison, {}),
    (figures.scalability_summary, {}),
    (design_space_table, {}),
    (tables.cell_library_table, {}),
    (tables.parking_frequency_table_rows, {}),
    (tables.benchmark_table, {"num_qubits": 16}),
]


@pytest.mark.parametrize(
    "driver,kwargs", DRIVERS, ids=[driver.__name__ for driver, _ in DRIVERS]
)
def test_driver_returns_rows(driver, kwargs):
    rows = driver(**kwargs)
    assert rows
    assert all(isinstance(row, dict) and row for row in rows)


#: Fig. 4(b)'s peak current (mA) at each SFQ/DC converter count.
FIG4_PEAKS_MA = {5: 0.8625, 10: 0.9409, 25: 0.9952, 50: 1.0147}


def test_fig4_waveform_rises_over_the_on_window_and_returns_to_zero():
    waveforms = {n: figures.fig4_current_waveform(num_converters=n) for n in FIG4_PEAKS_MA}
    for n, waveform in waveforms.items():
        times, currents = waveform["times_ns"], waveform["currents_ma"]
        assert times[0] == 0.0 and currents[0] == 0.0
        assert times[-1] == pytest.approx(70.0, abs=0.1)
        assert abs(currents[-1]) < 1e-9
        assert np.all(np.diff(currents[times <= 40.0]) >= 0.0)
        assert waveform["peak_current_ma"] == pytest.approx(FIG4_PEAKS_MA[n], abs=1e-4)
        assert 2.05 - 1e-9 <= waveform["rise_time_ns"] <= 2.15 + 1e-9
    peaks = [waveforms[n]["peak_current_ma"] for n in sorted(waveforms)]
    assert peaks == sorted(peaks) and len(set(peaks)) == len(peaks)
