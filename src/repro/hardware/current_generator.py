"""SFQ/DC current-generator model (Fig. 4 of the paper).

The DigiQ two-qubit gate needs an electrical current pulse that threads flux
through the tunable transmon's SQUID loop.  The paper generates this current
inside the fridge with an array of SFQ/DC converters feeding an R1/R2/C1
output network and a superconducting microstrip flex line to the quantum chip
(Fig. 4(a)); JSIM simulation of that circuit produces the rise/plateau/fall
waveform of Fig. 4(b), reaching roughly 1.1-1.2 mA with 25 converters enabled.

The paper's downstream analyses only consume that waveform, so this module
substitutes the JSIM transistor-level simulation with a first-order ODE model
of the same output network:

* each enabled SFQ/DC converter acts as a DC voltage source of value
  ``PHI0 * f_clk`` (one flux quantum released per clock period) behind its
  own series resistance ``R1``; the converters drive the output node in
  parallel, so enabling more converters stiffens the source without raising
  its open-circuit voltage;
* the load branch is ``R2`` in series with the superconducting microstrip
  flex line (modelled as an inductance ``L_flex``), shunted by the filter
  capacitor ``C1``.

With the paper's component values (R1 = R2 = 0.05 ohm, C1 = 10 nF, 25
converters, 25 GHz clock) the model reproduces the ~1 mA plateau amplitude
and the few-ns rise/fall of Fig. 4(b); the rise time is dominated by the
``L_flex / (R1_parallel + R2)`` time constant of the flex line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..physics.constants import PHI0_MV_PS


@dataclass(frozen=True)
class CurrentGeneratorDesign:
    """Component values of the Fig. 4(a) current generator.

    Parameters
    ----------
    num_converters:
        Number of SFQ/DC converter blocks enabled (the paper enables 25).
    r1_ohm, r2_ohm:
        Per-converter source resistance and load resistance (0.05 ohm each in
        the paper).
    c1_nf:
        Filter capacitance (10 nF in the paper).
    clock_ghz:
        SFQ chip clock frequency driving the converters (25 GHz = 40 ps).
    flex_inductance_nh:
        Series inductance of the superconducting microstrip flex line to the
        quantum chip, in nH.
    """

    num_converters: int = 25
    r1_ohm: float = 0.05
    r2_ohm: float = 0.05
    c1_nf: float = 10.0
    clock_ghz: float = 25.0
    flex_inductance_nh: float = 0.05

    def __post_init__(self) -> None:
        if self.num_converters < 1:
            raise ValueError("need at least one SFQ/DC converter")
        if self.r1_ohm <= 0 or self.r2_ohm <= 0:
            raise ValueError("resistances must be positive")
        if self.c1_nf <= 0:
            raise ValueError("capacitance must be positive")
        if self.clock_ghz <= 0:
            raise ValueError("clock frequency must be positive")
        if self.flex_inductance_nh < 0:
            raise ValueError("flex-line inductance must be non-negative")

    @property
    def converter_voltage_mv(self) -> float:
        """DC voltage produced by one running SFQ/DC converter, in mV.

        An SFQ/DC converter releases one flux quantum per clock period, so its
        time-averaged output voltage is ``Phi0 * f_clk``.  With Phi0 in
        mV*ps and the clock in GHz (1/ns), the product needs a factor of
        1e-3 to land in mV (ps * GHz = 1e-3).
        """
        return PHI0_MV_PS * self.clock_ghz * 1e-3

    @property
    def source_voltage_mv(self) -> float:
        """Open-circuit voltage of the converter array.

        The converters drive the output node in parallel, so the open-circuit
        voltage is that of a single converter; adding converters lowers the
        effective source resistance instead.
        """
        return self.converter_voltage_mv

    @property
    def source_resistance_ohm(self) -> float:
        """Effective source resistance of the parallel converter array."""
        return self.r1_ohm / self.num_converters

    @property
    def steady_state_current_ma(self) -> float:
        """Plateau current into the load once the transient has settled, in mA.

        mV / ohm = mA, so no unit conversion is needed.  With the paper's
        component values this is just above 1 mA, matching Fig. 4(b).
        """
        return self.source_voltage_mv / (self.source_resistance_ohm + self.r2_ohm)

    @property
    def time_constant_ns(self) -> float:
        """Dominant time constant of the load-current transient, in ns.

        Two first-order effects contribute: the C1 filter charging through
        the parallel combination of source and load resistances
        (``ohm * nF = ns``), and the flex-line inductance charging through
        the total series resistance (``nH / ohm = ns``).  The latter
        dominates with the paper's component values and sets the few-ns rise
        of Fig. 4(b).
        """
        r_source = self.source_resistance_ohm
        rc = (r_source * self.r2_ohm) / (r_source + self.r2_ohm) * self.c1_nf
        rl = self.flex_inductance_nh / (r_source + self.r2_ohm)
        return rc + rl


@dataclass(frozen=True)
class CurrentWaveform:
    """A sampled current waveform.

    Attributes
    ----------
    times_ns:
        Sample times in ns (uniform spacing).
    currents_ma:
        Load current at each sample time, in mA.
    """

    times_ns: np.ndarray
    currents_ma: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times_ns, dtype=float)
        currents = np.asarray(self.currents_ma, dtype=float)
        if times.shape != currents.shape or times.ndim != 1:
            raise ValueError("times and currents must be 1-D arrays of equal length")
        object.__setattr__(self, "times_ns", times)
        object.__setattr__(self, "currents_ma", currents)

    @property
    def dt_ns(self) -> float:
        """Sample spacing in ns."""
        if self.times_ns.size < 2:
            return 0.0
        return float(self.times_ns[1] - self.times_ns[0])

    @property
    def peak_current_ma(self) -> float:
        """Maximum instantaneous current, in mA."""
        return float(self.currents_ma.max()) if self.currents_ma.size else 0.0

    def plateau_current_ma(self, fraction: float = 0.95) -> float:
        """Mean current over the samples above ``fraction`` of the peak."""
        if self.currents_ma.size == 0:
            return 0.0
        peak = self.peak_current_ma
        if peak <= 0:
            return 0.0
        mask = self.currents_ma >= fraction * peak
        return float(self.currents_ma[mask].mean())

    def rise_time_ns(self, low: float = 0.1, high: float = 0.9) -> float:
        """10-90 % (by default) rise time of the leading edge, in ns."""
        if not 0.0 <= low < high <= 1.0:
            raise ValueError("need 0 <= low < high <= 1")
        peak = self.peak_current_ma
        if peak <= 0:
            return 0.0
        above_low = np.flatnonzero(self.currents_ma >= low * peak)
        above_high = np.flatnonzero(self.currents_ma >= high * peak)
        if above_low.size == 0 or above_high.size == 0:
            return 0.0
        return float(self.times_ns[above_high[0]] - self.times_ns[above_low[0]])

    def scaled(self, factor: float) -> "CurrentWaveform":
        """A copy with every current sample multiplied by ``factor``.

        Used to apply the sigma = 1 % current-generator amplitude error.
        """
        return CurrentWaveform(self.times_ns.copy(), self.currents_ma * factor)


def simulate_waveform(
    design: Optional[CurrentGeneratorDesign] = None,
    on_time_ns: float = 40.0,
    total_time_ns: float = 70.0,
    dt_ns: float = 0.05,
    start_time_ns: float = 5.0,
) -> CurrentWaveform:
    """Simulate the Fig. 4(b) current waveform.

    The SFQ/DC converters are switched on at ``start_time_ns`` and off again
    after ``on_time_ns``; the load current follows the first-order response of
    the R1/R2/C1 output network.  The defaults reproduce the 70 ns window of
    Fig. 4(b) with an approximately 40 ns plateau.
    """
    design = design or CurrentGeneratorDesign()
    if dt_ns <= 0:
        raise ValueError("dt_ns must be positive")
    if on_time_ns <= 0 or total_time_ns <= 0:
        raise ValueError("durations must be positive")
    if start_time_ns < 0:
        raise ValueError("start_time_ns must be non-negative")
    if start_time_ns + on_time_ns > total_time_ns:
        raise ValueError("the on-window must fit inside the total simulation window")

    times = np.arange(0.0, total_time_ns, dt_ns)
    i_ss = design.steady_state_current_ma
    tau = design.time_constant_ns
    currents = np.zeros_like(times)

    on = (times >= start_time_ns) & (times < start_time_ns + on_time_ns)
    currents[on] = i_ss * (1.0 - np.exp(-(times[on] - start_time_ns) / tau))

    off = times >= start_time_ns + on_time_ns
    if np.any(off):
        # Current at the moment the converters switch off.
        i_off = i_ss * (1.0 - math.exp(-on_time_ns / tau))
        currents[off] = i_off * np.exp(-(times[off] - (start_time_ns + on_time_ns)) / tau)

    return CurrentWaveform(times_ns=times, currents_ma=currents)


def cz_pulse_waveform(
    duration_ns: float = 60.0,
    design: Optional[CurrentGeneratorDesign] = None,
    dt_ns: float = 0.05,
    amplitude_scale: float = 1.0,
) -> CurrentWaveform:
    """A CZ flux pulse of total length ``duration_ns`` (the paper uses 60 ns).

    The converters are enabled for the whole window minus a short tail so the
    current has decayed by the end of the pulse; ``amplitude_scale`` applies
    the per-generator hardware error of the variability model.
    """
    if duration_ns <= 2.0:
        raise ValueError("CZ pulse must be longer than 2 ns")
    design = design or CurrentGeneratorDesign()
    tail_ns = min(6.0, 0.2 * duration_ns)
    waveform = simulate_waveform(
        design=design,
        on_time_ns=duration_ns - tail_ns,
        total_time_ns=duration_ns,
        dt_ns=dt_ns,
        start_time_ns=0.0,
    )
    if amplitude_scale != 1.0:
        waveform = waveform.scaled(amplitude_scale)
    return waveform
