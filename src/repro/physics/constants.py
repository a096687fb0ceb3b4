"""Physical constants and unit conventions used throughout the physics substrate.

Unit conventions
----------------
The physics substrate works in the following units unless a function documents
otherwise:

* frequency: GHz (plain, not angular)
* time: ns
* energy: expressed as frequency (h = 1), i.e. GHz
* current: mA
* flux: units of the superconducting flux quantum ``PHI0``

With these conventions, a phase accumulated by free evolution over a time ``t``
at frequency ``f`` is ``2 * pi * f * t`` (dimensionless radians), since
GHz * ns = 1.
"""

from __future__ import annotations

import math

#: Superconducting flux quantum, h / 2e, in mV * ps (the paper quotes 2.07 mV*ps).
PHI0_MV_PS = 2.07

#: Superconducting flux quantum in Wb (SI), for reference conversions.
PHI0_WB = 2.067833848e-15

#: Planck constant in J*s (SI), for reference conversions.
PLANCK_H = 6.62607015e-34

#: Default SFQ chip clock period used by DigiQ, in ns (40 ps, Sec. VI-A.2).
DEFAULT_SFQ_CLOCK_PERIOD_NS = 0.040

#: Default transmon anharmonicity used in the paper's two-qubit model, in GHz
#: (the paper uses 250 MHz, negative by convention for transmons).
DEFAULT_ANHARMONICITY_GHZ = -0.250

#: Default capacitive coupling strength between neighbouring transmons, in GHz
#: (the paper uses 10 MHz).
DEFAULT_COUPLING_GHZ = 0.010

#: The three optimal parking frequencies reported in Table II of the paper, GHz.
PAPER_PARKING_FREQUENCIES_GHZ = (6.21286, 5.02978, 4.14238)

#: Drift tolerance intervals (half-width, GHz) for the Table II parking
#: frequencies, for Rz error <= 1e-4 with N = 255.
PAPER_PARKING_DRIFT_TOLERANCE_GHZ = (0.01282, 0.01049, 0.00820)

TWO_PI = 2.0 * math.pi
