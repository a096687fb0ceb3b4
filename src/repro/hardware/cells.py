"""RSFQ standard-cell library (Table III of the paper) and power model.

Table III gives, for each cell, the layout area, Josephson-junction (JJ)
count and switching delay obtained from the validated SFQ5ee cell library the
paper synthesised DigiQ with.  Two additional cells that the DigiQ datapath
needs but Table III does not list explicitly — the SFQ/DC converter used by
the two-qubit current generators and a generic JTL wiring segment — are
included with parameters taken from the RSFQ literature and are flagged as
extensions.

The power model has two calibrated coefficients:

* ``STATIC_POWER_PER_JJ_UW`` — static bias-resistor dissipation per JJ.  The
  value is calibrated so that a 300-bit storage register matches the paper's
  anchor of 5.01 mW/qubit for SFQ_MIMD_naive registers; it falls inside the
  0.2-0.6 uW/JJ range reported for conventional RSFQ biasing.
* ``WIRING_AREA_OVERHEAD`` — multiplicative factor accounting for PTL
  routing, bias lines and whitespace on top of raw cell area, calibrated so
  the same register matches the paper's 13.9 mm^2/qubit area anchor.

All areas are in um^2, delays in ps, powers in uW unless noted otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Energy dissipated per JJ switching event (J); the paper quotes ~1e-19 J.
SWITCHING_ENERGY_J = 1.0e-19

#: Static bias power per JJ in uW (calibrated; see module docstring).
STATIC_POWER_PER_JJ_UW = 0.4073

#: Layout/wiring overhead multiplier on raw cell area (calibrated).
WIRING_AREA_OVERHEAD = 4.029

#: Default SFQ chip clock frequency in GHz (40 ps period, Sec. VI-A.2).
DEFAULT_CLOCK_GHZ = 25.0


@dataclass(frozen=True)
class Cell:
    """One standard cell: name, layout area, JJ count, switching delay."""

    name: str
    area_um2: float
    jj_count: int
    delay_ps: float
    is_clocked: bool = True
    from_table3: bool = True

    def static_power_uw(self) -> float:
        """Static bias dissipation of one instance, in uW."""
        return self.jj_count * STATIC_POWER_PER_JJ_UW

    def dynamic_power_uw(self, clock_ghz: float = DEFAULT_CLOCK_GHZ, activity: float = 0.5) -> float:
        """Dynamic switching dissipation at the given clock and activity factor."""
        switches_per_second = clock_ghz * 1e9 * activity * self.jj_count
        return switches_per_second * SWITCHING_ENERGY_J * 1e6


#: The RSFQ cell library.  The first seven rows are Table III verbatim.
CELL_LIBRARY: Dict[str, Cell] = {
    cell.name: cell
    for cell in [
        Cell("AND2", area_um2=3500, jj_count=16, delay_ps=8.4),
        Cell("OR2", area_um2=3500, jj_count=14, delay_ps=6.1),
        Cell("XOR2", area_um2=3500, jj_count=18, delay_ps=5.8),
        Cell("NOT", area_um2=3500, jj_count=12, delay_ps=13.2),
        Cell("DRO_DFF", area_um2=3000, jj_count=11, delay_ps=6.2),
        Cell("NDRO_DFF", area_um2=4500, jj_count=18, delay_ps=9.3),
        Cell("SPLITTER", area_um2=2000, jj_count=6, delay_ps=7.1, is_clocked=False),
        # Extensions (not in Table III) -------------------------------------------
        Cell("SFQDC", area_um2=3000, jj_count=10, delay_ps=10.0, from_table3=False),
        Cell("JTL", area_um2=500, jj_count=2, delay_ps=1.75, is_clocked=False, from_table3=False),
        Cell("MERGER", area_um2=3000, jj_count=12, delay_ps=6.0, is_clocked=False, from_table3=False),
    ]
}

#: Names of the cells that come verbatim from Table III (used by tests).
TABLE3_CELLS = tuple(name for name, cell in CELL_LIBRARY.items() if cell.from_table3)


def get_cell(name: str) -> Cell:
    """Look up a cell by name (case-insensitive)."""
    key = name.upper()
    try:
        return CELL_LIBRARY[key]
    except KeyError:
        raise KeyError(f"unknown RSFQ cell '{name}'; known cells: {sorted(CELL_LIBRARY)}") from None


def table3_rows() -> list:
    """Table III as a list of dict rows (for the analysis/report layer)."""
    return [
        {
            "cell": cell.name,
            "area_um2": cell.area_um2,
            "jj_count": cell.jj_count,
            "delay_ps": cell.delay_ps,
        }
        for cell in CELL_LIBRARY.values()
        if cell.from_table3
    ]
