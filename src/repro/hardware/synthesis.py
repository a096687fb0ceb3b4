"""SFQ synthesis model: path balancing, splitter insertion, cost reports.

SFQ logic gates are clocked: every gate consumes its inputs on a clock pulse,
so all reconvergent paths into a gate must traverse the same number of clocked
stages.  The synthesis flow of the paper (PBMap + full path balancing) makes
that true by inserting DRO DFFs on the shorter paths; nets with fan-out larger
than one additionally need splitter trees since an SFQ pulse can only drive a
single input.  Both effects are large contributors to total area/power and are
modelled here as post-processing passes over a :class:`~repro.hardware.netlist.Netlist`.

:func:`synthesize` runs the passes and returns a :class:`SynthesisReport` with
cell counts (including inserted DFFs and splitters), area, power and the
critical-path delay — the quantities Fig. 8 is built from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .cells import (
    DEFAULT_CLOCK_GHZ,
    WIRING_AREA_OVERHEAD,
    get_cell,
)
from .netlist import OUTPUT, Netlist


@dataclass
class SynthesisReport:
    """Cost summary of a synthesised netlist."""

    name: str
    cell_counts: Counter
    balancing_dffs: int
    splitters_inserted: int
    area_mm2: float
    static_power_mw: float
    dynamic_power_mw: float
    critical_path_ps: float
    max_stage_delay_ps: float
    clock_ghz: float

    @property
    def total_power_mw(self) -> float:
        """Static plus dynamic power in mW."""
        return self.static_power_mw + self.dynamic_power_mw

    @property
    def jj_count(self) -> int:
        """Total JJ count over all cells."""
        return sum(
            get_cell(cell).jj_count * count
            for cell, count in self.cell_counts.items()
        )

    def scaled(self, copies: int, name: Optional[str] = None) -> "SynthesisReport":
        """Cost of ``copies`` identical instances of this block."""
        if copies < 0:
            raise ValueError("copies must be non-negative")
        counts = Counter({cell: count * copies for cell, count in self.cell_counts.items()})
        return SynthesisReport(
            name=name or f"{self.name}_x{copies}",
            cell_counts=counts,
            balancing_dffs=self.balancing_dffs * copies,
            splitters_inserted=self.splitters_inserted * copies,
            area_mm2=self.area_mm2 * copies,
            static_power_mw=self.static_power_mw * copies,
            dynamic_power_mw=self.dynamic_power_mw * copies,
            critical_path_ps=self.critical_path_ps,
            max_stage_delay_ps=self.max_stage_delay_ps,
            clock_ghz=self.clock_ghz,
        )


def insert_path_balancing_dffs(netlist: Netlist) -> int:
    """Count (and conceptually insert) the DRO DFFs needed for full path balancing.

    For every edge from a node at logic level ``l_src`` into a clocked cell at
    level ``l_dst``, the data must be delayed by ``l_dst - l_src - 1`` extra
    clocked stages; each such stage is one DRO DFF.  The function returns the
    total number of balancing DFFs (the caller accounts for them in the cost
    report; the netlist object itself is left untouched so the structural
    blocks stay readable).
    """
    levels = netlist.logic_levels()
    total = 0
    for node in netlist.nodes():
        if node.is_primary:
            continue
        cell = node.cell
        if cell is None or not cell.is_clocked:
            continue
        for source in netlist.fanin(node.node_id):
            gap = levels[node.node_id] - levels[source] - 1
            if gap > 0:
                total += gap
    # Primary outputs must also be aligned to the deepest level so that all
    # output bits of a block emerge on the same cycle.
    output_levels = [levels[o] for o in netlist.primary_outputs()]
    if output_levels:
        deepest = max(output_levels)
        total += sum(deepest - level for level in output_levels)
    return total


def insert_splitters(netlist: Netlist) -> int:
    """Number of splitters needed to serve every multi-fanout net.

    An SFQ pulse drives exactly one input, so a net with fanout ``k`` needs a
    binary splitter tree with ``k - 1`` splitters.  Splitter cells themselves
    natively provide two outputs, so an explicit splitter node only needs
    extra tree cells once its fanout exceeds two.
    """
    total = 0
    for node in netlist.nodes():
        if node.cell_type == OUTPUT:
            continue
        fanout = len(netlist.fanout(node.node_id))
        native_outputs = 2 if node.cell_type == "SPLITTER" else 1
        if fanout > native_outputs:
            total += fanout - native_outputs
    return total


def synthesize(
    netlist: Netlist,
    clock_ghz: float = DEFAULT_CLOCK_GHZ,
    activity: float = 0.5,
) -> SynthesisReport:
    """Run the SFQ synthesis cost model on a netlist.

    The report includes the explicit cells of the netlist plus the inserted
    path-balancing DFFs and splitters, with area scaled by the calibrated
    wiring overhead and power split into static and dynamic components.
    """
    counts = netlist.cell_counts()
    balancing = insert_path_balancing_dffs(netlist)
    splitters = insert_splitters(netlist)
    counts = Counter(counts)
    if balancing:
        counts["DRO_DFF"] += balancing
    if splitters:
        counts["SPLITTER"] += splitters

    area_um2 = 0.0
    static_uw = 0.0
    dynamic_uw = 0.0
    max_stage = 0.0
    for cell_name, count in counts.items():
        cell = get_cell(cell_name)
        area_um2 += cell.area_um2 * count
        static_uw += cell.static_power_uw() * count
        dynamic_uw += cell.dynamic_power_uw(clock_ghz, activity) * count
        max_stage = max(max_stage, cell.delay_ps)

    levels = netlist.logic_levels()
    depth = max(levels.values()) if levels else 0
    critical_path_ps = depth * (1000.0 / clock_ghz)  # one clock period per stage

    return SynthesisReport(
        name=netlist.name,
        cell_counts=counts,
        balancing_dffs=balancing,
        splitters_inserted=splitters,
        area_mm2=area_um2 * WIRING_AREA_OVERHEAD * 1e-6,
        static_power_mw=static_uw * 1e-3,
        dynamic_power_mw=dynamic_uw * 1e-3,
        critical_path_ps=critical_path_ps,
        max_stage_delay_ps=max_stage,
        clock_ghz=clock_ghz,
    )
