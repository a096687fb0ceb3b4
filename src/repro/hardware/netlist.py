"""Gate-level netlist representation for SFQ synthesis modelling.

A :class:`Netlist` is a DAG of cell instances plus primary inputs/outputs.
It is deliberately structural — no logic function is attached to nodes —
because the downstream synthesis passes (:mod:`repro.hardware.synthesis`)
only need connectivity, cell identity and fan-out to reproduce the SFQ cost
model: full path balancing inserts DRO DFFs on unbalanced edges and splitter
trees serve nets with fan-out greater than one.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from .cells import Cell, get_cell

#: Pseudo cell types for primary inputs/outputs (zero cost).
INPUT = "INPUT"
OUTPUT = "OUTPUT"


@dataclass
class Node:
    """One netlist node: a cell instance or a primary input/output."""

    node_id: int
    cell_type: str
    name: str = ""

    @property
    def is_primary(self) -> bool:
        return self.cell_type in (INPUT, OUTPUT)

    @property
    def cell(self) -> Optional[Cell]:
        """The library cell, or None for primary inputs/outputs."""
        if self.is_primary:
            return None
        return get_cell(self.cell_type)


class Netlist:
    """A directed acyclic graph of SFQ cell instances."""

    def __init__(self, name: str = "netlist"):
        self.name = name
        self._nodes: Dict[int, Node] = {}
        self._fanout: Dict[int, List[int]] = defaultdict(list)
        self._fanin: Dict[int, List[int]] = defaultdict(list)
        self._next_id = 0

    # -- construction -------------------------------------------------------------

    def add_node(self, cell_type: str, name: str = "") -> int:
        """Add a cell instance (or INPUT/OUTPUT) and return its node id."""
        if cell_type not in (INPUT, OUTPUT):
            get_cell(cell_type)  # validate early
        node_id = self._next_id
        self._next_id += 1
        self._nodes[node_id] = Node(node_id=node_id, cell_type=cell_type, name=name)
        return node_id

    def add_input(self, name: str = "") -> int:
        """Add a primary input."""
        return self.add_node(INPUT, name)

    def add_output(self, name: str = "") -> int:
        """Add a primary output."""
        return self.add_node(OUTPUT, name)

    def connect(self, source: int, sink: int) -> None:
        """Add a directed connection from ``source`` to ``sink``."""
        if source not in self._nodes or sink not in self._nodes:
            raise KeyError("both endpoints must be existing nodes")
        if source == sink:
            raise ValueError("self-loops are not allowed in a netlist")
        self._fanout[source].append(sink)
        self._fanin[sink].append(source)

    def merge(self, other: "Netlist") -> Dict[int, int]:
        """Copy another netlist into this one; returns old-id -> new-id map."""
        mapping: Dict[int, int] = {}
        for node in other.nodes():
            mapping[node.node_id] = self.add_node(node.cell_type, node.name)
        for source, sinks in other._fanout.items():
            for sink in sinks:
                self.connect(mapping[source], mapping[sink])
        return mapping

    # -- queries ------------------------------------------------------------------

    def nodes(self) -> List[Node]:
        """All nodes in insertion order."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def fanout(self, node_id: int) -> List[int]:
        """Sinks driven by a node."""
        return list(self._fanout.get(node_id, []))

    def fanin(self, node_id: int) -> List[int]:
        """Sources driving a node."""
        return list(self._fanin.get(node_id, []))

    def cell_counts(self) -> Counter:
        """Histogram of cell types (primary I/O excluded)."""
        return Counter(
            node.cell_type for node in self._nodes.values() if not node.is_primary
        )

    def primary_outputs(self) -> List[int]:
        return [n.node_id for n in self._nodes.values() if n.cell_type == OUTPUT]

    # -- structural analysis ------------------------------------------------------

    def topological_order(self) -> List[int]:
        """Topological order of all nodes; raises if the graph has a cycle."""
        indegree = {node_id: len(self._fanin.get(node_id, [])) for node_id in self._nodes}
        queue = deque(node_id for node_id, deg in indegree.items() if deg == 0)
        order: List[int] = []
        while queue:
            node_id = queue.popleft()
            order.append(node_id)
            for sink in self._fanout.get(node_id, []):
                indegree[sink] -= 1
                if indegree[sink] == 0:
                    queue.append(sink)
        if len(order) != len(self._nodes):
            raise ValueError("netlist contains a combinational cycle")
        return order

    def logic_levels(self) -> Dict[int, int]:
        """Logic level of every node: longest clocked-cell path from any input.

        Primary inputs sit at level 0; every clocked cell is one level deeper
        than its deepest fanin; unclocked cells (splitters, JTLs) inherit
        their deepest fanin level.  These levels drive path balancing.
        """
        levels: Dict[int, int] = {}
        for node_id in self.topological_order():
            node = self._nodes[node_id]
            fanin_levels = [levels[src] for src in self._fanin.get(node_id, [])]
            base = max(fanin_levels) if fanin_levels else 0
            if node.is_primary:
                levels[node_id] = base
            elif node.cell is not None and node.cell.is_clocked:
                levels[node_id] = base + 1
            else:
                levels[node_id] = base
        return levels
