"""Initial placement of logical qubits onto physical qubits.

Two strategies are provided:

* ``trivial`` — logical qubit ``i`` goes to physical qubit ``i`` (row-major).
* ``snake`` — logical qubits are laid out along a boustrophedon path over the
  grid, so that logically-adjacent qubits (the common case for the linear
  registers used by the benchmarks) are physically adjacent as well.

The layout object keeps the forward and inverse maps and is updated in place
by the SWAP router as it permutes logical qubits across the device.
"""

from __future__ import annotations

from typing import Dict, List

from ..circuits.circuit import QuantumCircuit
from .coupling import CouplingMap


class Layout:
    """A bijection between logical qubits and physical qubits."""

    def __init__(self, logical_to_physical: Dict[int, int], num_physical: int):
        self._l2p = dict(logical_to_physical)
        if len(set(self._l2p.values())) != len(self._l2p):
            raise ValueError("layout maps two logical qubits to the same physical qubit")
        for physical in self._l2p.values():
            if not 0 <= physical < num_physical:
                raise ValueError(f"physical qubit {physical} outside device")
        self.num_physical = num_physical
        self._p2l = {p: l for l, p in self._l2p.items()}

    # -- queries ------------------------------------------------------------------

    def physical(self, logical: int) -> int:
        """Physical qubit currently holding ``logical``."""
        return self._l2p[logical]

    # -- mutation -----------------------------------------------------------------

    def swap_physical(self, physical_a: int, physical_b: int) -> None:
        """Swap the logical contents of two physical qubits (used by the router)."""
        logical_a = self._p2l.get(physical_a)
        logical_b = self._p2l.get(physical_b)
        if logical_a is not None:
            self._l2p[logical_a] = physical_b
            self._p2l[physical_b] = logical_a
        else:
            self._p2l.pop(physical_b, None)
        if logical_b is not None:
            self._l2p[logical_b] = physical_a
            self._p2l[physical_a] = logical_b
        else:
            self._p2l.pop(physical_a, None)

    def copy(self) -> "Layout":
        """An independent copy of this layout.

        Copies of a valid layout are valid by construction, so this skips
        the public constructor's bijection/range validation — the router
        copies layouts in its inner loop.
        """
        return Layout._from_maps(dict(self._l2p), dict(self._p2l), self.num_physical)

    @classmethod
    def _from_maps(
        cls, l2p: Dict[int, int], p2l: Dict[int, int], num_physical: int
    ) -> "Layout":
        """Unchecked constructor from already-consistent maps (internal)."""
        layout = object.__new__(cls)
        layout._l2p = l2p
        layout._p2l = p2l
        layout.num_physical = num_physical
        return layout


def trivial_layout(circuit: QuantumCircuit, coupling: CouplingMap) -> Layout:
    """Place logical qubit ``i`` on physical qubit ``i``."""
    _check_fits(circuit, coupling)
    return Layout({i: i for i in range(circuit.num_qubits)}, coupling.num_qubits)


def snake_layout(circuit: QuantumCircuit, coupling: CouplingMap) -> Layout:
    """Place logical qubits along the device's adjacency-friendly path.

    On the grid this is the boustrophedon (snake) path, where every
    consecutive pair of logical qubits lands on physically adjacent qubits;
    other topologies provide their own :meth:`~repro.compiler.coupling.CouplingMap.layout_order`.
    """
    _check_fits(circuit, coupling)
    order: List[int] = coupling.layout_order()
    mapping = {logical: order[logical] for logical in range(circuit.num_qubits)}
    return Layout(mapping, coupling.num_qubits)


#: Named initial-placement strategies; the single source of truth for what
#: the compiler pipeline and the runtime's CompileOptions accept.
LAYOUT_STRATEGIES = {
    "trivial": trivial_layout,
    "snake": snake_layout,
}


def build_layout(circuit: QuantumCircuit, coupling: CouplingMap, strategy: str = "snake") -> Layout:
    """Build an initial layout using the named strategy (``trivial`` or ``snake``)."""
    try:
        builder = LAYOUT_STRATEGIES[strategy.lower()]
    except KeyError:
        raise ValueError(
            f"unknown layout strategy '{strategy}'; known: {sorted(LAYOUT_STRATEGIES)}"
        ) from None
    return builder(circuit, coupling)


def _check_fits(circuit: QuantumCircuit, coupling: CouplingMap) -> None:
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits but the device has only "
            f"{coupling.num_qubits}"
        )
