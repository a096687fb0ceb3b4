"""Deterministic lookahead SWAP routing.

An alternative to the stochastic router (:mod:`repro.compiler.routing`): when
a two-qubit gate addresses non-adjacent physical qubits, every candidate
(canonical shortest L-path, meeting coupler) pair is scored by how close it
leaves the operands of the *upcoming* two-qubit gates, with geometrically
decaying weights.  The cheapest candidate wins; ties break deterministically,
so the routed circuit is a pure function of its input — no seed, no trials.

The SWAP count of the current gate is identical for every candidate (it is
``len(path) - 2``); the lookahead pays off on *later* gates, whose operands
end up closer together, which shrinks total SWAPs and therefore CZ count and
scheduled depth.  This is the ``-O2`` router of
:mod:`repro.compiler.pipeline`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gate import fast_gate
from .coupling import CouplingMap
from .layout import Layout
from .passes import PropertySet, TransformationPass
from .routing import RoutingResult, insert_swaps_along_path

#: Two-qubit gates considered by the scoring window, by default.
DEFAULT_LOOKAHEAD = 8

#: Weight decay per position in the lookahead window.
DEFAULT_DECAY = 0.6


def lookahead_route_circuit(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    layout: Layout,
    lookahead: int = DEFAULT_LOOKAHEAD,
    decay: float = DEFAULT_DECAY,
) -> RoutingResult:
    """Route a circuit with deterministic lookahead-scored SWAP insertion.

    All gates in the input must act on at most two qubits (decompose
    three-qubit gates first).
    """
    for gate in circuit:
        if gate.num_qubits > 2:
            raise ValueError(
                f"routing requires <= 2-qubit gates, found '{gate.name}' on {gate.qubits}; "
                "run decompose_to_two_qubit_gates first"
            )
    if lookahead < 0:
        raise ValueError("lookahead must be >= 0")
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must be in (0, 1]")

    initial_layout = layout.copy()
    routed = QuantumCircuit(coupling.num_qubits, name=f"{circuit.name}_routed")
    num_swaps = 0

    # Logical operand pairs of every two-qubit gate, in program order; the
    # scoring window for the gate at two-qubit position ``i`` is
    # ``pairs[i + 1 : i + 1 + lookahead]``.
    pairs: List[Tuple[int, int]] = [
        (gate.qubits[0], gate.qubits[1]) for gate in circuit if gate.is_two_qubit
    ]

    # Hot-loop locals: the layout's forward map is mutated in place by
    # insert_swaps_along_path, so holding the dict itself is safe; every
    # emitted gate is library-valid with in-range physical operands, so the
    # unchecked append applies.
    l2p = layout._l2p
    adjacency = coupling._adjacency
    append = routed._append_fast

    position = 0  # index into ``pairs`` of the next two-qubit gate
    for gate in circuit:
        qubits = gate.qubits
        if len(qubits) == 1:
            physical = l2p[qubits[0]]
            append(
                gate
                if physical == qubits[0]
                else fast_gate(gate.name, (physical,), gate.params)
            )
            continue

        logical_a, logical_b = qubits
        physical_a = l2p[logical_a]
        physical_b = l2p[logical_b]
        if physical_b not in adjacency[physical_a]:
            window = pairs[position + 1 : position + 1 + lookahead]
            path, meeting = _best_candidate(
                coupling, layout, physical_a, physical_b, window, decay
            )
            num_swaps += insert_swaps_along_path(routed, layout, path, meeting)
            physical_a = l2p[logical_a]
            physical_b = l2p[logical_b]
        append(fast_gate(gate.name, (physical_a, physical_b), gate.params))
        position += 1

    return RoutingResult(
        circuit=routed,
        initial_layout=initial_layout,
        final_layout=layout,
        num_swaps=num_swaps,
    )


def _best_candidate(
    coupling: CouplingMap,
    layout: Layout,
    start: int,
    end: int,
    window: List[Tuple[int, int]],
    decay: float,
) -> Tuple[Sequence[int], int]:
    """The (path, meeting) candidate minimising the lookahead cost.

    Candidates are the coupling map's deterministic candidate paths (the
    canonical L-paths on the grid) times every meeting coupler on the path.
    Cost is the decay-weighted sum of post-SWAP distances between the
    operands of the upcoming two-qubit gates.  Ties break on the first
    candidate in enumeration order, keeping the router deterministic.

    Batched scoring: instead of copying the layout and replaying the SWAP
    walk per candidate, the candidate permutation is evaluated in closed
    form on only the path's qubits — the occupant at path index ``i`` lands
    at ``path[meeting]`` (i == 0), ``path[i - 1]`` (1 <= i <= meeting),
    ``path[meeting + 1]`` (i == last) or ``path[i + 1]`` otherwise — and
    every meeting of a path is scored at once: each window pair contributes
    one numpy gather over the flattened :meth:`CouplingMap.distance_matrix`
    at its per-meeting landing positions.  Window pairs with no operand on
    any candidate path keep the same distance under every candidate, so
    they shift all costs by one common constant and are skipped outright.
    Per-pair terms accumulate in the same order as the scalar loop did
    (pair by pair, one fused multiply-add over the meetings axis), so every
    cost is byte-identical and the argmin — with its deterministic
    tie-break — never changes; ``tests/compiler/test_lookahead_scorer.py``
    cross-checks it against the replay implementation.
    """
    paths = coupling.cached_candidate_paths(start, end)
    if not window:
        return paths[0], 0

    movable = set()
    for path in paths:
        movable.update(path)

    l2p = layout._l2p
    # (weight, physical_a, physical_b) for window pairs the candidate
    # permutation can actually move; weights decay over the *full* window,
    # exactly as the reference accumulates them.
    relevant = []
    weight = 1.0
    for logical_a, logical_b in window:
        physical_a = l2p[logical_a]
        physical_b = l2p[logical_b]
        if physical_a in movable or physical_b in movable:
            relevant.append((weight, physical_a, physical_b))
        weight *= decay
    if not relevant:
        return paths[0], 0

    n = coupling.num_qubits
    flat = coupling.distance_matrix().ravel()
    best_path: Sequence[int] = paths[0]
    best_meeting = 0
    best_cost = None
    for path in paths:
        last = len(path) - 1
        path_arr = np.asarray(path, dtype=np.intp)
        index_of = {physical: i for i, physical in enumerate(path)}
        meetings = (
            np.arange(last, dtype=np.intp) if last >= 2
            else np.zeros(1, dtype=np.intp)
        )
        landings: dict = {}

        def landing(physical: int):
            # Per-meeting landing position of one operand; off-path operands
            # stay put (a scalar broadcasts over the meetings axis).
            i = index_of.get(physical)
            if i is None:
                return physical
            cached = landings.get(i)
            if cached is None:
                if i == 0:
                    cached = path_arr[meetings]
                elif i == last:
                    cached = path_arr[meetings + 1]
                else:
                    cached = np.where(
                        meetings >= i, path_arr[i - 1], path_arr[i + 1]
                    )
                landings[i] = cached
            return cached

        costs = np.zeros(meetings.shape[0])
        for weight, physical_a, physical_b in relevant:
            costs += weight * flat[landing(physical_a) * n + landing(physical_b)]
        for meeting, cost in enumerate(costs.tolist()):
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost = cost
                best_path = path
                best_meeting = meeting
    return best_path, best_meeting


class LookaheadRoute(TransformationPass):
    """Pass wrapper over :func:`lookahead_route_circuit`."""

    def __init__(self, lookahead: int = DEFAULT_LOOKAHEAD, decay: float = DEFAULT_DECAY):
        self.lookahead = lookahead
        self.decay = decay

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        coupling = properties.device_coupling(self.name)
        layout = properties.require("layout", self.name)
        result = lookahead_route_circuit(
            circuit, coupling, layout, lookahead=self.lookahead, decay=self.decay
        )
        properties["initial_layout"] = result.initial_layout
        properties["final_layout"] = result.final_layout
        properties["num_swaps"] = result.num_swaps
        return result.circuit
