"""TorusCouplingMap: closed-form queries vs networkx, and backend routing."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.compiler.coupling import (
    TorusCouplingMap,
    coupling_from_dict,
    coupling_to_dict,
    smallest_torus_for,
)
from repro.runtime import CompileOptions, ExperimentSpec
from repro.runtime.jobs import compile_spec

dimensions = st.tuples(st.integers(1, 6), st.integers(1, 6))


def _assert_valid_shortest(torus, path, a, b):
    assert path[0] == a and path[-1] == b
    assert len(path) == torus.distance(a, b) + 1
    for x, y in zip(path, path[1:]):
        assert torus.are_coupled(x, y)


@settings(max_examples=40, deadline=None)
@given(dims=dimensions, data=st.data())
def test_torus_distance_matches_networkx(dims, data):
    rows, cols = dims
    torus = TorusCouplingMap(rows=rows, cols=cols)
    if torus.num_qubits == 1:
        assert torus.couplers() == []
        return
    a = data.draw(st.integers(0, torus.num_qubits - 1))
    b = data.draw(st.integers(0, torus.num_qubits - 1))
    graph = nx.Graph(torus.couplers())
    graph.add_nodes_from(range(torus.num_qubits))
    expected = nx.shortest_path_length(graph, a, b)
    assert torus.distance(a, b) == expected


@settings(max_examples=40, deadline=None)
@given(dims=dimensions, data=st.data())
def test_torus_paths_are_valid_shortest_paths(dims, data):
    rows, cols = dims
    torus = TorusCouplingMap(rows=rows, cols=cols)
    if torus.num_qubits == 1:
        return
    a = data.draw(st.integers(0, torus.num_qubits - 1))
    b = data.draw(st.integers(0, torus.num_qubits - 1))
    _assert_valid_shortest(torus, torus.shortest_path(a, b), a, b)
    for candidate in torus.candidate_paths(a, b):
        _assert_valid_shortest(torus, candidate, a, b)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    _assert_valid_shortest(torus, torus.random_shortest_path(a, b, rng), a, b)


def test_torus_has_no_edge_effects():
    torus = TorusCouplingMap(rows=4, cols=5)
    degrees = {len(torus.neighbors(q)) for q in range(torus.num_qubits)}
    assert degrees == {4}
    # Wrap-around shortcut: opposite corners of a row are adjacent.
    assert torus.are_coupled(torus.index(0, 0), torus.index(0, 4))
    assert torus.distance(torus.index(0, 0), torus.index(3, 4)) == 2


def test_torus_couplers_are_simple_and_deduplicated():
    # 2-wide axes: wrap coupler coincides with the interior one.
    torus = TorusCouplingMap(rows=2, cols=2)
    assert torus.couplers() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    # 1-wide axis: no self loops, pure ring along the other axis.
    ring = TorusCouplingMap(rows=1, cols=5)
    assert ring.couplers() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_torus_layout_order_is_adjacency_friendly():
    torus = TorusCouplingMap(rows=3, cols=4)
    order = torus.layout_order()
    assert sorted(order) == list(range(torus.num_qubits))
    assert all(torus.are_coupled(x, y) for x, y in zip(order, order[1:]))


def test_torus_serialization_round_trip():
    torus = TorusCouplingMap(rows=3, cols=5)
    data = coupling_to_dict(torus)
    assert data == {"kind": "torus", "rows": 3, "cols": 5}
    assert coupling_from_dict(data) == torus


def test_smallest_torus_for_matches_grid_sizing():
    torus = smallest_torus_for(12)
    assert (torus.rows, torus.cols) == (3, 4)
    assert torus.num_qubits >= 12


@pytest.mark.parametrize("opt_level", [0, 1, 2])
def test_torus_backend_routes_with_both_routers(opt_level):
    """digiq-torus compiles through the stochastic and lookahead routers."""
    spec = ExperimentSpec(
        benchmark="bv",
        backend="digiq-torus",
        num_qubits=9,
        seed=0,
        compile_options=CompileOptions(opt_level=opt_level),
    )
    compiled = compile_spec(spec)
    coupling = compiled.coupling
    assert isinstance(coupling, TorusCouplingMap)
    for gate in compiled.physical_circuit:
        if gate.is_two_qubit:
            assert coupling.are_coupled(*gate.qubits)


def test_torus_backend_is_registered_and_calibrated():
    backend = get_backend("digiq-torus")
    assert backend.topology == "torus"
    assert backend.calibration_seed is not None
    target = backend.target_for(16)
    assert target.coupling == TorusCouplingMap(rows=4, cols=4)
    # Calibrated rates frozen into the target cover every qubit.
    assert set(target.single_qubit_error_rates) == set(range(16))
