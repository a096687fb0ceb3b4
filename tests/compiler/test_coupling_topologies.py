"""Property tests for coupling maps: grid vs networkx, line, heavy-hex.

The grid's closed-form distance/path queries are checked against networkx
ground truth on random non-square grids; the generic graph implementations
(exercised by the heavy-hex lattice) are checked the same way, plus the
structural invariants every topology must satisfy for the routers.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.coupling import (
    GridCouplingMap,
    HeavyHexCouplingMap,
    LineCouplingMap,
    coupling_from_dict,
    coupling_to_dict,
    smallest_heavy_hex_for,
)

grid_dims = st.tuples(st.integers(1, 9), st.integers(1, 9))
qubit_pairs = st.tuples(st.integers(0, 10_000), st.integers(0, 10_000))


def _graph(coupling):
    """The networkx reference graph: one node per qubit, one edge per coupler."""
    graph = nx.Graph(coupling.couplers())
    graph.add_nodes_from(range(coupling.num_qubits))
    return graph


def _assert_valid_path(coupling, path, a, b):
    assert path[0] == a and path[-1] == b
    assert len(path) == coupling.distance(a, b) + 1
    for left, right in zip(path, path[1:]):
        assert coupling.are_coupled(left, right)


class TestGridAgainstNetworkx:
    @given(dims=grid_dims, pair=qubit_pairs)
    @settings(max_examples=60, deadline=None)
    def test_distance_matches_networkx(self, dims, pair):
        rows, cols = dims
        grid = GridCouplingMap(rows, cols)
        a, b = (q % grid.num_qubits for q in pair)
        expected = nx.shortest_path_length(_graph(grid), a, b)
        assert grid.distance(a, b) == expected

    @given(dims=grid_dims, pair=qubit_pairs)
    @settings(max_examples=60, deadline=None)
    def test_shortest_path_is_valid_and_tight(self, dims, pair):
        rows, cols = dims
        grid = GridCouplingMap(rows, cols)
        a, b = (q % grid.num_qubits for q in pair)
        _assert_valid_path(grid, grid.shortest_path(a, b), a, b)

    @given(dims=grid_dims)
    @settings(max_examples=40, deadline=None)
    def test_couplers_match_networkx_grid_graph(self, dims):
        rows, cols = dims
        grid = GridCouplingMap(rows, cols)
        reference = nx.grid_2d_graph(rows, cols)
        assert grid.num_couplers == reference.number_of_edges()
        assert _graph(grid).number_of_edges() == grid.num_couplers

    @given(dims=grid_dims, pair=qubit_pairs, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_random_shortest_path_is_shortest(self, dims, pair, seed):
        rows, cols = dims
        grid = GridCouplingMap(rows, cols)
        a, b = (q % grid.num_qubits for q in pair)
        rng = np.random.default_rng(seed)
        _assert_valid_path(grid, grid.random_shortest_path(a, b, rng), a, b)


class TestHeavyHexGeneric:
    """The heavy-hex lattice runs on the generic BFS implementations."""

    @given(dims=st.tuples(st.integers(1, 6), st.integers(1, 7)), pair=qubit_pairs)
    @settings(max_examples=60, deadline=None)
    def test_distance_matches_networkx(self, dims, pair):
        lattice = HeavyHexCouplingMap(*dims)
        a, b = (q % lattice.num_qubits for q in pair)
        assert lattice.distance(a, b) == nx.shortest_path_length(_graph(lattice), a, b)

    @given(dims=st.tuples(st.integers(1, 6), st.integers(1, 7)), pair=qubit_pairs)
    @settings(max_examples=60, deadline=None)
    def test_paths_valid_on_sparse_lattice(self, dims, pair):
        lattice = HeavyHexCouplingMap(*dims)
        a, b = (q % lattice.num_qubits for q in pair)
        _assert_valid_path(lattice, lattice.shortest_path(a, b), a, b)
        for candidate in lattice.candidate_paths(a, b):
            _assert_valid_path(lattice, candidate, a, b)
        rng = np.random.default_rng(7)
        _assert_valid_path(lattice, lattice.random_shortest_path(a, b, rng), a, b)

    @given(dims=st.tuples(st.integers(1, 6), st.integers(1, 7)))
    @settings(max_examples=40, deadline=None)
    def test_always_connected(self, dims):
        lattice = HeavyHexCouplingMap(*dims)
        assert nx.is_connected(_graph(lattice))

    def test_sparser_than_grid(self):
        lattice = HeavyHexCouplingMap(4, 8)
        grid = GridCouplingMap(4, 8)
        assert lattice.num_couplers < grid.num_couplers
        # Horizontal chains are intact; only vertical rungs thin out.
        assert lattice.are_coupled(0, 1)

    @given(dims=st.tuples(st.integers(1, 6), st.integers(1, 7)))
    @settings(max_examples=40, deadline=None)
    def test_layout_order_covers_every_qubit(self, dims):
        lattice = HeavyHexCouplingMap(*dims)
        order = lattice.layout_order()
        assert sorted(order) == list(range(lattice.num_qubits))


class TestLine:
    def test_structure(self):
        line = LineCouplingMap(5)
        assert line.num_qubits == 5
        assert line.couplers() == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert line.distance(0, 4) == 4
        assert line.shortest_path(4, 1) == [4, 3, 2, 1]
        assert line.candidate_paths(0, 3) == [[0, 1, 2, 3]]
        assert line.layout_order() == [0, 1, 2, 3, 4]

    def test_consecutive_layout_order_is_adjacent(self):
        for coupling in (LineCouplingMap(7), GridCouplingMap(3, 4)):
            order = coupling.layout_order()
            for a, b in zip(order, order[1:]):
                assert coupling.are_coupled(a, b)

    def test_single_qubit_line(self):
        line = LineCouplingMap(1)
        assert line.num_qubits == 1 and line.couplers() == []

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            LineCouplingMap(0)
        with pytest.raises(ValueError):
            HeavyHexCouplingMap(0, 3)


class TestSerializationRoundtrip:
    @pytest.mark.parametrize(
        "coupling",
        [GridCouplingMap(3, 5), LineCouplingMap(9), HeavyHexCouplingMap(4, 6)],
        ids=["grid", "line", "heavy_hex"],
    )
    def test_roundtrip(self, coupling):
        data = coupling_to_dict(coupling)
        restored = coupling_from_dict(data)
        assert restored == coupling
        assert type(restored) is type(coupling)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown coupling map kind"):
            coupling_from_dict({"kind": "moebius", "rows": 3, "cols": 3})

    def test_unexpected_fields_rejected(self):
        with pytest.raises(ValueError, match="unexpected"):
            coupling_from_dict({"kind": "line", "num_sites": 4, "rows": 2})


class TestSmallestHeavyHexFor:
    @given(num_qubits=st.integers(1, 150))
    @settings(max_examples=40, deadline=None)
    def test_fits_and_stays_near_square(self, num_qubits):
        lattice = smallest_heavy_hex_for(num_qubits)
        assert lattice.num_qubits >= num_qubits
        assert lattice.cols - lattice.rows in (0, 1)
