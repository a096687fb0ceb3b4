"""Tests for grid coupling maps and initial layout strategies."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.coupling import GridCouplingMap, smallest_grid_for
from repro.compiler.layout import Layout, build_layout, snake_layout, trivial_layout
from tests.oracles import are_coupled


class TestGridCouplingMap:
    def test_paper_grid_dimensions(self):
        grid = GridCouplingMap(32, 32)
        assert grid.num_qubits == 1024
        assert grid.num_couplers == 2 * 32 * 32 - 32 - 32  # 1984 couplers

    def test_index_position_roundtrip(self):
        grid = GridCouplingMap(4, 5)
        for qubit in range(grid.num_qubits):
            row, col = grid.position(qubit)
            assert grid.index(row, col) == qubit

    def test_neighbors_of_corner_and_interior(self):
        grid = GridCouplingMap(3, 3)
        assert sorted(grid.neighbors(0)) == [1, 3]
        assert sorted(grid.neighbors(4)) == [1, 3, 5, 7]

    def test_distance_is_manhattan(self):
        grid = GridCouplingMap(5, 5)
        assert grid.distance(0, 24) == 8
        assert grid.distance(7, 7) == 0

    def test_shortest_path_endpoints_and_length(self):
        grid = GridCouplingMap(6, 6)
        path = grid.shortest_path(0, 35)
        assert path[0] == 0 and path[-1] == 35
        assert len(path) == grid.distance(0, 35) + 1

    def test_graph_matches_couplers(self):
        grid = GridCouplingMap(4, 4)
        graph = nx.Graph(grid.couplers())
        graph.add_nodes_from(range(grid.num_qubits))
        assert graph.number_of_nodes() == grid.num_qubits
        assert graph.number_of_edges() == grid.num_couplers
        assert nx.is_connected(graph)

    def test_invalid_position(self):
        with pytest.raises(ValueError):
            GridCouplingMap(3, 3).index(3, 0)

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_smallest_grid_fits(self, num_qubits):
        grid = smallest_grid_for(num_qubits)
        assert grid.num_qubits >= num_qubits
        # Not wastefully large: removing a row would no longer fit.
        assert (grid.rows - 1) * grid.cols < num_qubits


class TestLayout:
    def test_trivial_layout_identity(self):
        grid = GridCouplingMap(4, 4)
        layout = trivial_layout(QuantumCircuit(8), grid)
        for logical in range(8):
            assert layout.physical(logical) == logical

    def test_snake_layout_keeps_adjacent_logical_qubits_coupled(self):
        grid = GridCouplingMap(4, 4)
        layout = snake_layout(QuantumCircuit(16), grid)
        for logical in range(15):
            assert are_coupled(grid, layout.physical(logical), layout.physical(logical + 1))

    def test_layout_too_large_rejected(self):
        grid = GridCouplingMap(2, 2)
        with pytest.raises(ValueError):
            trivial_layout(QuantumCircuit(5), grid)

    def test_swap_physical_updates_both_maps(self):
        layout = Layout({0: 0, 1: 1}, num_physical=4)
        layout.swap_physical(0, 1)
        assert layout.physical(0) == 1 and layout.physical(1) == 0
        layout.swap_physical(1, 3)  # move logical 0 onto an empty qubit
        assert layout.physical(0) == 3
        assert layout.logical(1) is None

    def test_duplicate_target_rejected(self):
        with pytest.raises(ValueError):
            Layout({0: 1, 1: 1}, num_physical=4)

    def test_build_layout_strategy_dispatch(self):
        grid = GridCouplingMap(3, 3)
        assert build_layout(QuantumCircuit(4), grid, "trivial").physical(2) == 2
        with pytest.raises(ValueError):
            build_layout(QuantumCircuit(4), grid, "magic")
