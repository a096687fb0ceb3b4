"""Device coupling maps.

The paper maps every benchmark onto a 32x32 square grid of qubits
(Sec. VI-B); :class:`GridCouplingMap` models that device with fast
grid-specialised queries.  The backend layer (:mod:`repro.backends`) also
ships non-paper topologies, so the grid is one subclass of a generic
:class:`CouplingMap`: any connected qubit graph with shortest-path,
candidate-path and random-path queries that the routers and schedulers can
consume.  :class:`LineCouplingMap` (a 1-D chain),
:class:`HeavyHexCouplingMap` (a grid with sparse vertical rungs, in the
style of IBM's heavy-hex lattices) and :class:`TorusCouplingMap` (a
periodic grid whose wrap-around couplers remove edge effects) are the
built-in alternatives, and
:func:`coupling_to_dict` / :func:`coupling_from_dict` give every map a
canonical JSON form for backend serialization and cache keys.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Tuple

import numpy as np


class CouplingMap:
    """A connected device graph of qubits and two-qubit couplers.

    Subclasses must provide :attr:`num_qubits` and :meth:`couplers`; every
    other query has a generic graph implementation here (breadth-first
    distances, deterministic greedy shortest paths, randomised shortest
    paths for the stochastic router).  Regular topologies override the
    generic queries with closed-form ones — see :class:`GridCouplingMap`.
    """

    # -- structure (subclass responsibilities) ------------------------------------

    @property
    def num_qubits(self) -> int:
        """Total number of physical qubits."""
        raise NotImplementedError

    def couplers(self) -> List[Tuple[int, int]]:
        """All couplers as sorted (low, high) qubit index pairs."""
        raise NotImplementedError

    # -- generic queries ----------------------------------------------------------

    @cached_property
    def _adjacency(self) -> Dict[int, Tuple[int, ...]]:
        adjacency: Dict[int, List[int]] = {q: [] for q in range(self.num_qubits)}
        for a, b in self.couplers():
            adjacency[a].append(b)
            adjacency[b].append(a)
        return {q: tuple(sorted(neighbors)) for q, neighbors in adjacency.items()}

    @cached_property
    def _distance_cache(self) -> Dict[int, Dict[int, int]]:
        # Per-source BFS distance maps, filled lazily by _distances_from.
        return {}

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} outside device of {self.num_qubits} qubits")

    def _distances_from(self, source: int) -> Dict[int, int]:
        """BFS distance map from one qubit (memoized per source)."""
        self._check_qubit(source)
        cached = self._distance_cache.get(source)
        if cached is not None:
            return cached
        distances = {source: 0}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in self._adjacency[current]:
                if neighbor not in distances:
                    distances[neighbor] = distances[current] + 1
                    queue.append(neighbor)
        if len(distances) != self.num_qubits:
            raise ValueError(
                f"coupling map is disconnected: only {len(distances)} of "
                f"{self.num_qubits} qubits reachable from {source}"
            )
        self._distance_cache[source] = distances
        return distances

    def neighbors(self, qubit: int) -> List[int]:
        """Physical qubits directly coupled to ``qubit``."""
        self._check_qubit(qubit)
        return list(self._adjacency[qubit])

    def are_coupled(self, a: int, b: int) -> bool:
        """True if two physical qubits share a coupler."""
        self._check_qubit(a)
        return b in self._adjacency[a]

    # -- distances ----------------------------------------------------------------

    def distance_matrix(self) -> np.ndarray:
        """All-pairs coupling-graph distances as an ``(n, n)`` int ndarray.

        Built once per instance and cached; regular topologies fill it with
        closed forms (:meth:`_build_distance_matrix` override) instead of
        per-source BFS, so routers can score from O(1) array reads.  The
        returned array is read-only — it is shared, not a copy.
        """
        return self._distance_matrix_cache

    @cached_property
    def _distance_matrix_cache(self) -> np.ndarray:
        matrix = self._build_distance_matrix()
        matrix.setflags(write=False)
        return matrix

    def _build_distance_matrix(self) -> np.ndarray:
        """Generic all-pairs builder: one BFS per source qubit."""
        n = self.num_qubits
        matrix = np.zeros((n, n), dtype=np.int32)
        for source in range(n):
            row = matrix[source]
            for qubit, dist in self._distances_from(source).items():
                row[qubit] = dist
        return matrix

    @cached_property
    def _distance_flat(self) -> List[int]:
        # Row-major Python-int view of distance_matrix(): the router inner
        # loop reads `flat[a * n + b]`, which beats ndarray scalar indexing.
        return self.distance_matrix().ravel().tolist()

    def distance(self, a: int, b: int) -> int:
        """Coupling-graph distance between two qubits (O(1) array read)."""
        self._check_qubit(a)
        self._check_qubit(b)
        return self._distance_flat[a * self.num_qubits + b]

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One deterministic shortest path from ``a`` to ``b`` (inclusive).

        Walks from ``a`` greedily, always stepping to the lowest-indexed
        neighbour that reduces the remaining distance to ``b``.
        """
        distances = self._distances_from(b)
        path = [a]
        current = a
        while current != b:
            current = min(
                n for n in self._adjacency[current] if distances[n] < distances[current]
            )
            path.append(current)
        return path

    def candidate_paths(self, a: int, b: int) -> List[List[int]]:
        """Deterministic shortest-path candidates for the lookahead router.

        The generic implementation pairs the lowest-index greedy walk with
        its highest-index mirror, which explores two different "sides" of
        the graph; regular topologies override
        :meth:`_compute_candidate_paths` with their canonical path families
        (e.g. the grid's two L-paths).  Results are memoized per ``(a, b)``;
        callers receive fresh lists, so mutating them cannot corrupt the
        cache.
        """
        return [list(path) for path in self.cached_candidate_paths(a, b)]

    def cached_candidate_paths(self, a: int, b: int) -> Tuple[Tuple[int, ...], ...]:
        """Memoized candidate paths as immutable tuples (router hot path).

        The same non-adjacent operand pair recurs on every repetition of a
        circuit's interaction pattern, so the router would otherwise rebuild
        identical path lists thousands of times per compile.
        """
        cache = self._candidate_path_cache
        key = (a, b)
        hit = cache.get(key)
        if hit is None:
            hit = tuple(tuple(path) for path in self._compute_candidate_paths(a, b))
            cache[key] = hit
        return hit

    @cached_property
    def _candidate_path_cache(self) -> Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]]:
        return {}

    def _compute_candidate_paths(self, a: int, b: int) -> List[List[int]]:
        low = self.shortest_path(a, b)
        distances = self._distances_from(b)
        high = [a]
        current = a
        while current != b:
            current = max(
                n for n in self._adjacency[current] if distances[n] < distances[current]
            )
            high.append(current)
        return [low] if high == low else [low, high]

    def random_shortest_path(self, a: int, b: int, rng: np.random.Generator) -> List[int]:
        """A uniformly-randomised greedy shortest path (stochastic router)."""
        distances = self._distances_from(b)
        path = [a]
        current = a
        while current != b:
            options = [n for n in self._adjacency[current] if distances[n] < distances[current]]
            current = options[int(rng.integers(0, len(options)))]
            path.append(current)
        return path

    # -- couplers -----------------------------------------------------------------

    @property
    def num_couplers(self) -> int:
        """Number of couplers."""
        return len(self.couplers())

    def coupler_neighbors(self, coupler: Tuple[int, int]) -> List[Tuple[int, int]]:
        """Couplers adjacent to (sharing a qubit with) the given coupler.

        Used by the crosstalk-aware scheduler: two CZ gates on adjacent
        couplers interfere and must not execute simultaneously.
        """
        a, b = coupler
        adjacent = []
        for qubit in (a, b):
            for neighbor in self.neighbors(qubit):
                other = tuple(sorted((qubit, neighbor)))
                if other != tuple(sorted(coupler)):
                    adjacent.append(other)
        return adjacent

    # -- layout support -----------------------------------------------------------

    def layout_order(self) -> List[int]:
        """Physical qubits in an adjacency-friendly order for initial layout.

        Consecutive entries should be device neighbours as often as possible
        (the benchmarks are dominated by linear registers).  The generic
        implementation is a depth-first preorder from qubit 0, which walks
        chains end to end; the grid overrides it with a boustrophedon.
        """
        order: List[int] = []
        seen = set()
        stack = [0]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            stack.extend(reversed(self._adjacency[current]))
        if len(order) != self.num_qubits:
            raise ValueError("coupling map is disconnected")
        return order

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_qubits))


@dataclass(frozen=True)
class GridCouplingMap(CouplingMap):
    """A rectangular nearest-neighbour coupling map.

    Parameters
    ----------
    rows, cols:
        Grid dimensions; the paper's device is 32 x 32.
    """

    rows: int = 32
    cols: int = 32

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")

    # -- basic queries ------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Total number of physical qubits."""
        return self.rows * self.cols

    def index(self, row: int, col: int) -> int:
        """Physical qubit index of grid position (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"position ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def position(self, qubit: int) -> Tuple[int, int]:
        """Grid position (row, col) of a physical qubit index."""
        self._check_qubit(qubit)
        return divmod(qubit, self.cols)

    def neighbors(self, qubit: int) -> List[int]:
        """Physical qubits directly coupled to ``qubit``."""
        row, col = self.position(qubit)
        result = []
        if row > 0:
            result.append(self.index(row - 1, col))
        if row < self.rows - 1:
            result.append(self.index(row + 1, col))
        if col > 0:
            result.append(self.index(row, col - 1))
        if col < self.cols - 1:
            result.append(self.index(row, col + 1))
        return result

    def are_coupled(self, a: int, b: int) -> bool:
        """True if two physical qubits share a coupler."""
        return self.distance(a, b) == 1

    def distance(self, a: int, b: int) -> int:
        """Coupling-graph distance (Manhattan distance on the grid)."""
        ra, ca = self.position(a)
        rb, cb = self.position(b)
        return abs(ra - rb) + abs(ca - cb)

    def _build_distance_matrix(self) -> np.ndarray:
        """Closed-form all-pairs Manhattan distances (no BFS)."""
        indices = np.arange(self.num_qubits)
        rows = indices // self.cols
        cols = indices % self.cols
        matrix = np.abs(rows[:, None] - rows[None, :]) + np.abs(cols[:, None] - cols[None, :])
        return matrix.astype(np.int32)

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One shortest path from ``a`` to ``b`` (inclusive), row-first then column."""
        ra, ca = self.position(a)
        rb, cb = self.position(b)
        path = [a]
        row, col = ra, ca
        while row != rb:
            row += 1 if rb > row else -1
            path.append(self.index(row, col))
        while col != cb:
            col += 1 if cb > col else -1
            path.append(self.index(row, col))
        return path

    def monotone_paths(self, a: int, b: int) -> List[List[int]]:
        """The canonical shortest L-paths from ``a`` to ``b``: row-first and
        column-first.  Collinear endpoints yield a single straight path.

        These are the deterministic candidates the lookahead router scores;
        the stochastic router instead samples arbitrary monotone staircases.
        Served from the per-(a, b) candidate cache as fresh lists.
        """
        return [list(path) for path in self.cached_candidate_paths(a, b)]

    def _compute_candidate_paths(self, a: int, b: int) -> List[List[int]]:
        """Deterministic candidates on the grid: the canonical L-paths."""
        ra, ca = self.position(a)
        rb, cb = self.position(b)
        row_first = self.shortest_path(a, b)
        if ra == rb or ca == cb:
            return [row_first]
        col_first = [a]
        row, col = ra, ca
        while col != cb:
            col += 1 if cb > col else -1
            col_first.append(self.index(row, col))
        while row != rb:
            row += 1 if rb > row else -1
            col_first.append(self.index(row, col))
        return [row_first, col_first]

    def random_shortest_path(self, a: int, b: int, rng: np.random.Generator) -> List[int]:
        """A shortest grid path from ``a`` to ``b``, randomising row/column order."""
        row_s, col_s = self.position(a)
        row_e, col_e = self.position(b)
        path = [a]
        row, col = row_s, col_s
        moves: List[str] = []
        moves.extend(["row"] * abs(row_e - row_s))
        moves.extend(["col"] * abs(col_e - col_s))
        rng.shuffle(moves)
        for move in moves:
            if move == "row":
                row += 1 if row_e > row else -1
            else:
                col += 1 if col_e > col else -1
            path.append(self.index(row, col))
        return path

    # -- couplers -----------------------------------------------------------------

    def couplers(self) -> List[Tuple[int, int]]:
        """All couplers as sorted (low, high) qubit index pairs."""
        result = []
        for row in range(self.rows):
            for col in range(self.cols):
                qubit = self.index(row, col)
                if col < self.cols - 1:
                    result.append((qubit, self.index(row, col + 1)))
                if row < self.rows - 1:
                    result.append((qubit, self.index(row + 1, col)))
        return result

    @property
    def num_couplers(self) -> int:
        """Number of couplers (2 * rows * cols - rows - cols for a grid)."""
        return 2 * self.rows * self.cols - self.rows - self.cols

    # -- layout support -----------------------------------------------------------

    def layout_order(self) -> List[int]:
        """Boustrophedon (snake) order: every consecutive pair is adjacent."""
        order: List[int] = []
        for row in range(self.rows):
            cols = range(self.cols) if row % 2 == 0 else range(self.cols - 1, -1, -1)
            for col in cols:
                order.append(self.index(row, col))
        return order


@dataclass(frozen=True)
class LineCouplingMap(CouplingMap):
    """A 1-D chain of qubits: qubit ``i`` couples to ``i - 1`` and ``i + 1``.

    The simplest non-paper topology — there is exactly one shortest path
    between any two qubits, so routing is fully deterministic and SWAP
    counts are maximal for a given circuit, which makes the line a useful
    lower-bound device in cross-backend comparisons.
    """

    num_sites: int = 64

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise ValueError("a line needs at least one qubit")

    @property
    def num_qubits(self) -> int:
        return self.num_sites

    def couplers(self) -> List[Tuple[int, int]]:
        return [(i, i + 1) for i in range(self.num_sites - 1)]

    def are_coupled(self, a: int, b: int) -> bool:
        self._check_qubit(a)
        self._check_qubit(b)
        return abs(a - b) == 1

    def distance(self, a: int, b: int) -> int:
        self._check_qubit(a)
        self._check_qubit(b)
        return abs(a - b)

    def _build_distance_matrix(self) -> np.ndarray:
        """Closed-form all-pairs chain distances ``|i - j|`` (no BFS)."""
        indices = np.arange(self.num_sites)
        return np.abs(indices[:, None] - indices[None, :]).astype(np.int32)

    def shortest_path(self, a: int, b: int) -> List[int]:
        self._check_qubit(a)
        self._check_qubit(b)
        step = 1 if b >= a else -1
        return list(range(a, b + step, step))

    def _compute_candidate_paths(self, a: int, b: int) -> List[List[int]]:
        return [self.shortest_path(a, b)]

    def random_shortest_path(self, a: int, b: int, rng: np.random.Generator) -> List[int]:
        # The line has a unique shortest path; nothing to randomise.
        return self.shortest_path(a, b)

    def layout_order(self) -> List[int]:
        return list(range(self.num_sites))


@dataclass(frozen=True)
class HeavyHexCouplingMap(CouplingMap):
    """A heavy-hex-style lattice: full rows, sparse vertical rungs.

    Each row is a complete horizontal chain, but adjacent rows are joined
    only at every fourth column, with the rung columns of successive row
    pairs offset by two (the pattern of IBM's heavy-hex devices, whose
    reduced coupler count trades routing distance for lower crosstalk and
    frequency-collision pressure).  Rows shorter than a full rung period
    fall back to a single rung at the last column so the graph stays
    connected.
    """

    rows: int = 4
    cols: int = 4

    #: Rung period along a row and the per-row-pair offset.
    RUNG_PERIOD = 4
    RUNG_OFFSET = 2

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("lattice dimensions must be positive")

    @property
    def num_qubits(self) -> int:
        return self.rows * self.cols

    def index(self, row: int, col: int) -> int:
        """Physical qubit index of lattice position (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"position ({row}, {col}) outside {self.rows}x{self.cols} lattice")
        return row * self.cols + col

    def position(self, qubit: int) -> Tuple[int, int]:
        """Lattice position (row, col) of a physical qubit index."""
        self._check_qubit(qubit)
        return divmod(qubit, self.cols)

    def rung_columns(self, row: int) -> List[int]:
        """Columns carrying a vertical coupler between ``row`` and ``row + 1``."""
        offset = 0 if row % 2 == 0 else self.RUNG_OFFSET
        columns = [c for c in range(self.cols) if c % self.RUNG_PERIOD == offset]
        return columns or [self.cols - 1]

    def couplers(self) -> List[Tuple[int, int]]:
        result = []
        for row in range(self.rows):
            for col in range(self.cols - 1):
                result.append((self.index(row, col), self.index(row, col + 1)))
            if row < self.rows - 1:
                for col in self.rung_columns(row):
                    result.append((self.index(row, col), self.index(row + 1, col)))
        return result


@dataclass(frozen=True)
class TorusCouplingMap(CouplingMap):
    """A periodic (wrap-around) rectangular grid: a torus of qubits.

    Every row and column closes into a ring, so the device has no edges —
    each qubit has exactly four neighbours (degree shrinks only when a
    dimension is 1 or 2, where the wrap coupler coincides with the interior
    one).  Distances are closed-form: the Manhattan distance with each axis
    measured the short way around, ``min(|d|, size - |d|)``.  Removing edge
    effects makes the torus the natural control experiment against
    :class:`GridCouplingMap` — same degree everywhere, shorter worst-case
    routes — which is why the ROADMAP lists it as a backend family.
    """

    rows: int = 8
    cols: int = 8

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("torus dimensions must be positive")

    # -- basic queries ------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self.rows * self.cols

    def index(self, row: int, col: int) -> int:
        """Physical qubit index of position (row, col), wrapping both axes."""
        return (row % self.rows) * self.cols + (col % self.cols)

    def position(self, qubit: int) -> Tuple[int, int]:
        """Torus position (row, col) of a physical qubit index."""
        self._check_qubit(qubit)
        return divmod(qubit, self.cols)

    @staticmethod
    def _axis_steps(start: int, end: int, size: int) -> Tuple[int, int]:
        """(signed step, count) of the short way around one ring axis.

        Ties (exactly half way around) deterministically go the increasing
        direction, so every path query is reproducible.
        """
        forward = (end - start) % size
        backward = (start - end) % size
        if forward <= backward:
            return 1, forward
        return -1, backward

    def distance(self, a: int, b: int) -> int:
        """Closed-form torus distance (per-axis short way around)."""
        ra, ca = self.position(a)
        rb, cb = self.position(b)
        dr = abs(ra - rb)
        dc = abs(ca - cb)
        return min(dr, self.rows - dr) + min(dc, self.cols - dc)

    def _build_distance_matrix(self) -> np.ndarray:
        """Closed-form all-pairs torus distances (per-axis min-wrap, no BFS)."""
        indices = np.arange(self.num_qubits)
        rows = indices // self.cols
        cols = indices % self.cols
        dr = np.abs(rows[:, None] - rows[None, :])
        dc = np.abs(cols[:, None] - cols[None, :])
        matrix = np.minimum(dr, self.rows - dr) + np.minimum(dc, self.cols - dc)
        return matrix.astype(np.int32)

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One shortest path (inclusive): rows the short way, then columns."""
        ra, ca = self.position(a)
        rb, cb = self.position(b)
        row_step, row_count = self._axis_steps(ra, rb, self.rows)
        col_step, col_count = self._axis_steps(ca, cb, self.cols)
        path = [a]
        row, col = ra, ca
        for _ in range(row_count):
            row += row_step
            path.append(self.index(row, col))
        for _ in range(col_count):
            col += col_step
            path.append(self.index(row, col))
        return path

    def _compute_candidate_paths(self, a: int, b: int) -> List[List[int]]:
        """The two canonical L-paths (row-first / column-first), short way around."""
        ra, ca = self.position(a)
        rb, cb = self.position(b)
        row_step, row_count = self._axis_steps(ra, rb, self.rows)
        col_step, col_count = self._axis_steps(ca, cb, self.cols)
        row_first = self.shortest_path(a, b)
        if row_count == 0 or col_count == 0:
            return [row_first]
        col_first = [a]
        row, col = ra, ca
        for _ in range(col_count):
            col += col_step
            col_first.append(self.index(row, col))
        for _ in range(row_count):
            row += row_step
            col_first.append(self.index(row, col))
        return [row_first, col_first]

    def random_shortest_path(self, a: int, b: int, rng: np.random.Generator) -> List[int]:
        """A shortest torus path, randomising the row/column interleaving."""
        ra, ca = self.position(a)
        rb, cb = self.position(b)
        row_step, row_count = self._axis_steps(ra, rb, self.rows)
        col_step, col_count = self._axis_steps(ca, cb, self.cols)
        moves = ["row"] * row_count + ["col"] * col_count
        rng.shuffle(moves)
        path = [a]
        row, col = ra, ca
        for move in moves:
            if move == "row":
                row += row_step
            else:
                col += col_step
            path.append(self.index(row, col))
        return path

    # -- couplers -----------------------------------------------------------------

    def couplers(self) -> List[Tuple[int, int]]:
        """All couplers as sorted (low, high) pairs; wrap edges deduplicated.

        On a 2-wide axis the wrap-around coupler coincides with the interior
        one, and on a 1-wide axis it would be a self-loop; both collapse via
        the set below, so the graph is always simple.
        """
        result = set()
        for row in range(self.rows):
            for col in range(self.cols):
                qubit = self.index(row, col)
                for neighbor_pos in ((row, col + 1), (row + 1, col)):
                    neighbor = self.index(*neighbor_pos)
                    if neighbor != qubit:
                        result.add(tuple(sorted((qubit, neighbor))))
        return sorted(result)

    # -- layout support -----------------------------------------------------------

    def layout_order(self) -> List[int]:
        """Boustrophedon order (consecutive pairs adjacent, as on the grid)."""
        order: List[int] = []
        for row in range(self.rows):
            cols = range(self.cols) if row % 2 == 0 else range(self.cols - 1, -1, -1)
            for col in cols:
                order.append(self.index(row, col))
        return order


def smallest_grid_for(num_qubits: int) -> GridCouplingMap:
    """The smallest (near-)square grid holding at least ``num_qubits`` qubits."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be positive")
    cols = 1
    while cols * cols < num_qubits:
        cols += 1
    rows = cols
    while (rows - 1) * cols >= num_qubits:
        rows -= 1
    return GridCouplingMap(rows=rows, cols=cols)


def smallest_heavy_hex_for(num_qubits: int) -> HeavyHexCouplingMap:
    """The smallest near-square heavy-hex lattice holding ``num_qubits`` qubits."""
    grid = smallest_grid_for(num_qubits)
    return HeavyHexCouplingMap(rows=grid.rows, cols=grid.cols)


def smallest_torus_for(num_qubits: int) -> TorusCouplingMap:
    """The smallest near-square torus holding at least ``num_qubits`` qubits."""
    grid = smallest_grid_for(num_qubits)
    return TorusCouplingMap(rows=grid.rows, cols=grid.cols)


#: Topology tag -> (class, field names), the single source of truth for the
#: JSON form of every coupling map.
_COUPLING_KINDS = {
    "grid": (GridCouplingMap, ("rows", "cols")),
    "line": (LineCouplingMap, ("num_sites",)),
    "heavy_hex": (HeavyHexCouplingMap, ("rows", "cols")),
    "torus": (TorusCouplingMap, ("rows", "cols")),
}


def coupling_kind(coupling: CouplingMap) -> str:
    """The serialization tag of a coupling map's topology."""
    for kind, (cls, _) in _COUPLING_KINDS.items():
        if type(coupling) is cls:
            return kind
    raise TypeError(f"no serialization for coupling map type {type(coupling).__name__}")


def coupling_to_dict(coupling: CouplingMap) -> Dict[str, object]:
    """Canonical JSON-ready form of a coupling map."""
    kind = coupling_kind(coupling)
    _, fields = _COUPLING_KINDS[kind]
    data: Dict[str, object] = {"kind": kind}
    for name in fields:
        data[name] = getattr(coupling, name)
    return data


def coupling_from_dict(data: Dict[str, object]) -> CouplingMap:
    """Inverse of :func:`coupling_to_dict`."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    if kind not in _COUPLING_KINDS:
        raise ValueError(f"unknown coupling map kind '{kind}'; known: {sorted(_COUPLING_KINDS)}")
    cls, fields = _COUPLING_KINDS[kind]
    unexpected = set(payload) - set(fields)
    if unexpected:
        raise ValueError(f"unexpected coupling fields for '{kind}': {sorted(unexpected)}")
    missing = set(fields) - set(payload)
    if missing:
        # Silently falling back to class defaults would reconstruct a wrong
        # device from a truncated/version-skewed payload.
        raise ValueError(f"missing coupling fields for '{kind}': {sorted(missing)}")
    return cls(**{name: int(payload[name]) for name in fields})
