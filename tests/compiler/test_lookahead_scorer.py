"""Cross-check of the incremental lookahead scorer against the naive one.

``_best_candidate`` evaluates each (path, meeting) candidate's permutation
in closed form on the path's qubits only; :func:`best_candidate_reference`
below is the pre-optimization implementation that copies the layout and
replays the SWAP walk.  Both must pick the *same* candidate — argmin and
tie-break — on every input, which is what keeps routed circuits (and the
compile goldens) byte-identical.

The hypothesis sweep draws random layouts, routing targets, and lookahead
windows across all four built-in topologies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.coupling import (
    GridCouplingMap,
    HeavyHexCouplingMap,
    LineCouplingMap,
    TorusCouplingMap,
)
from repro.compiler.layout import Layout
from repro.compiler.lookahead import DEFAULT_DECAY, _best_candidate
from repro.compiler.routing import insert_swaps_along_path
from tests.oracles import are_coupled

COUPLINGS = {
    "grid": GridCouplingMap(rows=4, cols=4),
    "line": LineCouplingMap(num_sites=12),
    "heavy_hex": HeavyHexCouplingMap(rows=4, cols=4),
    "torus": TorusCouplingMap(rows=4, cols=4),
}


def best_candidate_reference(coupling, layout, start, end, window, decay):
    """Naive reference scorer: copy the layout and replay the SWAP walk.

    The pre-optimization implementation of ``_best_candidate``, kept as the
    ground truth the incremental scorer is cross-checked against.
    """
    best_path = []
    best_meeting = 0
    best_cost = None
    for path in coupling.cached_candidate_paths(start, end):
        meetings = range(len(path) - 1) if len(path) >= 3 else [0]
        for meeting in meetings:
            trial = layout.copy()
            # circuit=None: preview the layout permutation the real insertion
            # would produce, via the same shared walk.
            insert_swaps_along_path(None, trial, path, meeting)
            cost = 0.0
            weight = 1.0
            for logical_a, logical_b in window:
                cost += weight * coupling.distance(
                    trial.physical(logical_a), trial.physical(logical_b)
                )
                weight *= decay
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost = cost
                best_path = path
                best_meeting = meeting
    return best_path, best_meeting


def _scenario(coupling, rng, num_logical, window_len):
    """A random layout, non-adjacent routing target, and lookahead window."""
    physicals = rng.permutation(coupling.num_qubits)[:num_logical]
    layout = Layout(
        {logical: int(physicals[logical]) for logical in range(num_logical)},
        coupling.num_qubits,
    )
    # A non-adjacent physical pair to route (the only case the scorer sees).
    for _ in range(200):
        a, b = (int(q) for q in rng.choice(num_logical, size=2, replace=False))
        pa, pb = layout.physical(a), layout.physical(b)
        if not are_coupled(coupling, pa, pb) and pa != pb:
            break
    else:
        return None
    window = []
    for _ in range(window_len):
        qa, qb = (int(q) for q in rng.choice(num_logical, size=2, replace=False))
        window.append((qa, qb))
    return layout, pa, pb, window


@pytest.mark.parametrize("kind", sorted(COUPLINGS))
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    window_len=st.integers(min_value=0, max_value=10),
)
def test_incremental_matches_reference(kind, seed, window_len):
    coupling = COUPLINGS[kind]
    rng = np.random.default_rng(seed)
    scenario = _scenario(coupling, rng, num_logical=8, window_len=window_len)
    if scenario is None:
        return
    layout, start, end, window = scenario

    fast = _best_candidate(coupling, layout, start, end, window, DEFAULT_DECAY)
    reference = best_candidate_reference(
        coupling, layout, start, end, window, DEFAULT_DECAY
    )
    # The incremental scorer returns cached tuples, the reference fresh lists.
    assert (list(fast[0]), fast[1]) == (list(reference[0]), reference[1])

    # Neither scorer may have mutated the live layout.
    assert layout.physical(layout.logical(start)) == start


def test_empty_window_picks_first_candidate():
    coupling = COUPLINGS["grid"]
    layout = Layout({i: i for i in range(8)}, coupling.num_qubits)
    path, meeting = _best_candidate(coupling, layout, 0, 10, [], DEFAULT_DECAY)
    assert tuple(path) == coupling.cached_candidate_paths(0, 10)[0]
    assert meeting == 0


def test_irrelevant_window_skips_scoring():
    """Pairs living entirely off the candidate paths cannot change the argmin."""
    coupling = COUPLINGS["grid"]
    layout = Layout({i: i for i in range(16)}, coupling.num_qubits)
    # Route 0 -> 2 (top row); the window pair (12, 14) sits on the bottom row,
    # untouched by either L-path.
    window = [(12, 14)]
    fast = _best_candidate(coupling, layout, 0, 2, window, DEFAULT_DECAY)
    reference = best_candidate_reference(coupling, layout, 0, 2, window, DEFAULT_DECAY)
    assert (list(fast[0]), fast[1]) == (list(reference[0]), reference[1])
