"""Tests of the trajectory kernel and its building blocks: the in-place
gate kernels, the fused Pauli-kick injection, the kernel's exact
agreement with op-by-op application, and lockstep groups of batches."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.simulator import apply_matrix, apply_matrix_inplace
from repro.runtime.jobs import compile_spec
from repro.runtime.spec import ExperimentSpec
from repro.simulation import NoiseModel, run_trajectories
from repro.simulation import trajectories
from repro.simulation.trajectories import (
    _advance_rows,
    _inject_kicks,
    build_trajectory_plan,
    lockstep_groups,
    noisy_trajectory_states,
    run_trajectory_group,
    trajectory_batch_payloads,
)

#: Pauli kick operators, indexed by the noise model's (X, Y, Z) weights: the
#: definition the kick kernel's fused coefficient arithmetic is pinned against.
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
)

GATES_1Q = [("h", 0), ("x", 0), ("y", 0), ("z", 0), ("s", 0), ("sdg", 0),
            ("t", 0), ("sx", 0), ("rx", 1), ("ry", 1), ("rz", 1), ("p", 1),
            ("u3", 3)]
GATES_2Q = [("cx", 0), ("cz", 0), ("swap", 0), ("cp", 1), ("rzz", 1)]


def random_circuit(rng, num_qubits, depth):
    circuit = QuantumCircuit(num_qubits)
    for _ in range(depth):
        if num_qubits >= 2 and rng.random() < 0.35:
            name, num_params = GATES_2Q[int(rng.integers(len(GATES_2Q)))]
            qubits = rng.choice(num_qubits, size=2, replace=False).tolist()
        else:
            name, num_params = GATES_1Q[int(rng.integers(len(GATES_1Q)))]
            qubits = [int(rng.integers(num_qubits))]
        params = tuple(float(rng.uniform(-np.pi, np.pi)) for _ in range(num_params))
        circuit.add(name, qubits, params)
    return circuit


def advance_one_batch(plan, batch, rng):
    """One batch advanced as a group of its own, one row per trajectory."""
    rows, row_of, (kicks,) = _advance_rows(plan, [(batch, rng)])
    return rows.take(row_of, axis=0), kicks


def reference_advance(plan, batch, rng, inplace):
    """Op-by-op evolution of the plan's fused ops on the register as given,
    with either kernel, kick stream as the fast path."""
    num_qubits, fused = plan.num_qubits, plan.fused
    states = np.zeros((batch, 1 << num_qubits), dtype=complex)
    states[:, 0] = 1.0
    kicks = 0
    apply = apply_matrix_inplace if inplace else apply_matrix
    for matrix, qubits, probs in zip(fused.matrices, fused.qubits, plan.kick_probs):
        states = apply(states, matrix, qubits, num_qubits)
        for qubit, prob in zip(qubits, probs):
            if prob <= 0.0:
                continue
            hit = rng.random(batch) < prob
            pick = np.minimum(np.searchsorted(plan.kick_cumweights, rng.random(batch)), 2)
            if not hit.any():
                continue
            kicks += _inject_kicks(states, num_qubits, qubit, hit, pick)
    return states, kicks


class TestInPlaceKernels:
    def rand_state(self, rng, num_qubits, batch=3):
        shape = (batch, 1 << num_qubits)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_diag_perm_dense1_match_apply_matrix(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            qubits = tuple(rng.choice(n, size=2, replace=False).tolist())
            diag = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 4)))
            perm = np.zeros((4, 4), complex)
            for row, col in enumerate(rng.permutation(4)):
                perm[row, col] = np.exp(1j * rng.uniform(-np.pi, np.pi))
            dense1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for matrix, targets in (
                (diag, qubits), (perm, qubits), (dense1, (qubits[0],))
            ):
                state = self.rand_state(rng, n)
                got = apply_matrix_inplace(state.copy(), matrix, targets, n)
                want = apply_matrix(state.copy(), matrix, targets, n)
                assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_mutates_in_place_on_fast_paths(self):
        rng = np.random.default_rng(8)
        state = self.rand_state(rng, 3)
        out = apply_matrix_inplace(state, np.diag([1.0, -1.0]), (1,), 3)
        assert out is state

    def test_non_contiguous_input_falls_back(self):
        rng = np.random.default_rng(9)
        state = self.rand_state(rng, 3, batch=4)[::2]
        assert not state.flags.c_contiguous
        out = apply_matrix_inplace(state, np.diag([1.0, 1j]), (0,), 3)
        want = apply_matrix(np.ascontiguousarray(state), np.diag([1.0, 1j]), (0,), 3)
        assert np.array_equal(out, want)


class TestInjectKicks:
    def test_matches_masked_pauli_application(self):
        rng = np.random.default_rng(3)
        for num_qubits, qubit in ((1, 0), (3, 1), (4, 3)):
            batch = 6
            shape = (batch, 1 << num_qubits)
            states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            hit = rng.random(batch) < 0.5
            pick = rng.integers(0, 3, size=batch)
            want = states.copy()
            for row in range(batch):
                if hit[row]:
                    want[row] = apply_matrix(
                        want[row], PAULIS[pick[row]], (qubit,), num_qubits
                    )
            got = states.copy()
            kicks = _inject_kicks(got, num_qubits, qubit, hit, pick)
            assert kicks == int(hit.sum())
            assert np.allclose(got, want, atol=1e-12)

    def test_no_hits_is_identity(self):
        states = np.full((2, 4), 0.5 + 0.0j)
        before = states.copy()
        kicks = _inject_kicks(
            states, 2, 0, np.zeros(2, dtype=bool), np.zeros(2, dtype=np.intp)
        )
        assert kicks == 0
        assert np.array_equal(states, before)


class TestProgramKernel:
    def make_plan(self, rng, num_qubits, depth, single_error=0.08, cz_error=0.15):
        circuit = random_circuit(rng, num_qubits, depth)
        noise = NoiseModel.uniform(
            num_qubits, single_qubit_error=single_error, cz_error=cz_error
        )
        return build_trajectory_plan(circuit, noise)

    def test_matches_in_place_reference_exactly(self):
        """Sharing rows and drawing all kicks up front change no amplitude:
        every one equals op-by-op in-place application of one row per
        trajectory, with kicks drawn site by site."""
        master = np.random.default_rng(20260808)
        for _ in range(20):
            n = int(master.integers(1, 7))
            plan = self.make_plan(master, n, int(master.integers(3, 40)))
            seed = int(master.integers(2**31))
            batch = int(master.integers(1, 9))
            rng_a = np.random.default_rng(seed)
            got, kicks_got = advance_one_batch(plan, batch, rng_a)
            rng_b = np.random.default_rng(seed)
            want, kicks_want = reference_advance(plan, batch, rng_b, inplace=True)
            assert kicks_got == kicks_want
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            assert np.array_equal(got, want)

    def test_matches_legacy_apply_matrix_reference(self):
        """Against the pre-optimisation op-by-op apply_matrix evolution the
        kernel agrees to float rounding, with an identical kick stream."""
        master = np.random.default_rng(99)
        for _ in range(10):
            n = int(master.integers(2, 7))
            plan = self.make_plan(master, n, int(master.integers(5, 30)))
            seed = int(master.integers(2**31))
            got, kicks_got = advance_one_batch(plan, 5, np.random.default_rng(seed))
            want, kicks_want = reference_advance(
                plan, 5, np.random.default_rng(seed), inplace=False
            )
            assert kicks_got == kicks_want
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_states_are_normalised(self):
        master = np.random.default_rng(5)
        plan = self.make_plan(master, 4, 20)
        states, _ = advance_one_batch(plan, 8, np.random.default_rng(1))
        assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-9)

    def test_kick_stream_independent_of_hits(self):
        """Zero-noise and high-noise runs consume the same number of draws
        per site, so the stream position never depends on hit outcomes."""
        master = np.random.default_rng(17)
        circuit = random_circuit(master, 3, 15)
        quiet = build_trajectory_plan(circuit, NoiseModel.uniform(3, 1e-12, 1e-12))
        loud = build_trajectory_plan(circuit, NoiseModel.uniform(3, 0.4, 0.4))
        rng_a = np.random.default_rng(2)
        advance_one_batch(quiet, 4, rng_a)
        rng_b = np.random.default_rng(2)
        advance_one_batch(loud, 4, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def compiled_plan(name, num_qubits, backend, noise=None):
    """The trajectory plan a ``--fidelity`` sweep job runs: the physical
    circuit ``compile_spec`` emits, under the backend's noise model unless
    ``noise`` (a function of the register width) replaces it."""
    spec = ExperimentSpec(benchmark=name, backend=backend, num_qubits=num_qubits)
    physical = compile_spec(spec).physical_circuit
    if noise is None:
        model = spec.backend.noise_model(
            physical.num_qubits, couplers=sorted(physical.two_qubit_pairs()), seed=0
        )
    else:
        model = noise(physical.num_qubits)
    return build_trajectory_plan(physical, model)


def lockstep_program_advance(plan, batch, rng):
    """The plan's relabeled ops and site table run in lockstep: one row per
    trajectory, and two ``rng.random(batch)`` draws per kick site, hit or
    not."""
    n, fused = plan.num_qubits, plan.fused
    states = np.zeros((batch, 1 << n), dtype=complex)
    states[:, 0] = 1.0
    kicks = 0
    start = 0
    for matrix, targets, stop in zip(fused.matrices, fused.targets, plan.site_stops):
        states = apply_matrix_inplace(states, matrix, targets, n)
        for site in range(start, stop):
            hit = rng.random(batch) < plan.site_probs[site]
            pick = np.minimum(
                np.searchsorted(plan.kick_cumweights, rng.random(batch)), 2
            )
            if hit.any():
                kicks += _inject_kicks(states, n, plan.site_qubits[site], hit, pick)
        start = stop
    if fused.restore is not None:
        states = states.take(fused.restore, axis=1)
    return states, kicks


def assert_matches_reference(plan, batch, seed=11):
    """The distinct-row kernel against lockstep evolution of the same batch.

    Against the lockstep program, kicks, generator end state and amplitudes
    are equal.  Against op-by-op evolution they are equal too below 10
    qubits; from 10 qubits the program relabels qubits, which changes the
    strides dense gates run at, so amplitudes agree to rounding (as they did
    before rows were shared).  Returns the rows and ``row_of``."""
    n = plan.num_qubits
    rng = np.random.default_rng(seed)
    rows, row_of, (kicks,) = _advance_rows(plan, [(batch, rng)])
    got = rows.take(row_of, axis=0)
    rng_lockstep = np.random.default_rng(seed)
    lockstep, kicks_lockstep = lockstep_program_advance(plan, batch, rng_lockstep)
    assert kicks == kicks_lockstep
    assert rng.bit_generator.state == rng_lockstep.bit_generator.state
    assert np.array_equal(got, lockstep)
    rng_ref = np.random.default_rng(seed)
    want, kicks_want = reference_advance(plan, batch, rng_ref, inplace=True)
    assert kicks == kicks_want
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    if n < 10:
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=0, atol=1e-12)
    return rows, row_of


#: Table IV benchmarks at logical sizes whose compiled circuits span 6-12
#: physical qubits: (benchmark, logical qubits) -> physical qubits.
COMPILED_CASES = [
    ("qgan", 6),   # 6
    ("qgan", 10),  # 12
    ("ising", 8),  # 9
    ("ising", 12),  # 12
    ("bv", 12),    # 12
    ("add1", 10),  # 6
    ("add2", 6),   # 6
]


class TestCompiledCircuitOracle:
    """On the circuits sweep jobs simulate, one row per distinct trajectory
    reproduces the lockstep batch bit for bit."""

    @pytest.mark.parametrize("backend", ["digiq-opt8", "cryo-cmos-grid"])
    @pytest.mark.parametrize("name,num_qubits", COMPILED_CASES)
    def test_matches_lockstep_reference(self, name, num_qubits, backend):
        plan = compiled_plan(name, num_qubits, backend)
        assert 6 <= plan.num_qubits <= 12
        for batch in (1, 7, 25):
            _, row_of = assert_matches_reference(plan, batch)
            assert np.unique(row_of).size <= batch

    def test_zero_noise_keeps_one_row(self):
        plan = compiled_plan(
            "ising", 8, "digiq-opt8", noise=lambda n: NoiseModel.uniform(n, 0.0, 0.0)
        )
        for batch in (1, 7, 25):
            rows, row_of = assert_matches_reference(plan, batch)
            assert not row_of.any()
            assert rows.shape[0] == min(batch, 2)

    def test_heavy_noise_gives_every_trajectory_its_own_row(self):
        plan = compiled_plan(
            "ising", 8, "digiq-opt8", noise=lambda n: NoiseModel.uniform(n, 0.4, 0.4)
        )
        for batch in (1, 7, 25):
            rows, row_of = assert_matches_reference(plan, batch)
            assert sorted(row_of.tolist()) == list(range(batch))
            assert rows.shape[0] == batch

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", ["digiq-opt8", "cryo-cmos-grid"])
    def test_widest_register_sqrt(self, backend):
        plan = compiled_plan("sqrt", 8, backend)
        assert plan.num_qubits == 16
        for batch in (1, 7):
            assert_matches_reference(plan, batch)


def seeded(sizes, seed):
    """``(size, generator)`` per batch, seeded as a run seeds its batches."""
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return [(size, np.random.default_rng(child)) for size, child in zip(sizes, children)]


def group_sizes(num_qubits, num_trajectories, batch_size=25):
    """Batch sizes of each lockstep group of a run on ``num_qubits``."""
    circuit = QuantumCircuit(num_qubits)
    circuit.add("h", [0])
    payloads = trajectory_batch_payloads(
        circuit, NoiseModel.uniform(num_qubits, 0.01, 0.01), num_trajectories,
        batch_size=batch_size,
    )
    return [[size for size, _ in batches] for _, batches in lockstep_groups(payloads)]


class TestLockstepGroups:
    def test_group_matches_groups_of_one_exactly(self):
        """Advancing k batches in one set of rows gives each batch the same
        states, kicks, scores and generator end state as k groups of one."""
        master = np.random.default_rng(20261019)
        for _ in range(24):
            n = int(master.integers(1, 12))
            circuit = random_circuit(master, n, int(master.integers(3, 40)))
            plan = build_trajectory_plan(circuit, NoiseModel.uniform(n, 0.06, 0.12))
            sizes = [int(master.integers(2, 9)) for _ in range(int(master.integers(2, 5)))]
            seed = int(master.integers(2**31))

            grouped = seeded(sizes, seed)
            rows, row_of, kicks = _advance_rows(plan, grouped)
            alone = seeded(sizes, seed)
            bounds = np.cumsum([0] + sizes)
            for lo, hi, batch, got_kicks in zip(bounds, bounds[1:], alone, kicks):
                want, want_kicks = advance_one_batch(plan, *batch)
                got = rows.take(row_of[lo:hi], axis=0)
                # Equal values; a zero's sign may differ (see _advance_rows).
                assert np.array_equal(got, want)
                assert got_kicks == want_kicks
            for (_, rng_a), (_, rng_b) in zip(grouped, alone):
                assert rng_a.bit_generator.state == rng_b.bit_generator.state

            got = run_trajectory_group(plan, seeded(sizes, seed))
            want = [
                result
                for batch in seeded(sizes, seed)
                for result in run_trajectory_group(plan, [batch])
            ]
            assert [r.kicks for r in got] == [r.kicks for r in want]
            for a, b in zip(got, want):
                assert np.array(a.fidelities).tobytes() == np.array(b.fidelities).tobytes()
                assert (
                    np.array(a.success_probs).tobytes()
                    == np.array(b.success_probs).tobytes()
                )

    def test_returned_states_are_the_same_bytes_in_any_grouping(self, monkeypatch):
        """``noisy_trajectory_states`` returns the same bytes whether its
        batches advance as one group or each alone, zeros' signs included."""
        master = np.random.default_rng(20261019)
        for _ in range(10):
            n = int(master.integers(1, 6))
            circuit = random_circuit(master, n, int(master.integers(3, 30)))
            noise = NoiseModel.uniform(n, 0.06, 0.12)
            seed = int(master.integers(2**31))
            grouped = noisy_trajectory_states(circuit, noise, 12, seed=seed, batch_size=4)
            with monkeypatch.context() as patch:
                patch.setattr(trajectories, "GROUP_AMPLITUDES", 0)
                alone = noisy_trajectory_states(circuit, noise, 12, seed=seed, batch_size=4)
            assert grouped.tobytes() == alone.tobytes()

    def test_groups_follow_the_amplitude_budget(self):
        assert group_sizes(9, 100) == [[25, 25, 25, 25]]
        assert group_sizes(12, 130) == [[25, 25], [25, 25], [25, 5]]
        assert group_sizes(16, 100) == [[25]] * 4

    def test_batch_of_one_runs_alone(self):
        assert group_sizes(9, 51) == [[25, 25], [1]]
        assert group_sizes(9, 3, batch_size=1) == [[1], [1], [1]]

    def test_sixteen_qubit_run_holds_one_batch_of_rows(self, monkeypatch):
        held = []

        def recording(plan, batches):
            rows, row_of, kicks = _advance_rows(plan, batches)
            held.append((len(batches), rows.shape[0]))
            return rows, row_of, kicks

        monkeypatch.setattr(trajectories, "_advance_rows", recording)
        circuit = random_circuit(np.random.default_rng(4), 16, 30)
        result = run_trajectories(
            circuit, NoiseModel.uniform(16, 0.05, 0.1), 100, seed=2, batch_size=25
        )
        assert result.num_trajectories == 100
        assert [batches for batches, _ in held] == [1, 1, 1, 1]
        assert all(rows <= 25 for _, rows in held)


class TestKickWeights:
    def test_cumulative_weights_end_at_exactly_one(self):
        for weights in ((1.0, 1.0, 2.0), (0.3, 0.3, 0.1), (1e-9, 1.0, 1e-9)):
            model = NoiseModel(num_qubits=1, pauli_weights=weights)
            cumweights = model.kick_cumulative_weights()
            assert cumweights[-1] == 1.0
            assert np.all(np.diff(cumweights) >= 0)

    def test_draw_at_upper_edge_cannot_escape_pauli_table(self):
        """Even with a cumulative array ending a few ulp below 1.0 a maximal
        draw is clipped into the table instead of indexing past it."""
        cumweights = np.array([0.25, 0.5, 1.0 - 1e-16])
        pick = np.minimum(
            np.searchsorted(cumweights, np.array([0.999999, 1.0 - 1e-17])), 2
        )
        assert pick.max() <= 2
        states = np.full((2, 2), np.sqrt(0.5) + 0j)
        kicks = _inject_kicks(
            states, 1, 0, np.ones(2, dtype=bool), pick.astype(np.intp)
        )
        assert kicks == 2
