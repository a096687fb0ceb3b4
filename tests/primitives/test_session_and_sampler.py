"""Session/Sampler: sweep-path bit-identity, shared caches, counts."""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.backends import get_backend
from repro.circuits import QuantumCircuit, simulate
from repro.primitives import Sampler, Session
from repro.runtime import (
    FidelityOptions,
    ResultStore,
    SweepGrid,
    run_sweep,
)
from repro.runtime.store import canonical_json

FIDELITY = FidelityOptions(trajectories=20, max_qubits=12)


class TestSamplerMatchesSweep:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        benchmark=st.sampled_from(["bv", "ising", "qgan"]),
        seed=st.integers(0, 3),
        backend=st.sampled_from(["digiq-opt8", "digiq-min2"]),
    )
    def test_sampler_row_bit_identical_to_run_sweep(
        self, tmp_path, benchmark, seed, backend
    ):
        """The acceptance property: same job key, byte-identical result row."""
        sweep_store = ResultStore(tmp_path / f"sweep-{benchmark}-{backend}-{seed}")
        grid = SweepGrid(
            benchmarks=(benchmark,),
            backends=(backend,),
            num_qubits=8,
            seeds=(seed,),
            fidelity=FIDELITY,
        )
        report = run_sweep(grid, store=sweep_store)

        with Session(get_backend(backend)) as session:
            result = (
                Sampler(session)
                .run(benchmark, num_qubits=8, seed=seed, fidelity_options=FIDELITY)
                .result(timeout=300)
            )

        assert result.metadata["job_keys"] == report.keys
        assert canonical_json(result[0].row) == canonical_json(report.results[0].row)
        assert result[0].success_probability == report.rows[0]["success_probability"]

    def test_sampler_reuses_a_sweeps_on_disk_cache(self, tmp_path):
        """Pointing a session at a sweep's store serves its entries verbatim."""
        store = ResultStore(tmp_path)
        grid = SweepGrid(
            benchmarks=("bv",),
            backends=("digiq-opt8",),
            num_qubits=8,
            seeds=(0,),
            fidelity=FIDELITY,
        )
        run_sweep(grid, store=store)

        with Session("digiq-opt8", store=store) as session:
            result = (
                Sampler(session)
                .run("bv", num_qubits=8, seed=0, fidelity_options=FIDELITY)
                .result(timeout=300)
            )
        assert result.metadata["cached"] == 1
        assert result[0].cached is True
        assert result[0].elapsed_s == 0.0

    def test_sweep_reuses_a_samplers_store(self, tmp_path):
        """And the other direction: primitive jobs feed later sweeps."""
        store = ResultStore(tmp_path)
        with Session("digiq-opt8", store=store) as session:
            Sampler(session).run(
                "bv", num_qubits=8, seed=0, fidelity_options=FIDELITY
            ).result(timeout=300)

        grid = SweepGrid(
            benchmarks=("bv",),
            backends=("digiq-opt8",),
            num_qubits=8,
            seeds=(0,),
            fidelity=FIDELITY,
        )
        report = run_sweep(grid, store=store)
        assert report.num_cached == 1
        assert report.num_computed == 0


class TestSweepJobPath:
    """A session submission runs through the sweep's job core, not beside it."""

    def test_store_is_the_sessions_only_result_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        with Session("digiq-opt8", store=store) as session:
            def submit():
                return session.run("bv", num_qubits=8, lazy=True).result()[0]

            first = submit()
            assert first.cached is False
            assert submit().cached is True  # served by the store
            # No copy above the store: a discarded entry is recomputed ...
            assert store.discard(first.job_key)
            again = submit()
            assert again.cached is False
            assert canonical_json(again.row) == canonical_json(first.row)
            # ... and a torn one reads as a miss, exactly as a sweep reads it.
            store.path_for(first.job_key).write_text("{torn", encoding="utf-8")
            assert submit().cached is False
            assert submit().cached is True  # the recompute rewrote the entry

    def test_concurrent_submissions_share_one_store(self):
        """Submissions on the session's threads race on its store and memo;
        every entry still carries the row a lone submission gives."""
        names = ["bv", "ising", "qgan"]
        with Session("digiq-opt8") as session:
            expected = [
                session.run(name, num_qubits=5, lazy=True).result()[0].row for name in names
            ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Session("digiq-opt8", max_workers=8) as session:
                handles = [session.run(names, num_qubits=5) for _ in range(16)]
                results = [handle.result(timeout=300) for handle in handles]
                stored = len(session.store)
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert [entry.row for entry in result] == expected
        assert stored == len(names)

    def test_traced_sampler_runs_the_sweep_span_tree(self):
        telemetry.reset()
        try:
            sampler = Sampler("digiq-opt8")
            with telemetry.collecting():
                sampler.run(["bv", "ising"], num_qubits=6, shots=8).result()
                tree = telemetry.span_tree()
            sampler.run(["bv", "ising"], num_qubits=6, shots=8).result()
            counters = telemetry.snapshot_metrics()["counters"]
        finally:
            telemetry.reset()

        (root,) = tree
        assert root["name"] == "sweep.run"
        assert root["attrs"]["jobs"] == 2
        groups = [node for node in root["children"] if node["name"] == "sweep.group"]
        assert [group["attrs"]["benchmark"] for group in groups] == ["bv", "ising"]
        for group in groups:
            (job,) = [node for node in group["children"] if node["name"] == "job.execute"]
            schedules = [
                node for node in job["children"] if node["name"] == "job.simd_schedule"
            ]
            assert len(schedules) == 1
        # Two submissions of two jobs: computed once, then served by the store.
        assert counters["sweep.jobs"] == 4
        assert counters["sweep.computed"] == 2
        assert counters["sweep.cached"] == 2


class TestSessionCompilationReuse:
    def test_one_compilation_across_shots_and_fidelity(self):
        with Session("digiq-opt8") as session:
            sampler = Sampler(session)
            sampler.run("bv", num_qubits=8, shots=32).result(timeout=300)
            sampler.run("bv", num_qubits=8, shots=999).result(timeout=300)
            sampler.run(
                "bv", num_qubits=8, fidelity_options=FIDELITY
            ).result(timeout=300)
        assert session.compile_misses == 1
        assert session.compile_hits >= 2

    def test_user_circuit_and_identical_clone_share_compilation(self):
        circuit = QuantumCircuit(4, name="mine")
        circuit.h(0)
        for qubit in range(3):
            circuit.cx(qubit, qubit + 1)
        clone = circuit.copy(name="other-label")
        with Session("digiq-opt8") as session:
            first = session.run(circuit, shots=16).result(timeout=300)
            second = session.run(clone, shots=16).result(timeout=300)
        # Same gate stream -> same content key, regardless of the label.
        assert first.metadata["job_keys"] == second.metadata["job_keys"]
        assert session.compile_misses == 1

    def test_memo_holds_a_bounded_number_of_compilations(self):
        from repro.runtime.jobs import COMPILE_MEMO_SIZE, execute_spec

        seeds = range(COMPILE_MEMO_SIZE + 2)
        with Session("digiq-opt8") as session:
            rows = [
                session.run("bv", num_qubits=5, seed=seed).result(timeout=300)[0].row
                for seed in seeds
            ]
            assert len(session._compiled) == COMPILE_MEMO_SIZE
        assert session.compile_misses == len(seeds)
        for seed, row in zip(seeds, rows):
            spec = session.make_specs("bv", num_qubits=5, seed=seed)[0]
            assert canonical_json(row) == canonical_json(execute_spec(spec).row)

    def test_mismatched_backend_spec_rejected(self):
        from repro.runtime import ExperimentSpec

        session = Session("digiq-opt8")
        spec = ExperimentSpec(benchmark="bv", backend="digiq-min2", num_qubits=8)
        with pytest.raises(ValueError, match="digiq-min2"):
            session._execute_all([spec])


class TestCounts:
    def test_counts_are_seeded_and_sum_to_shots(self):
        handle = get_backend("digiq-opt8").run("bv", num_qubits=8, shots=500, seed=1)
        counts = handle.result()[0].counts
        assert sum(counts.values()) == 500
        again = get_backend("digiq-opt8").run("bv", num_qubits=8, shots=500, seed=1)
        assert again.result()[0].counts == counts

    def test_bv_counts_concentrate_on_the_secret_string(self):
        # Noiseless BV measures its secret exactly: one outcome, all shots.
        result = get_backend("digiq-opt8").run("bv", num_qubits=8, shots=256).result()
        (bitstring, hits), = result[0].counts.items()
        assert hits == 256
        assert set(bitstring) <= {"0", "1"}

    def test_user_circuit_counts_track_statevector(self):
        circuit = QuantumCircuit(3, name="ghz")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        result = get_backend("digiq-opt8").run(circuit, shots=4000).result()
        counts = result[0].counts
        assert set(counts) == {"000", "111"}
        assert abs(counts["000"] / 4000 - 0.5) < 0.1

    def test_counts_survive_routing_permutations(self):
        # A circuit wide enough to force SWAPs: logical readout must be
        # extracted through the final layout, not raw physical order.
        from repro.circuits import dominant_bitstring

        circuit = QuantumCircuit(6, name="spread")
        circuit.x(0)
        circuit.x(5)
        circuit.cx(0, 5)  # distant pair -> routing moves qubits
        result = get_backend("digiq-opt8").run(circuit, shots=64).result()
        expected = dominant_bitstring(simulate(circuit))
        assert result[0].counts == {expected: 64}


class TestRunResultShape:
    def test_multi_circuit_submission_preserves_order_and_metadata(self):
        backend = get_backend("digiq-opt8")
        handle = backend.run(["bv", "ising"], num_qubits=8, shots=32)
        result = handle.result()
        assert [entry.label for entry in result] == ["bv", "ising"]
        assert result.metadata["backend"] == "digiq-opt8"
        assert len(result.metadata["job_keys"]) == 2
        assert all(entry.row["backend"] == "digiq-opt8" for entry in result)
        assert all(entry.trace for entry in result)  # compile trace attached

    def test_report_summary_renders_primitive_results(self):
        from repro.analysis.report import format_table, summarize_primitive_results

        result = get_backend("digiq-opt8").run("bv", num_qubits=8, shots=32).result()
        rows = summarize_primitive_results([result])
        assert rows[0]["circuit"] == "bv"
        assert rows[0]["kind"] == "run"
        assert "bv" in format_table(rows, title="Primitive executions")
