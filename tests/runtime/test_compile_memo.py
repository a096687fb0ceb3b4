"""The source-circuit and compile memos reuse work without changing an output.

Table IV at 12 and 16 qubits under a DigiQ grid, a cryo-CMOS grid and a
heavy-hex backend: compiling never alters a memoized source circuit, the
memoized source is the circuit a fresh build gives, and rows computed from
one shared compilation equal rows from a fresh build and compile per design.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.circuits.benchmarks import TABLE_IV_NAMES, build_benchmark
from repro.circuits.circuit import circuit_fingerprint
from repro.runtime import jobs
from repro.runtime.jobs import CompileMemo, compile_spec, execute_spec
from repro.runtime.spec import ExperimentSpec
from repro.runtime.store import canonical_json

BACKENDS = ("digiq-opt8", "cryo-cmos-grid", "digiq-heavy-hex")
QUBITS = (12, 16)


def fresh_spec(spec):
    """The same job on a freshly built circuit, which no memo has seen."""
    circuit = build_benchmark(spec.benchmark, num_qubits=spec.num_qubits, seed=spec.seed)
    return ExperimentSpec(
        benchmark=spec.benchmark, backend=spec.backend, seed=spec.seed, circuit=circuit
    )


@pytest.mark.parametrize("num_qubits", QUBITS)
@pytest.mark.parametrize("name", TABLE_IV_NAMES)
def test_memoized_compiles_match_fresh_ones(name, num_qubits):
    specs = [
        ExperimentSpec(benchmark=name, backend=backend, num_qubits=num_qubits)
        for backend in BACKENDS
    ]
    fresh = build_benchmark(name, num_qubits=num_qubits, seed=0)
    source, fingerprint = jobs._source(specs[0])
    assert jobs._source(specs[0])[0] is source  # served from the memo
    assert source.as_dict() == fresh.as_dict()
    assert fingerprint == circuit_fingerprint(fresh)

    memo = CompileMemo()
    for spec in specs:
        compile_spec(spec)
        assert circuit_fingerprint(source) == fingerprint
        shared = execute_spec(spec, compiled=memo.compiled(spec)).row
        alone = execute_spec(fresh_spec(spec)).row
        assert canonical_json(shared) == canonical_json(alone)
    assert circuit_fingerprint(source) == fingerprint
    assert memo.misses == len({spec.compile_group for spec in specs})
    assert memo.hits + memo.misses == len(specs)


def test_compile_memo_keeps_its_most_recent_groups(monkeypatch):
    compiles = []

    def counting(spec):
        compiles.append(spec.seed)
        return object()

    monkeypatch.setattr(jobs, "compile_spec", counting)
    memo = CompileMemo()
    specs = [
        ExperimentSpec(benchmark="bv", num_qubits=4, seed=seed)
        for seed in range(jobs.COMPILE_MEMO_SIZE + 1)
    ]
    for spec in specs:
        memo.compiled(spec)
    assert len(memo) == jobs.COMPILE_MEMO_SIZE
    memo.compiled(specs[-1])  # still held
    memo.compiled(specs[0])  # the least recently used: evicted, compiled again
    assert compiles == [spec.seed for spec in specs] + [0]
    assert (memo.hits, memo.misses) == (1, len(specs) + 1)


def test_concurrent_lookups_count_every_call(monkeypatch):
    monkeypatch.setattr(jobs, "compile_spec", lambda spec: object())
    memo = CompileMemo()
    specs = [ExperimentSpec(benchmark="bv", num_qubits=4, seed=seed) for seed in range(4)]
    start = threading.Barrier(8)

    def lookups(_thread):
        start.wait(timeout=60)
        for _ in range(200):
            for spec in specs:
                memo.compiled(spec)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lookups, range(8), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert memo.hits + memo.misses == 8 * 200 * len(specs)
    assert len(specs) <= memo.misses <= 8 * len(specs)
