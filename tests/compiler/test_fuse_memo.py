"""Pins the single-qubit run memo of :func:`~repro.compiler.basis.fuse_single_qubit_runs`.

Fusion looks each run's outcome up by the run's exact ``(name, params)``
sequence, so a memo hit must spell the same gate, bit for bit, as computing
the product and its ZYZ angles afresh
(:func:`tests.oracles.fuse_single_qubit_runs_reference`).  The memo is
bounded, evicts oldest first, and is shared by threads.
"""

import math
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.circuits.benchmarks import build_benchmark
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.circuits.library import KNOWN_GATES, gate_spec, inverse_gate
from repro.compiler import basis, compile_circuit, optimization
from repro.compiler.basis import RUN_MEMO_SIZE, fuse_single_qubit_runs
from tests.oracles import fuse_single_qubit_runs_reference

ONE_QUBIT_GATES = sorted(name for name in KNOWN_GATES if gate_spec(name).num_qubits == 1)

ANGLES = st.one_of(
    st.sampled_from((0.0, math.pi / 2, -math.pi / 2)),
    st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False),
)


def spelled(circuit):
    """Each gate as (name, qubits, exact params), so -0.0 and 0.0 differ."""
    return [(g.name, g.qubits, tuple(p.hex() for p in g.params)) for g in circuit]


@st.composite
def one_qubit_gate(draw, qubit):
    name = draw(st.sampled_from(ONE_QUBIT_GATES))
    params = tuple(draw(ANGLES) for _ in range(gate_spec(name).num_params))
    return Gate(name, (qubit,), params)


@st.composite
def identity_run(draw, qubit):
    """A few gates followed by their inverses in reverse: the identity up to phase."""
    gates = draw(st.lists(one_qubit_gate(qubit), min_size=1, max_size=3))
    return gates + [inverse_gate(gate) for gate in reversed(gates)]


@st.composite
def circuits(draw):
    num_qubits = draw(st.integers(1, 3))
    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("gate", "identity", "cz")))
        if kind == "cz" and num_qubits > 1:
            a, b = draw(st.permutations(range(num_qubits)))[:2]
            circuit.append(Gate("cz", (a, b)))
            continue
        qubit = draw(st.integers(0, num_qubits - 1))
        if kind == "identity":
            gates = draw(identity_run(qubit))
        else:
            gates = [draw(one_qubit_gate(qubit))]
        for gate in gates:
            circuit.append(gate)
    return circuit


def misses():
    return telemetry.histogram("compile.fuse.memo.miss").summary()["total"]


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_cold_and_warm_memo_match_the_oracle(circuit):
    expected = spelled(fuse_single_qubit_runs_reference(circuit))
    basis._RUN_MEMO.clear()
    assert spelled(fuse_single_qubit_runs(circuit)) == expected
    before = misses()
    assert spelled(fuse_single_qubit_runs(circuit)) == expected
    assert misses() == before  # every run of the second call hit


@settings(max_examples=50, deadline=None)
@given(st.lists(one_qubit_gate(0), min_size=1, max_size=3))
def test_identity_runs_are_dropped(gates):
    circuit = QuantumCircuit(1)
    for gate in gates + [inverse_gate(gate) for gate in reversed(gates)]:
        circuit.append(gate)
    basis._RUN_MEMO.clear()
    assert len(fuse_single_qubit_runs(circuit)) == 0
    assert len(fuse_single_qubit_runs(circuit)) == 0


@settings(max_examples=50, deadline=None)
@given(ANGLES, st.sampled_from(("rx", "ry", "rz", "p")))
def test_params_one_ulp_apart_miss_the_memo(angle, name):
    basis._RUN_MEMO.clear()
    for value in (angle, math.nextafter(angle, math.inf)):
        circuit = QuantumCircuit(1).h(0)
        circuit.append(Gate(name, (0,), (value,)))
        before = misses()
        assert spelled(fuse_single_qubit_runs(circuit)) == spelled(
            fuse_single_qubit_runs_reference(circuit)
        )
        assert misses() == before + 1


def distinct_runs(count, start=0):
    """``count`` rx runs on qubit 0 with distinct angles, each closed by a cz."""
    circuit = QuantumCircuit(2)
    for step in range(start, start + count):
        circuit.append(Gate("rx", (0,), (1e-3 * (step + 1),)))
        circuit.append(Gate("cz", (0, 1)))
    return circuit


def test_memo_holds_at_most_its_bound_and_evicts_oldest_first():
    basis._RUN_MEMO.clear()
    circuit = distinct_runs(RUN_MEMO_SIZE + 100)
    assert spelled(fuse_single_qubit_runs(circuit)) == spelled(
        fuse_single_qubit_runs_reference(circuit)
    )
    assert len(basis._RUN_MEMO) == RUN_MEMO_SIZE
    keys = list(basis._RUN_MEMO)
    assert keys[0] == ("rx", (1e-3 * 101,))
    assert keys[-1] == ("rx", (1e-3 * (RUN_MEMO_SIZE + 100),))


def test_o1_compile_leaves_the_zyz_cache_empty():
    optimization._ZYZ_CACHE.clear()
    circuit = build_benchmark("qgan", num_qubits=8, seed=0)
    compile_circuit(circuit, seed=0, opt_level=1)
    assert optimization._ZYZ_CACHE == {}
    compile_circuit(circuit, seed=0, opt_level=2)
    assert optimization._ZYZ_CACHE  # -O2's commutation-aware fusion still uses it


def test_threads_fusing_against_a_full_memo_match_the_oracle():
    basis._RUN_MEMO.clear()
    fuse_single_qubit_runs(distinct_runs(RUN_MEMO_SIZE))
    assert len(basis._RUN_MEMO) == RUN_MEMO_SIZE
    # Each thread mixes runs the memo holds with fresh ones that evict.
    work = [
        [distinct_runs(300, start=RUN_MEMO_SIZE + 300 * index), distinct_runs(300, start=0)]
        for index in range(4)
    ]
    expected = [[spelled(fuse_single_qubit_runs_reference(c)) for c in pair] for pair in work]
    barrier = threading.Barrier(len(work))
    results = [None] * len(work)
    errors = []

    def fuse(index):
        try:
            barrier.wait(timeout=60)
            results[index] = [
                spelled(fuse_single_qubit_runs(c)) for _ in range(3) for c in work[index]
            ]
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=fuse, args=(index,)) for index in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-run, inside the memo's updates
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for index, result in enumerate(results):
        assert result == expected[index] * 3
    assert len(basis._RUN_MEMO) <= RUN_MEMO_SIZE
