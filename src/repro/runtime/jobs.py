"""Content-addressed job identity and the worker that executes jobs.

A job's *key* is a SHA-256 over everything that determines its result: the
exact gate stream of the circuit, the compiler options, and the backend (its
topology family, DigiQ configuration, controller and calibration).  Two
submissions that build the same circuit and schedule it the same way
therefore share cache entries, regardless of how the work was phrased — the
result store is content-addressed, not name-addressed: a legacy ``--configs
opt8`` sweep hits the same entries as ``--backend digiq-opt8``, and a
:class:`repro.primitives.Sampler` submitting a Table IV circuit hits the
same entries as the equivalent ``--fidelity`` sweep.

:func:`execute_spec` runs exactly one job.  :func:`execute_compile_group` —
the unit of work the job core (:mod:`repro.runtime.dispatch`, which sweeps
and :class:`repro.primitives.Session` submissions share) runs or hands a
:class:`repro.runtime.executor.WorkerPool`, as does the queue daemon —
calls it once per backend after compiling the group's circuit a single
time per device topology, which is what makes wide backend sweeps cheap.

Two bounded, lock-guarded LRU memos keep repeated work out of the hot paths;
neither changes an output:

* **source circuits, per process** — :func:`job_key` and
  :func:`compile_spec` build and fingerprint a generator circuit once per
  ``(benchmark, num_qubits, seed)`` (at most :data:`SOURCE_MEMO_SIZE` kept),
  so a sweep builds each circuit once and the daemon's HTTP threads key the
  other designs of a circuit with one hash each.  User circuits are
  fingerprinted per call and never memoized.
* **compilations, per owner** — a :class:`CompileMemo` keeps at most
  :data:`COMPILE_MEMO_SIZE` compilations by
  :attr:`~repro.runtime.spec.ExperimentSpec.compile_group`.  Each daemon
  worker process owns one (:func:`execute_queued_job`), so a served circuit
  compiles once per worker however many designs it is scheduled under; each
  :class:`repro.primitives.Session` owns one.  Sweeps take none: they
  already compile each group exactly once.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..circuits.circuit import QuantumCircuit, circuit_fingerprint
from ..compiler.pipeline import CompiledCircuit, compile_circuit
from ..core.execution import normalized_execution_time
from ..simulation.engine import run_trajectories
from .spec import ExperimentSpec
from .store import RESULT_SCHEMA_VERSION, canonical_json

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .executor import WorkerPool

#: Generator circuits (with fingerprints) the source memo keeps per process.
SOURCE_MEMO_SIZE = 16
#: Compilations one :class:`CompileMemo` keeps.
COMPILE_MEMO_SIZE = 8

#: Canonical column order of a result row.  Stored entries round-trip through
#: sorted-key JSON, so presentation order is re-imposed from this list.
ROW_COLUMNS = (
    "benchmark",
    "backend",
    "design",
    "seed",
    "opt_level",
    "digiq_time_us",
    "mimd_time_us",
    "normalized_time",
    "serialization_overhead",
    "success_probability",
    "ideal_success",
    "state_fidelity",
    "trajectories",
    "logical_qubits",
    "physical_qubits",
    "cz_gates",
    "swaps",
    "depth",
)


def ordered_row(row: Dict[str, object]) -> Dict[str, object]:
    """A copy of one result row with columns in canonical presentation order."""
    known = {col: row[col] for col in ROW_COLUMNS if col in row}
    extras = {col: row[col] for col in sorted(row) if col not in known}
    known.update(extras)
    return known


class _LRU:
    """A bounded, lock-guarded mapping that evicts its least recently used
    entry and counts its lookups' hits and misses."""

    def __init__(self, size: int):
        self._size = size
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: object) -> Optional[object]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return value

    def put(self, key: object, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self._size:
                self._entries.popitem(last=False)


_SOURCES = _LRU(SOURCE_MEMO_SIZE)


def _source(spec: ExperimentSpec) -> Tuple[QuantumCircuit, str]:
    """The spec's logical circuit and its fingerprint, built once per process.

    Generator circuits are memoized by ``(benchmark, num_qubits, seed)``,
    which fully determines them; user circuits are fingerprinted as given.
    """
    if spec.circuit is not None:
        return spec.circuit, circuit_fingerprint(spec.circuit)
    ident = (spec.benchmark, spec.num_qubits, spec.seed)
    entry = _SOURCES.get(ident)
    if entry is None:
        circuit = spec.source_circuit()
        entry = (circuit, circuit_fingerprint(circuit))
        _SOURCES.put(ident, entry)
    return entry


def job_key(spec: ExperimentSpec, circuit: Optional[QuantumCircuit] = None) -> str:
    """Content hash identifying one job's result.

    The key covers the circuit contents (not just a benchmark name — user
    circuits and generator instances share the keyspace), the compile
    options, and the full backend description, so any change to a benchmark
    generator, the compiler knobs, or a device parameter produces a fresh
    key and a clean recompute instead of a stale cache hit.
    """
    fingerprint = _source(spec)[1] if circuit is None else circuit_fingerprint(circuit)
    payload = {
        "schema": RESULT_SCHEMA_VERSION,
        "circuit": fingerprint,
        "compile": spec.compile_options.as_dict(),
        "compile_seed": spec.seed,
        "backend": spec.backend.identity_dict(),
        "fidelity": spec.fidelity.as_dict() if spec.fidelity is not None else None,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass(frozen=True)
class JobResult:
    """One executed job: its key, identity, the Fig. 9-style result row, and
    the per-pass compile trace of the compilation that produced it."""

    key: str
    spec: Dict[str, object]
    row: Dict[str, object]
    elapsed_s: float
    trace: Tuple[Dict[str, object], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "key": self.key,
            "spec": self.spec,
            "row": self.row,
            "elapsed_s": self.elapsed_s,
            "trace": list(self.trace),
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "JobResult":
        return JobResult(
            key=data["key"],
            spec=data["spec"],
            row=data["row"],
            elapsed_s=data.get("elapsed_s", 0.0),
            trace=tuple(data.get("trace", ())),
        )


def _fidelity_row(
    spec: ExperimentSpec, compiled: CompiledCircuit, pool: Optional["WorkerPool"] = None
) -> Dict[str, object]:
    """Monte-Carlo fidelity columns for one job (``spec.fidelity`` is set).

    The *physical* compiled circuit is simulated: SWAP insertion, basis
    rebasing and the device's coupler set all shape the answer, exactly as
    they shape the timing columns.  The noise model comes from the backend:
    calibrated backends contribute their target's frozen rates, sampled
    backends draw a device from the variability model pinned by
    ``noise_seed``; the trajectory randomness is pinned by the job seed (and
    unaffected by ``pool``, a borrowed pool the batches fan out over).
    """
    options = spec.fidelity
    num_physical = compiled.coupling.num_qubits
    if num_physical > options.max_qubits:
        return {
            "success_probability": None,
            "ideal_success": None,
            "state_fidelity": None,
            "trajectories": 0,
        }
    noise = spec.backend.noise_model(
        num_physical,
        couplers=sorted(compiled.physical_circuit.two_qubit_pairs()),
        seed=options.noise_seed,
    )
    result = run_trajectories(
        compiled.physical_circuit,
        noise,
        num_trajectories=options.trajectories,
        seed=spec.seed,
        batch_size=options.batch_size,
        pool=pool,
    )
    return result.as_row()


def _result_row(
    spec: ExperimentSpec, compiled: CompiledCircuit, pool: Optional["WorkerPool"] = None
) -> Dict[str, object]:
    """The Fig. 9 row for one (compiled benchmark, backend) pair, with compile stats."""
    with telemetry.span("job.simd_schedule", backend=spec.backend.name):
        estimate = normalized_execution_time(
            compiled, spec.config, benchmark_name=spec.benchmark
        )
    row = estimate.as_row()
    row.update(
        {
            "backend": spec.backend.name,
            "design": spec.backend.design_label,
            "seed": spec.seed,
            "opt_level": spec.compile_options.opt_level,
            "logical_qubits": compiled.source.num_qubits,
            "physical_qubits": compiled.coupling.num_qubits,
            "cz_gates": compiled.num_cz_gates,
            "swaps": compiled.num_swaps,
            "depth": compiled.depth,
        }
    )
    if spec.fidelity is not None:
        row.update(_fidelity_row(spec, compiled, pool=pool))
    return row


def compile_spec(spec: ExperimentSpec) -> CompiledCircuit:
    """Build and compile the circuit instance one spec describes.

    The device is the spec's backend target, sized to the circuit — the
    paper's "smallest grid that fits" behaviour, generalised per topology.
    """
    circuit, _ = _source(spec)
    options = spec.compile_options
    return compile_circuit(
        circuit,
        target=spec.backend.target_for(circuit.num_qubits),
        layout_strategy=options.layout_strategy,
        seed=spec.seed,
        routing_trials=options.routing_trials,
        opt_level=options.opt_level,
        pipeline=options.pipeline,
        routing_seed=options.routing_seed,
    )


class CompileMemo(_LRU):
    """The compilations one owner reuses, keyed by compile group.

    At most :data:`COMPILE_MEMO_SIZE` are kept, least recently used first
    out.  The compile runs outside the lock, so two racing misses of one
    group may both compile; compilation is deterministic, so either result
    serves.  Every lookup bumps ``compile.memo.hit`` or ``compile.memo.miss``.
    """

    def __init__(self) -> None:
        super().__init__(COMPILE_MEMO_SIZE)

    def compiled(self, spec: ExperimentSpec) -> CompiledCircuit:
        """The compilation of ``spec``'s circuit, compiled on a miss."""
        group = spec.compile_group
        compiled = self.get(group)
        if compiled is not None:
            telemetry.counter("compile.memo.hit").inc()
            return compiled
        telemetry.counter("compile.memo.miss").inc()
        compiled = compile_spec(spec)
        self.put(group, compiled)
        return compiled


def execute_spec(
    spec: ExperimentSpec,
    key: Optional[str] = None,
    compiled: Optional[CompiledCircuit] = None,
    pool: Optional["WorkerPool"] = None,
) -> JobResult:
    """Execute exactly one job; the circuit-level execution door.

    Every execution client reaches it through :func:`execute_compile_group`,
    after the group's circuit is compiled once.  A row produced for a given
    spec is byte-identical under canonical JSON no matter which client asked
    for it, which is what lets all of them share one content-addressed store.

    Parameters
    ----------
    spec:
        The job to run.
    key:
        Pre-computed content key (recomputed from the spec when omitted).
    compiled:
        A compilation of the spec's circuit to reuse; when omitted the spec
        is compiled here and the compile time is included in ``elapsed_s``.
    pool:
        A borrowed worker pool for the job's trajectory batches.  ``None``
        (the default) keeps the simulation in-process — mandatory inside a
        pooled worker, so pools never nest; the dispatcher lends its pool
        only when it runs the job in its own process.  Never changes the
        result, only where the batches run.
    """
    start = time.perf_counter()
    with telemetry.span(
        "job.execute",
        benchmark=spec.benchmark,
        backend=spec.backend.name,
        fidelity=spec.fidelity is not None,
    ):
        if compiled is None:
            compiled = compile_spec(spec)
        row = _result_row(spec, compiled, pool=pool)
    elapsed = time.perf_counter() - start
    return JobResult(
        key=key if key is not None else job_key(spec),
        spec=spec.describe(),
        row=row,
        elapsed_s=round(elapsed, 6),
        trace=tuple(compiled.trace_rows()),
    )


def execute_compile_group(
    specs: Sequence[ExperimentSpec],
    keys: Sequence[str],
    memo: Optional[CompileMemo] = None,
    pool: Optional["WorkerPool"] = None,
) -> List[JobResult]:
    """Execute all jobs of one compile group; the pooled unit of work.

    ``specs`` must all share one :attr:`ExperimentSpec.compile_group` (the
    circuit instance, compile options and device topology) and ``keys`` are
    their content keys, in the same order.  The sweep dispatcher batches
    every cache-missing job of a group into one call; the queue daemon sends
    each admitted job as a one-job group.  The circuit is built and compiled
    exactly once; each job then only pays for SIMD scheduling under its own
    backend.  ``pool`` is lent to each job's trajectory run; the dispatcher
    lends one only when it runs the group in its own process, so pools
    never nest.  ``memo`` (a session's, or the queue worker's, see
    :func:`execute_queued_job`) reuses a compilation of the group made by an
    earlier call; sweeps pass none.  Returns the results in job order.
    """
    first = specs[0]
    with telemetry.span(
        "sweep.group", benchmark=first.benchmark, seed=first.seed, jobs=len(specs)
    ):
        start = time.perf_counter()
        compiled = compile_spec(first) if memo is None else memo.compiled(first)
        compile_elapsed = time.perf_counter() - start

        results = [
            execute_spec(spec, key=key, compiled=compiled, pool=pool)
            for spec, key in zip(specs, keys)
        ]
    # Attribute the shared compile cost to the group's first job so the summed
    # elapsed time of a sweep reflects real work done.
    results[0] = replace(
        results[0], elapsed_s=round(results[0].elapsed_s + compile_elapsed, 6)
    )
    return results


#: This process's compilations of served jobs (see :func:`execute_queued_job`).
_QUEUE_COMPILES = CompileMemo()


def execute_queued_job(
    specs: Sequence[ExperimentSpec], keys: Sequence[str]
) -> List[JobResult]:
    """Execute one queue daemon job group in a worker process.

    :func:`execute_compile_group` through this process's
    :class:`CompileMemo`, so each worker compiles a circuit once across the
    designs it is served under.  Nothing is shared between workers or
    survives a worker's restart.
    """
    return execute_compile_group(specs, keys, memo=_QUEUE_COMPILES)
