"""Execution sessions: compile-once, cache-shared circuit submission.

A :class:`Session` binds one :class:`~repro.backends.Backend` to a result
store and a worker pool, and is the stateful submission door of the
provider-style API:

* **the sweep's job path** — each submission's specs go to
  :func:`repro.runtime.dispatch.run_specs` in one call: the same keys,
  store lookup, compile-group batching and persist a sweep uses, so a
  session pointed at a sweep's :class:`~repro.runtime.store.ResultStore`
  serves sweep results without recomputing (and vice versa).  A session
  without a store keeps results in a dict; the store is its only cache;
* **compilation reuse** — groups compile through the session's
  :class:`~repro.runtime.jobs.CompileMemo`, keyed by
  :attr:`~repro.runtime.spec.ExperimentSpec.compile_group` (circuit content
  x topology x compile options), so resubmitting the same circuit — alone,
  with different shot counts, or under a different observable — compiles
  once while it is among the session's last
  :data:`~repro.runtime.jobs.COMPILE_MEMO_SIZE` circuits;
* **async submission** — ``run()`` returns a
  :class:`~repro.primitives.job.JobHandle`, either lazy or backed by the
  session's ``ThreadPoolExecutor`` (sized by ``max_workers`` or
  ``REPRO_MAX_WORKERS``).

Sessions are context managers; leaving the ``with`` block drains and shuts
down the pool::

    with Session(get_backend("digiq-opt8"), store=ResultStore()) as session:
        handle = session.run(circuit, shots=1024)
        result = handle.result()
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from ..backends import Backend, get_backend
from ..circuits.circuit import QuantumCircuit
from ..compiler.pipeline import CompiledCircuit
from ..runtime.dispatch import run_specs
from ..runtime.executor import default_worker_count
from ..runtime.jobs import CompileMemo, JobResult, execute_compile_group
from ..runtime.spec import CompileOptions, ExperimentSpec, FidelityOptions
from ..runtime.store import ResultStore
from .job import JobHandle
from .results import CircuitExecution, RunResult

#: Anything ``Session.run`` accepts as one circuit: a user circuit or a
#: registered Table IV benchmark name (parameterised by ``num_qubits``/``seed``).
CircuitLike = Union[QuantumCircuit, str]

T = TypeVar("T")


class _MemoryStore(dict):
    """:class:`ResultStore`'s ``get``/``put`` over a dict, for a storeless session."""

    put = dict.__setitem__


class Session:
    """A stateful submission context over one backend.

    Parameters
    ----------
    backend:
        The device to execute on — a :class:`~repro.backends.Backend` or any
        name :func:`~repro.backends.get_backend` resolves.
    store:
        Optional persistent result cache.  ``None`` (the default) keeps
        results in session memory only; pass a
        :class:`~repro.runtime.store.ResultStore` to share the on-disk cache
        with the sweep engine and other sessions.
    max_workers:
        Thread-pool size for executor-backed submissions; defaults to
        :func:`repro.runtime.executor.default_worker_count` (which honours
        ``REPRO_MAX_WORKERS``).  The pool is created lazily, so sessions
        that only resolve lazily never start a thread.
    queue:
        Route cache misses through a ``repro serve`` daemon instead of
        executing in-process: a :class:`~repro.queue.client.QueueClient`,
        a daemon URL string, or ``True`` to discover the daemon from the
        default queue root.  Results are byte-identical to local execution
        (the daemon runs the same compile-group worker under the same job
        keys), and the store still applies — only actual misses travel.
    """

    def __init__(
        self,
        backend: Union[str, Backend],
        store: Optional[ResultStore] = None,
        max_workers: Optional[int] = None,
        queue=None,
    ):
        self.backend = get_backend(backend)
        self.store = store if store is not None else _MemoryStore()
        self.queue = self._resolve_queue(queue)
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._max_workers = max_workers
        self._compiled = CompileMemo()
        self._lock = threading.RLock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False

    @staticmethod
    def _resolve_queue(queue):
        if queue is None or queue is False:
            return None
        from ..queue.client import QueueClient  # deferred: keeps import light

        if queue is True:
            return QueueClient()
        if isinstance(queue, str):
            return QueueClient(url=queue)
        return queue  # an existing QueueClient (or compatible test double)

    # -- lifecycle ------------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self, wait: bool = True) -> None:
        """Shut down the worker pool; the session stays readable.

        Already-submitted handles remain resolvable — ``wait=True`` (the
        default) blocks until their work has run, ``wait=False`` lets it
        finish in the background (the one-shot ``Backend.run`` teardown).
        New executor-backed submissions raise after closing, but lazy
        submissions keep working.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=wait)

    def _submit(self, work: Callable[[], T], lazy: bool = False) -> JobHandle:
        """Wrap ``work`` in a :class:`JobHandle` on this session's backend.

        The one submission path of :meth:`run` and the primitives built on a
        session: ``lazy=True`` defers ``work`` to the first ``result()``
        call, otherwise it starts on the session's thread pool.
        """
        executor = None if lazy else self._ensure_executor()
        return JobHandle(work, backend_name=self.backend.name, executor=executor)

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "session is closed; create a new Session or submit with lazy=True"
                )
            if self._executor is None:
                workers = (
                    self._max_workers
                    if self._max_workers is not None
                    else default_worker_count()
                )
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-session"
                )
            return self._executor

    # -- compilation reuse ----------------------------------------------------------

    @property
    def compile_hits(self) -> int:
        """Compilations this session served from its memo."""
        return self._compiled.hits

    @property
    def compile_misses(self) -> int:
        """Compilations this session had to run."""
        return self._compiled.misses

    def compiled_for(self, spec: ExperimentSpec) -> CompiledCircuit:
        """The (memoized) compilation of one spec's circuit.

        Keyed by the spec's :attr:`~repro.runtime.spec.ExperimentSpec.compile_group`,
        so every submission of the same circuit content under the same
        topology and compile options shares one compilation — the session-
        level analogue of the sweep dispatcher's compile groups.
        """
        return self._compiled.compiled(spec)

    # -- execution ------------------------------------------------------------------

    def _execute_all(self, specs: List[ExperimentSpec]) -> List[Tuple[JobResult, bool]]:
        """Run one submission's specs through the sweep's job core in one call.

        Returns ``(result, cached)`` per spec, in order; ``cached`` is False
        only at the first position of each job this call computed.  Misses
        compile through the session's memo, or travel to its queue.
        """
        for spec in specs:
            if spec.backend.identity_dict() != self.backend.identity_dict():
                raise ValueError(
                    f"spec targets backend '{spec.backend.name}' but this session "
                    f"executes on '{self.backend.name}'"
                )
        run_group = (
            partial(execute_compile_group, memo=self._compiled)
            if self.queue is None
            else lambda group, _keys: [self.queue.submit(spec).result() for spec in group]
        )
        report = run_specs(specs, self.store, run_group=run_group)
        fresh = set(report.computed_keys)
        outcomes = []
        for result in report.results:
            outcomes.append((result, result.key not in fresh))
            fresh.discard(result.key)
        return outcomes

    def make_specs(
        self,
        circuits: Union[CircuitLike, Sequence[CircuitLike]],
        num_qubits: int = 16,
        seed: int = 0,
        compile_options: Optional[CompileOptions] = None,
        fidelity_options: Optional[FidelityOptions] = None,
    ) -> List[ExperimentSpec]:
        """Normalise a submission into runtime specs (validated eagerly).

        Accepts one circuit or a sequence; each element is either a
        :class:`~repro.circuits.circuit.QuantumCircuit` or a registered
        benchmark name (built at ``num_qubits`` with ``seed``, exactly as
        the sweep engine would).
        """
        if isinstance(circuits, (QuantumCircuit, str)):
            circuits = [circuits]
        if not circuits:
            raise ValueError("a submission needs at least one circuit")
        options = compile_options if compile_options is not None else CompileOptions()
        specs = []
        for circuit in circuits:
            if isinstance(circuit, QuantumCircuit):
                specs.append(
                    ExperimentSpec(
                        backend=self.backend,
                        seed=seed,
                        compile_options=options,
                        fidelity=fidelity_options,
                        circuit=circuit,
                    )
                )
            else:
                specs.append(
                    ExperimentSpec(
                        benchmark=circuit,
                        backend=self.backend,
                        num_qubits=num_qubits,
                        seed=seed,
                        compile_options=options,
                        fidelity=fidelity_options,
                    )
                )
        return specs

    def _run_entries(
        self,
        specs: Sequence[ExperimentSpec],
        shots: Optional[int],
        entry_cls=CircuitExecution,
    ) -> Tuple[Tuple[CircuitExecution, ...], Dict[str, object]]:
        """Execute specs in one core call; typed entries (with ``shots``
        logical counts if asked) + shared metadata."""
        from .sampler import sample_logical_counts  # circular-import guard

        entries = []
        for spec, (result, cached) in zip(specs, self._execute_all(specs)):
            counts = None
            if shots is not None:
                counts = sample_logical_counts(self.compiled_for(spec), shots, seed=spec.seed)
            entries.append(
                entry_cls(
                    label=spec.benchmark,
                    job_key=result.key,
                    backend=self.backend.name,
                    row=dict(result.row),
                    counts=counts,
                    shots=shots,
                    trace=result.trace,
                    elapsed_s=0.0 if cached else result.elapsed_s,
                    cached=cached,
                )
            )
        metadata = {
            "backend": self.backend.name,
            "job_keys": [entry.job_key for entry in entries],
            "elapsed_s": round(sum((entry.elapsed_s for entry in entries), 0.0), 6),
            "cached": sum(int(entry.cached) for entry in entries),
        }
        return tuple(entries), metadata

    def run(
        self,
        circuits: Union[CircuitLike, Sequence[CircuitLike]],
        shots: Optional[int] = None,
        num_qubits: int = 16,
        seed: int = 0,
        compile_options: Optional[CompileOptions] = None,
        fidelity_options: Optional[FidelityOptions] = None,
        lazy: bool = False,
    ) -> JobHandle:
        """Submit circuits for execution; returns a :class:`JobHandle`.

        The handle resolves to a :class:`~repro.primitives.results.RunResult`
        with one :class:`~repro.primitives.results.CircuitExecution` per
        submitted circuit, in submission order.  ``shots`` additionally
        samples measurement counts of each compiled circuit's logical
        register (seeded by ``seed``); ``fidelity_options`` attaches the
        Monte-Carlo fidelity columns exactly as a ``--fidelity`` sweep
        would — same job keys, same numbers.

        ``lazy=True`` defers all work to the first ``result()`` call (no
        threads); the default submits to the session's worker pool.
        """
        specs = self.make_specs(
            circuits,
            num_qubits=num_qubits,
            seed=seed,
            compile_options=compile_options,
            fidelity_options=fidelity_options,
        )

        def work() -> RunResult:
            entries, metadata = self._run_entries(specs, shots)
            if shots is not None:
                metadata["shots"] = shots
            return RunResult(entries=entries, metadata=metadata)

        return self._submit(work, lazy=lazy)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(backend={self.backend.name!r}, "
            f"store={'memory' if isinstance(self.store, _MemoryStore) else 'shared'}, "
            f"compiled={len(self._compiled)})"
        )
