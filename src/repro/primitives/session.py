"""Execution sessions: compile-once, cache-shared circuit submission.

A :class:`Session` binds one :class:`~repro.backends.Backend` to an optional
content-addressed :class:`~repro.runtime.store.ResultStore` and a worker
pool, and is the stateful submission door of the provider-style API:

* **compilation reuse** — every submission is keyed by its
  :attr:`~repro.runtime.spec.ExperimentSpec.compile_group` (circuit content
  x topology x compile options) in the session's
  :class:`~repro.runtime.jobs.CompileMemo`, so resubmitting the same circuit
  — alone, with different shot counts, or under a different observable —
  compiles once while it is among the session's last
  :data:`~repro.runtime.jobs.COMPILE_MEMO_SIZE` circuits;
* **shared result cache** — jobs are executed through
  :func:`repro.runtime.jobs.execute_spec` and stored under the same
  content-addressed keys the sweep engine uses, so a session pointed at a
  sweep's store directory serves sweep results without recomputing (and
  vice versa);
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from .. import telemetry
from ..backends import Backend, get_backend
from ..circuits.circuit import QuantumCircuit
from ..compiler.pipeline import CompiledCircuit
from ..runtime.executor import default_worker_count
from ..runtime.jobs import CompileMemo, JobResult, execute_spec, job_key
from ..runtime.spec import CompileOptions, ExperimentSpec, FidelityOptions
from ..runtime.store import ResultStore
from .job import JobHandle
from .results import CircuitExecution, RunResult

#: Anything ``Session.run`` accepts as one circuit: a user circuit or a
#: registered Table IV benchmark name (parameterised by ``num_qubits``/``seed``).
CircuitLike = Union[QuantumCircuit, str]

T = TypeVar("T")


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
        (the daemon funnels through the same
        :func:`~repro.runtime.jobs.execute_spec` under the same job keys),
        and cache layers still apply — only actual misses travel.
    """

    def __init__(
        self,
        backend: Union[str, Backend],
        store: Optional[ResultStore] = None,
        max_workers: Optional[int] = None,
        queue=None,
    ):
        self.backend = get_backend(backend)
        self.store = store
        self.queue = self._resolve_queue(queue)
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._max_workers = max_workers
        self._memory: Dict[str, JobResult] = {}
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

    def execute(self, spec: ExperimentSpec) -> Tuple[JobResult, bool]:
        """Execute one spec synchronously, via every cache layer.

        Returns ``(result, cached)`` where ``cached`` is True when the job
        was served from session memory or the shared store.  Misses run
        through :func:`repro.runtime.jobs.execute_spec` with the session's
        memoized compilation and are persisted back to the store.
        """
        if spec.backend.identity_dict() != self.backend.identity_dict():
            raise ValueError(
                f"spec targets backend '{spec.backend.name}' but this session "
                f"executes on '{self.backend.name}'"
            )
        key = job_key(spec)
        with self._lock:
            hit = self._memory.get(key)
        if hit is not None:
            telemetry.counter("session.jobs.cached").inc()
            return hit, True
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                result = JobResult.from_dict(stored)
                with self._lock:
                    self._memory[key] = result
                telemetry.counter("session.jobs.cached").inc()
                return result, True
        if self.queue is not None:
            result = self.queue.submit(spec).result()
            telemetry.counter("session.jobs.queued").inc()
        else:
            result = execute_spec(spec, key=key, compiled=self.compiled_for(spec))
            telemetry.counter("session.jobs.computed").inc()
        if self.store is not None:
            self.store.put(key, result.as_dict())
        with self._lock:
            self._memory[key] = result
        return result, False

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

    def _execution(
        self,
        spec: ExperimentSpec,
        shots: Optional[int] = None,
        entry_cls=CircuitExecution,
    ) -> CircuitExecution:
        """Execute one spec and record it, with ``shots`` logical counts if asked."""
        from .sampler import sample_logical_counts  # circular-import guard

        result, cached = self.execute(spec)
        counts = None
        if shots is not None:
            counts = sample_logical_counts(self.compiled_for(spec), shots, seed=spec.seed)
        return entry_cls(
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

    def _metadata(self, executions: Sequence[CircuitExecution]) -> Dict[str, object]:
        """The metadata a submission's result shares across its executions."""
        return {
            "backend": self.backend.name,
            "job_keys": [execution.job_key for execution in executions],
            "elapsed_s": round(sum((execution.elapsed_s for execution in executions), 0.0), 6),
            "cached": sum(int(execution.cached) for execution in executions),
        }

    def _run_entries(
        self,
        specs: Sequence[ExperimentSpec],
        shots: Optional[int],
        entry_cls=CircuitExecution,
    ) -> Tuple[Tuple[CircuitExecution, ...], Dict[str, object]]:
        """Execute specs in order and build typed entries + shared metadata."""
        entries = tuple(self._execution(spec, shots, entry_cls) for spec in specs)
        return entries, self._metadata(entries)

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
            f"store={'shared' if self.store is not None else 'memory'}, "
            f"compiled={len(self._compiled)})"
        )
