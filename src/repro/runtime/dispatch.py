"""The job core: cache lookup, compile-group batching, worker pool.

:func:`run_specs` is the one local job path: :func:`run_sweep` expands a
:class:`~repro.runtime.spec.SweepGrid` into it, and every
:class:`~repro.primitives.Session` submission sends its specs to it.  It

1. computes each job's content-addressed key and drops repeated keys;
2. splits cache hits from misses against the store;
3. batches the misses by *compile group* — all backends of one benchmark
   instance that share a device topology share a single compilation — and
   executes the groups either serially or on the call's one
   :class:`~repro.runtime.executor.WorkerPool`; a one-group call lends
   that pool to its jobs' trajectory batches instead (processes start only
   when a batch is submitted), and persists each group as it finishes.

Results are re-assembled in spec order, so a parallel run yields exactly
the same row sequence (byte-identical under canonical JSON) as a serial
run, and a resumed run as an uninterrupted one.
"""

from __future__ import annotations

from concurrent.futures import as_completed
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from .executor import WorkerPool, merge_shipped_telemetry
from .jobs import JobResult, execute_compile_group, job_key, ordered_row
from .spec import ExperimentSpec, SweepGrid
from .store import ResultStore


@dataclass
class SweepReport:
    """Outcome of one :func:`run_specs` call: ordered rows plus cache
    accounting (``grid`` is the sweep's, when :func:`run_sweep` made it)."""

    specs: List[ExperimentSpec]
    keys: List[str]
    results: List[JobResult]
    computed_keys: List[str] = field(default_factory=list)
    cached_keys: List[str] = field(default_factory=list)
    duplicate_keys: List[str] = field(default_factory=list)
    grid: Optional[SweepGrid] = None

    @property
    def rows(self) -> List[Dict[str, object]]:
        """Fig. 9-style rows in grid order (the sweep's primary artifact).

        Column order is canonicalised so cached and freshly computed rows
        render (and serialize) identically.
        """
        return [ordered_row(result.row) for result in self.results]

    @property
    def num_jobs(self) -> int:
        return len(self.keys)

    @property
    def num_computed(self) -> int:
        return len(self.computed_keys)

    @property
    def num_cached(self) -> int:
        return len(self.cached_keys)

    @property
    def num_duplicates(self) -> int:
        """Grid positions whose key repeats an earlier position (shared work)."""
        return len(self.duplicate_keys)

    def summary(self) -> Dict[str, object]:
        """Headline accounting for logs and the CLI banner.

        ``computed + cached + duplicates == jobs`` always holds.
        """
        return {
            "jobs": self.num_jobs,
            "computed": self.num_computed,
            "cached": self.num_cached,
            "duplicates": self.num_duplicates,
            "benchmarks": len(self.grid.benchmarks),
            "backends": len(self.grid.backends),
            "seeds": len(self.grid.seeds),
        }

    def pass_traces(self) -> List[Dict[str, object]]:
        """Per-pass compile metrics, one entry per compile group in grid order.

        All jobs of one :attr:`~repro.runtime.spec.ExperimentSpec.compile_group`
        share the same trace, so each group contributes a single entry
        (results computed before schema v3 carry no trace and are skipped).
        """
        seen = set()
        traces: List[Dict[str, object]] = []
        for job, result in zip(self.specs, self.results):
            if not result.trace or job.compile_group in seen:
                continue
            seen.add(job.compile_group)
            spec = result.spec
            traces.append(
                {
                    "benchmark": spec.get("benchmark"),
                    "num_qubits": spec.get("num_qubits"),
                    "seed": spec.get("seed"),
                    "opt_level": spec.get("compile", {}).get("opt_level"),
                    "passes": list(result.trace),
                }
            )
        return traces


def compute_job_keys(specs: Sequence[ExperimentSpec]) -> List[str]:
    """Content keys for a list of jobs (each source circuit is built once per
    process, see :mod:`repro.runtime.jobs`)."""
    return [job_key(spec) for spec in specs]


def _compile_groups(
    specs: Sequence[ExperimentSpec], keys: Sequence[str], missing: Sequence[int]
) -> List[Tuple[List[ExperimentSpec], List[str]]]:
    """Batch cache-missing jobs by compile group: ``(specs, keys)`` per group."""
    groups: Dict[Tuple[object, ...], Tuple[List[ExperimentSpec], List[str]]] = {}
    for index in missing:
        group_specs, group_keys = groups.setdefault(specs[index].compile_group, ([], []))
        group_specs.append(specs[index])
        group_keys.append(keys[index])
    return list(groups.values())


def run_specs(
    specs: List[ExperimentSpec],
    store: ResultStore,
    workers: int = 1,
    run_group: Optional[Callable[..., List[JobResult]]] = None,
) -> SweepReport:
    """Run the jobs ``specs`` describe against ``store``, results in spec order.

    ``workers`` is :func:`run_sweep`'s.  ``run_group`` replaces
    :func:`~repro.runtime.jobs.execute_compile_group` for in-process groups
    (a session's compile memo or queue); it needs ``workers == 1``.
    """
    with telemetry.span("sweep.run", jobs=len(specs), workers=workers) as sweep_span:
        keys = compute_job_keys(specs)

        by_key: Dict[str, JobResult] = {}
        cached_keys: List[str] = []
        duplicate_keys: List[str] = []
        missing_indices: List[int] = []
        seen = set()
        for index, key in enumerate(keys):
            if key in seen:  # duplicate axis entry: one computation serves both
                duplicate_keys.append(key)
                continue
            seen.add(key)
            stored = store.get(key)
            if stored is not None:
                by_key[key] = JobResult.from_dict(stored)
                cached_keys.append(key)
            else:
                missing_indices.append(index)

        groups = _compile_groups(specs, keys, missing_indices)

        def persist(batch: Sequence[JobResult]) -> None:
            for result in batch:
                store.put(result.key, result.as_dict())
                by_key[result.key] = result

        # Each group's results are persisted as soon as that group finishes,
        # so an interrupted sweep keeps every completed group and a resumed
        # run only recomputes the remainder.
        if workers == 1 or len(groups) <= 1:
            lend = workers > 1 and len(groups) == 1
            with WorkerPool(workers) if lend else nullcontext() as pool:
                run = run_group or partial(execute_compile_group, pool=pool)
                for group_specs, group_keys in groups:
                    persist(run(group_specs, group_keys))
        else:
            parent_id = sweep_span.span_id if sweep_span is not None else None
            with WorkerPool(min(workers, len(groups))) as pool:
                futures = [
                    pool.submit(execute_compile_group, group_specs, group_keys)
                    for group_specs, group_keys in groups
                ]
                for future in as_completed(futures):
                    persist(future.result()["result"])
            # Worker telemetry is merged in *submission* order (not completion
            # order), so the merged span sequence — and therefore summaries
            # and traces — is deterministic for a given grid, exactly like
            # the result rows.
            for future in futures:
                merge_shipped_telemetry(future.result(), parent_id)
        # Deterministic accounting order regardless of worker completion order.
        computed_keys = [key for _specs, group_keys in groups for key in group_keys]

        telemetry.counter("sweep.jobs").inc(len(keys))
        telemetry.counter("sweep.computed").inc(len(computed_keys))
        telemetry.counter("sweep.cached").inc(len(cached_keys))
        telemetry.counter("sweep.duplicates").inc(len(duplicate_keys))

    return SweepReport(
        specs=specs,
        keys=keys,
        results=[by_key[key] for key in keys],
        computed_keys=computed_keys,
        cached_keys=cached_keys,
        duplicate_keys=duplicate_keys,
    )


def run_sweep(
    grid: SweepGrid,
    store: Optional[ResultStore] = None,
    workers: int = 1,
) -> SweepReport:
    """Run (or resume) a sweep, returning rows in deterministic grid order.

    Parameters
    ----------
    grid:
        The sweep axes.
    store:
        Result cache; defaults to :class:`ResultStore`'s default directory.
        Completed jobs found in the store are never recomputed.
    workers:
        ``1`` runs everything in-process; ``> 1`` opens one
        :class:`~repro.runtime.executor.WorkerPool` of up to that size for
        the compile groups, or for a single group's trajectory batches.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    store = store if store is not None else ResultStore()
    report = run_specs(grid.expand(), store, workers)
    report.grid = grid
    return report
