"""The sweep dispatcher: cache lookup, compile-group batching, worker pool.

:func:`run_sweep` turns a :class:`~repro.runtime.spec.SweepGrid` into result
rows in three steps:

1. expand the grid into jobs and compute each job's content-addressed key;
2. split cache hits from misses against the :class:`~repro.runtime.store.ResultStore`;
3. batch the misses by *compile group* — all backends of one benchmark
   instance that share a device topology share a single compilation — and
   execute the groups either serially or on a
   :class:`~repro.runtime.executor.WorkerPool`.

Results are re-assembled in grid-expansion order, so a parallel run yields
exactly the same row sequence (byte-identical under canonical JSON) as a
serial run, and a resumed run as an uninterrupted one.
"""

from __future__ import annotations

from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from .executor import WorkerPool, merge_shipped_telemetry
from .jobs import JobResult, execute_compile_group, job_key, ordered_row
from .spec import ExperimentSpec, SweepGrid
from .store import ResultStore


@dataclass
class SweepReport:
    """Outcome of one sweep: ordered rows plus cache accounting."""

    grid: SweepGrid
    keys: List[str]
    results: List[JobResult]
    computed_keys: List[str] = field(default_factory=list)
    cached_keys: List[str] = field(default_factory=list)
    duplicate_keys: List[str] = field(default_factory=list)

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
        for job, result in zip(self.grid.expand(), self.results):
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
        ``1`` executes compile groups serially in-process; ``> 1`` fans them
        out over a :class:`~repro.runtime.executor.WorkerPool` of that size.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    store = store if store is not None else ResultStore()

    with telemetry.span(
        "sweep.run", jobs=len(grid), workers=workers
    ) as sweep_span:
        specs = grid.expand()
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
        # A sweep that collapses to one compile group (or runs serially with a
        # worker budget) hands its workers down to the group's own trajectory
        # batches instead of leaving them idle; pooled groups keep their
        # simulations in-process so process pools never nest.
        in_process = workers == 1 or len(groups) <= 1

        def persist(batch: Sequence[JobResult]) -> None:
            for result in batch:
                store.put(result.key, result.as_dict())
                by_key[result.key] = result

        # Each group's results are persisted as soon as that group finishes,
        # so an interrupted sweep keeps every completed group and a resumed
        # run only recomputes the remainder.
        if in_process:
            for group_specs, group_keys in groups:
                persist(
                    execute_compile_group(group_specs, group_keys, sim_workers=workers)
                )
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

    results = [by_key[key] for key in keys]
    return SweepReport(
        grid=grid,
        keys=keys,
        results=results,
        computed_keys=computed_keys,
        cached_keys=cached_keys,
        duplicate_keys=duplicate_keys,
    )
