"""Experiment runtime: a parallel, cached sweep engine over the Fig. 9 pipeline.

The packages below this one model the paper; this package runs it at scale.
A sweep is declared as a :class:`~repro.runtime.spec.SweepGrid` (benchmarks x
registered backends x seeds), expanded into content-addressed jobs, executed
across a process pool with one compilation per benchmark instance and device
topology, and cached in an on-disk :class:`~repro.runtime.store.ResultStore`
so reruns and resumed sweeps skip completed work.  ``python -m repro.runtime``
is the CLI front end.
"""

from .dispatch import SweepReport, run_sweep
from .executor import MAX_WORKERS_ENV, default_worker_count
from .jobs import JobResult, circuit_fingerprint, execute_spec, job_key
from .spec import (
    DEFAULT_BACKEND_NAMES,
    CompileOptions,
    ExperimentSpec,
    FidelityOptions,
    SweepGrid,
)
from .store import ResultStore, canonical_json

__all__ = [
    "CompileOptions",
    "DEFAULT_BACKEND_NAMES",
    "ExperimentSpec",
    "FidelityOptions",
    "JobResult",
    "MAX_WORKERS_ENV",
    "ResultStore",
    "SweepGrid",
    "SweepReport",
    "canonical_json",
    "circuit_fingerprint",
    "default_worker_count",
    "execute_spec",
    "job_key",
    "run_sweep",
]
