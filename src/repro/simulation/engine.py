"""Trajectory dispatch: in-process, or batches on the shared worker pool.

:func:`run_trajectories` is the front door of the simulation subsystem: it
builds one :class:`~repro.simulation.trajectories.TrajectoryPlan` (its
noise-free half, the fused circuit and ideal state, comes from a memo shared
by every noise model the circuit runs under; only the kick probabilities
are new), derives one child seed per trajectory batch from a single
:class:`numpy.random.SeedSequence`, and runs the batches either in-process or
on a :class:`repro.runtime.executor.WorkerPool` — the process pool sweeps and
the daemon use too.  A batch is the seeding unit; the lockstep unit is the
group: in-process, and within each pooled chunk, consecutive batches advance
together in one set of rows
(:func:`~repro.simulation.trajectories.lockstep_groups`), which changes no
bit of any batch's result.  Batches are re-assembled in spawn order, so the
merged result is bit-identical for any worker count — the
parallel/serial-identical guarantee the determinism tests pin down — and
the workers' ``sim.batch`` spans (one per group) and counters merge back
under the run's ``sim.run`` span.

A pooled run splits its batches into one contiguous chunk per worker and
submits each chunk as one task.  The chunk's batches share one plan object,
which pickles once per chunk with both halves; each worker
therefore unpickles the plan once per run rather than once per batch, and
builds nothing itself.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .. import telemetry
from ..circuits.circuit import QuantumCircuit
from .channels import NoiseModel
from .trajectories import (
    DEFAULT_BATCH_SIZE,
    BatchPayload,
    TrajectoryResult,
    lockstep_groups,
    run_trajectory_group,
    trajectory_batch_payloads,
)


def _run_batches(payloads: Sequence[BatchPayload]) -> List[TrajectoryResult]:
    """Run seeded trajectory batches in lockstep groups; also the pooled task.

    Returns one result per batch, in order.
    """
    return [
        result
        for plan, batches in lockstep_groups(payloads)
        for result in run_trajectory_group(plan, batches)
    ]


def run_trajectories(
    circuit: QuantumCircuit,
    noise: NoiseModel,
    num_trajectories: int = 100,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
    workers: int = 1,
) -> TrajectoryResult:
    """Monte-Carlo trajectory estimate of a circuit's end-to-end fidelity.

    Every run uses the dense statevector kernel of
    :mod:`repro.simulation.trajectories`; a circuit wider than
    :data:`~repro.simulation.trajectories.MAX_DENSE_QUBITS` raises
    ``ValueError`` before anything is allocated.

    Parameters
    ----------
    circuit:
        The circuit to simulate (any library gates; compiled circuits work
        directly).
    noise:
        Per-qubit/per-coupler kick rates; must cover ``circuit.num_qubits``.
    num_trajectories:
        Total Monte-Carlo samples.
    seed:
        Root seed; together with ``num_trajectories`` and ``batch_size`` it
        pins the result exactly, independent of ``workers``.
    batch_size:
        Trajectories per seeded batch.  Each batch draws its kicks from its
        own child seed, so this is part of the seeding scheme; consecutive
        batches still advance in lockstep groups.
    workers:
        ``1`` runs batches serially in-process; ``> 1`` fans them out over a
        :class:`~repro.runtime.executor.WorkerPool` of up to that size, one
        contiguous chunk of batches per worker.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    payloads = trajectory_batch_payloads(
        circuit, noise, num_trajectories, seed=seed, batch_size=batch_size
    )

    parts: List[TrajectoryResult]
    with telemetry.span(
        "sim.run",
        qubits=circuit.num_qubits,
        trajectories=num_trajectories,
        batches=len(payloads),
        workers=workers,
    ) as run_span:
        if workers == 1 or len(payloads) == 1:
            # In-process groups record their own sim.batch kernel spans,
            # nested under this one (the path fidelity sweep jobs take).
            parts = _run_batches(payloads)
        else:
            parent_id = run_span.span_id if run_span is not None else None
            parts = _run_pooled(payloads, workers, parent_id)
    return TrajectoryResult.merge(parts)


def _run_pooled(
    payloads: Sequence[BatchPayload], workers: int, parent_id: Optional[str]
) -> List[TrajectoryResult]:
    """Fan batches out over a worker pool, one contiguous chunk per worker.

    Shipped results and telemetry are adopted in chunk order, under
    ``parent_id``, so the merge sees batches exactly as the serial path would.
    """
    # Deferred: repro.runtime imports this module through its job runner.
    from ..runtime.executor import WorkerPool, merge_shipped_telemetry

    count = min(workers, len(payloads))
    bounds = [len(payloads) * chunk // count for chunk in range(count + 1)]
    with WorkerPool(count) as pool:
        futures = [
            pool.submit(_run_batches, payloads[start:stop])
            for start, stop in zip(bounds, bounds[1:])
        ]
        return [
            part
            for future in futures
            for part in merge_shipped_telemetry(future.result(), parent_id)
        ]
