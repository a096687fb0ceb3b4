"""Trajectory dispatch: in-process, or batches on a borrowed worker pool.

:func:`run_trajectories` is the front door of the simulation subsystem: it
builds one :class:`~repro.simulation.trajectories.TrajectoryPlan` (its
noise-free half, the fused circuit and ideal state, comes from a memo shared
by every noise model the circuit runs under; only the kick probabilities
are new), derives one child seed per trajectory batch from a single
:class:`numpy.random.SeedSequence`, and runs the batches either in-process or
on a :class:`repro.runtime.executor.WorkerPool` the caller owns and lends
(the sweep dispatcher lends its pool to a one-group sweep's jobs).  This
module never starts a pool.  A batch is the seeding unit; the lockstep unit
is the group: in-process, and within each pooled chunk, consecutive batches
advance together in one set of rows
(:func:`~repro.simulation.trajectories.lockstep_groups`), which changes no
bit of any batch's result.  Batches are re-assembled in spawn order, so the
merged result is bit-identical for any pool size — the
parallel/serial-identical guarantee the determinism tests pin down — and
the workers' ``sim.batch`` spans (one per group) and counters merge back
under the run's ``sim.run`` span.

A pooled run splits its batches into ``min(pool.size, batches)`` contiguous
chunks and submits each chunk as one task.  The chunk's batches share one
plan object, which pickles once per chunk with both halves; each worker
therefore unpickles the plan once per run rather than once per batch, and
builds nothing itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

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

if TYPE_CHECKING:  # pragma: no cover - repro.runtime imports this module
    from ..runtime.executor import WorkerPool


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
    pool: Optional["WorkerPool"] = None,
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
        pins the result exactly, independent of ``pool``.
    batch_size:
        Trajectories per seeded batch.  Each batch draws its kicks from its
        own child seed, so this is part of the seeding scheme; consecutive
        batches still advance in lockstep groups.
    pool:
        ``None`` runs batches serially in-process; a borrowed
        :class:`~repro.runtime.executor.WorkerPool` runs them as
        ``min(pool.size, batches)`` contiguous chunks, one task each.  The
        pool stays open; its owner shuts it down.
    """
    payloads = trajectory_batch_payloads(
        circuit, noise, num_trajectories, seed=seed, batch_size=batch_size
    )

    chunks = 1 if pool is None else min(pool.size, len(payloads))
    parts: List[TrajectoryResult]
    with telemetry.span(
        "sim.run",
        qubits=circuit.num_qubits,
        trajectories=num_trajectories,
        batches=len(payloads),
        workers=chunks,
    ) as run_span:
        if chunks == 1:
            # In-process groups record their own sim.batch kernel spans,
            # nested under this one (the path fidelity sweep jobs take).
            parts = _run_batches(payloads)
        else:
            # Deferred: repro.runtime imports this module through its job runner.
            from ..runtime.executor import merge_shipped_telemetry

            bounds = [len(payloads) * chunk // chunks for chunk in range(chunks + 1)]
            futures = [
                pool.submit(_run_batches, payloads[start:stop])
                for start, stop in zip(bounds, bounds[1:])
            ]
            # Adopted in chunk order, under this span, so the merge sees the
            # batches exactly as the serial path would.
            parent_id = run_span.span_id if run_span is not None else None
            parts = [
                part
                for future in futures
                for part in merge_shipped_telemetry(future.result(), parent_id)
            ]
    return TrajectoryResult.merge(parts)
