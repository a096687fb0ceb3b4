"""Trajectory dispatch: in-process, or batches on the shared worker pool.

:func:`run_trajectories` is the front door of the simulation subsystem: it
builds one :class:`~repro.simulation.trajectories.TrajectoryPlan` (fusing the
circuit once), derives one child seed per trajectory batch from a single
:class:`numpy.random.SeedSequence`, and runs the batches either in-process or
on a :class:`repro.runtime.executor.WorkerPool` — the process pool sweeps and
the daemon use too.  Batches are re-assembled in spawn order, so the merged
result is bit-identical for any worker count — the parallel/serial-identical
guarantee the determinism tests pin down — and the workers' ``sim.batch``
spans and counters merge back under the run's ``sim.run`` span.

The plan's large arrays — the ideal ``(2**n,)`` statevector and every
fused-op matrix — are shipped to the pool through one
``multiprocessing.shared_memory`` block instead of being pickled into every
batch payload: workers attach once per process, rebuild the plan as
zero-copy views, and cache it for subsequent batches.  Payloads shrink to a
name plus per-batch seeds, which is what keeps ``workers > 1`` profitable
for the register sizes where re-pickling ``2**n`` complex amplitudes per
batch used to eat the speedup.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..circuits.circuit import QuantumCircuit
from .channels import NoiseModel
from .trajectories import (
    DEFAULT_BATCH_SIZE,
    FusedOp,
    TrajectoryPlan,
    TrajectoryResult,
    run_trajectory_batch,
    trajectory_batch_payloads,
)

#: Byte alignment of arrays inside the shared block (complex128 itemsize).
_SHM_ALIGN = 16


def _run_batch(
    payload: Tuple[TrajectoryPlan, int, np.random.SeedSequence],
) -> TrajectoryResult:
    """Worker-process entry point: one seeded trajectory batch."""
    plan, size, child_seed = payload
    return run_trajectory_batch(plan, size, np.random.default_rng(child_seed))


def _pack_shared_plan(
    plan: TrajectoryPlan,
) -> Tuple[shared_memory.SharedMemory, Dict[str, object]]:
    """Copy a plan's arrays into one shared-memory block.

    Returns the block (caller owns close+unlink) and a small picklable spec
    from which :func:`_plan_from_shared` rebuilds the plan as zero-copy views.
    """
    arrays: List[np.ndarray] = [plan.ideal_state, plan.kick_cumweights]
    arrays += [op.matrix for op in plan.ops]

    offsets: List[int] = []
    total = 0
    for array in arrays:
        total = (total + _SHM_ALIGN - 1) // _SHM_ALIGN * _SHM_ALIGN
        offsets.append(total)
        total += array.nbytes
    block = shared_memory.SharedMemory(create=True, size=max(total, 1))

    def place(array: np.ndarray, offset: int) -> Tuple[int, str, Tuple[int, ...]]:
        destination = np.frombuffer(
            block.buf, dtype=array.dtype, count=array.size, offset=offset
        ).reshape(array.shape)
        destination[...] = array
        return (offset, array.dtype.str, array.shape)

    try:
        placed = [place(array, offset) for array, offset in zip(arrays, offsets)]
        spec: Dict[str, object] = {
            "num_qubits": plan.num_qubits,
            "ideal": placed[0],
            "cumweights": placed[1],
            "ops": [
                (op.qubits, op.kick_probs, matrix_spec)
                for op, matrix_spec in zip(plan.ops, placed[2:])
            ],
        }
    except Exception:
        block.close()
        block.unlink()
        raise
    return block, spec


def _plan_from_shared(
    block: shared_memory.SharedMemory, spec: Dict[str, object]
) -> TrajectoryPlan:
    """Rebuild a plan as zero-copy views into a shared block."""

    def view(array_spec: Tuple[int, str, Tuple[int, ...]]) -> np.ndarray:
        offset, dtype, shape = array_spec
        count = int(np.prod(shape)) if shape else 1
        return np.frombuffer(
            block.buf, dtype=np.dtype(dtype), count=count, offset=offset
        ).reshape(shape)

    ops = tuple(
        FusedOp(view(matrix_spec), tuple(qubits), tuple(kick_probs))
        for qubits, kick_probs, matrix_spec in spec["ops"]
    )
    return TrajectoryPlan(
        num_qubits=spec["num_qubits"],
        ops=ops,
        kick_cumweights=view(spec["cumweights"]),
        ideal_state=view(spec["ideal"]),
    )


#: Per-worker-process cache of attached shared plans, keyed by block name.
#: Pool workers run many batches of the same plan; attaching and rebuilding
#: once per process (instead of once per batch) keeps the payload overhead at
#: a dictionary lookup.  Blocks stay mapped until the worker exits, which is
#: bounded by the pool's lifetime; the parent owns unlinking.
_ATTACHED_PLANS: Dict[str, Tuple[shared_memory.SharedMemory, TrajectoryPlan]] = {}


def _run_batch_shared(
    payload: Tuple[str, Dict[str, object], int, np.random.SeedSequence],
) -> TrajectoryResult:
    """Worker-process entry point: one batch against a shared-memory plan."""
    name, spec, size, child_seed = payload
    cached = _ATTACHED_PLANS.get(name)
    if cached is None:
        # Fork-server workers share the parent's resource tracker, whose
        # registry is a set: attaching re-registers the block as a no-op, and
        # the parent's unlink unregisters it once.
        block = shared_memory.SharedMemory(name=name)
        cached = (block, _plan_from_shared(block, spec))
        _ATTACHED_PLANS[name] = cached
    _block, plan = cached
    return run_trajectory_batch(plan, size, np.random.default_rng(child_seed))


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
        Trajectories advanced in lockstep per batch.
    workers:
        ``1`` runs batches serially in-process; ``> 1`` fans them out over a
        :class:`~repro.runtime.executor.WorkerPool` of that size (the plan
        travels once through shared memory instead of being pickled per
        batch).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    payloads = trajectory_batch_payloads(
        circuit, noise, num_trajectories, seed=seed, batch_size=batch_size
    )
    plan = payloads[0][0]

    parts: List[TrajectoryResult]
    with telemetry.span(
        "sim.run",
        qubits=circuit.num_qubits,
        trajectories=num_trajectories,
        batches=len(payloads),
        workers=workers,
    ) as run_span:
        if workers == 1 or len(payloads) == 1:
            # In-process batches record their own sim.batch kernel spans,
            # nested under this one (the path fidelity sweep jobs take).
            parts = [_run_batch(payload) for payload in payloads]
        else:
            parent_id = run_span.span_id if run_span is not None else None
            parts = _run_pooled(plan, payloads, workers, parent_id)
    return TrajectoryResult.merge(parts)


def _run_pooled(
    plan: TrajectoryPlan,
    payloads: Sequence[Tuple[TrajectoryPlan, int, np.random.SeedSequence]],
    workers: int,
    parent_id: Optional[str],
) -> List[TrajectoryResult]:
    """Fan batches out over a worker pool, sharing the plan when it pays.

    Shipped results and telemetry are adopted in submission order, under
    ``parent_id``, so the merge sees batches exactly as the serial path would.
    """
    # Deferred: repro.runtime imports this module through its job runner.
    from ..runtime.executor import WorkerPool, merge_shipped_telemetry

    block: Optional[shared_memory.SharedMemory] = None
    try:
        block, spec = _pack_shared_plan(plan)
    except Exception:
        # Shared memory can be unavailable (e.g. /dev/shm restrictions);
        # fall back to pickling the plan into every payload.
        block = None
    try:
        if block is not None:
            telemetry.counter("sim.shm_bytes").inc(block.size)
            task, args = _run_batch_shared, [
                (block.name, spec, size, child) for _plan, size, child in payloads
            ]
        else:
            task, args = _run_batch, list(payloads)
        with WorkerPool(min(workers, len(args))) as pool:
            futures = [pool.submit(task, arg) for arg in args]
            return [merge_shipped_telemetry(f.result(), parent_id) for f in futures]
    finally:
        if block is not None:
            block.close()
            block.unlink()
