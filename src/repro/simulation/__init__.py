"""Noisy end-to-end circuit simulation (Monte-Carlo trajectories).

The packages below model per-gate errors; this one propagates them through
whole compiled circuits.  A :class:`NoiseModel` holds per-qubit/per-coupler
stochastic error rates (sampled from :class:`~repro.noise.variability.VariabilityModel`
or lifted from the Fig. 10 reports in :mod:`repro.core.errors`), and
:func:`run_trajectories` estimates a circuit's success probability and state
fidelity over seeded, batched Monte-Carlo trajectories — serially or across
the shared worker pool of :mod:`repro.runtime.executor`, with bit-identical
results either way.  One dense statevector kernel does all the work; it
simulates registers of up to :data:`MAX_DENSE_QUBITS` qubits.
"""

from .channels import DEFAULT_CZ_ERROR, DEFAULT_SINGLE_QUBIT_ERROR, NoiseModel
from .engine import run_trajectories
from .trajectories import (
    DEFAULT_BATCH_SIZE,
    MAX_DENSE_QUBITS,
    FusedCircuit,
    TrajectoryPlan,
    TrajectoryResult,
    batch_sizes,
    build_trajectory_plan,
    fuse_circuit,
    noisy_trajectory_states,
    run_trajectory_group,
    trajectory_batch_payloads,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_CZ_ERROR",
    "DEFAULT_SINGLE_QUBIT_ERROR",
    "FusedCircuit",
    "MAX_DENSE_QUBITS",
    "NoiseModel",
    "TrajectoryPlan",
    "TrajectoryResult",
    "batch_sizes",
    "build_trajectory_plan",
    "fuse_circuit",
    "noisy_trajectory_states",
    "run_trajectories",
    "run_trajectory_group",
    "trajectory_batch_payloads",
]
