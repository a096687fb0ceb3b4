"""Noisy end-to-end circuit simulation (Monte-Carlo trajectories).

The packages below model per-gate errors; this one propagates them through
whole compiled circuits.  A :class:`NoiseModel` holds per-qubit/per-coupler
stochastic error rates (sampled from :class:`~repro.noise.variability.VariabilityModel`
or lifted from the Fig. 10 reports in :mod:`repro.core.errors`), and
:func:`run_trajectories` estimates a circuit's success probability and state
fidelity over seeded, batched Monte-Carlo trajectories — serially or across
the shared worker pool of :mod:`repro.runtime.executor`, with bit-identical
results either way.  Clifford-only
circuits automatically take the exact stabilizer/Pauli-frame fast path of
:mod:`repro.simulation.stabilizer`, which has no ``2**n`` arrays at all.
"""

from .channels import DEFAULT_CZ_ERROR, DEFAULT_SINGLE_QUBIT_ERROR, NoiseModel
from .engine import run_trajectories
from .sparse import (
    SparseProgram,
    SparseScorer,
    advance_sparse_batch,
    build_sparse_scorer,
    compile_sparse_program,
    estimate_nnz_bound,
    sparse_auto_budget,
    sparse_to_dense,
)
from .stabilizer import (
    StabilizerScorer,
    StabilizerTableau,
    advance_pauli_frames,
    build_scorer,
    is_clifford_circuit,
    is_clifford_gate,
)
from .trajectories import (
    DEFAULT_BATCH_SIZE,
    FusedOp,
    TrajectoryPlan,
    TrajectoryResult,
    advance_noisy_batch,
    apply_fused_ops,
    batch_sizes,
    build_trajectory_plan,
    fuse_circuit,
    ideal_final_state,
    noisy_trajectory_states,
    run_trajectory_batch,
    trajectory_batch_payloads,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_CZ_ERROR",
    "DEFAULT_SINGLE_QUBIT_ERROR",
    "FusedOp",
    "NoiseModel",
    "SparseProgram",
    "SparseScorer",
    "StabilizerScorer",
    "StabilizerTableau",
    "TrajectoryPlan",
    "TrajectoryResult",
    "advance_noisy_batch",
    "advance_pauli_frames",
    "advance_sparse_batch",
    "apply_fused_ops",
    "batch_sizes",
    "build_scorer",
    "build_sparse_scorer",
    "build_trajectory_plan",
    "compile_sparse_program",
    "estimate_nnz_bound",
    "fuse_circuit",
    "ideal_final_state",
    "is_clifford_circuit",
    "is_clifford_gate",
    "noisy_trajectory_states",
    "run_trajectories",
    "run_trajectory_batch",
    "sparse_auto_budget",
    "sparse_to_dense",
    "trajectory_batch_payloads",
]
