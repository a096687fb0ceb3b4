"""Monte-Carlo statevector trajectories with stochastic Pauli/phase kicks.

The engine estimates *end-to-end* circuit quality — the quantity the paper's
evaluation ultimately cares about — instead of per-gate errors:

1. the circuit is *fused*: runs of adjacent single-qubit gates on one qubit
   collapse into a single 2x2 matrix (their kick probabilities combine), so
   the hot loop applies far fewer matrices than the raw gate count.  The
   fused circuit, its relabeling (see 2.) and its noiseless final state
   depend on the gate stream alone: a bounded memo (:func:`_fused`) builds
   them once per circuit, and a :class:`TrajectoryPlan` adds only the kick
   probabilities of its noise model;
2. each fused op is applied in place to the rows of a group (see 3.), one
   op at a time.  From 10 qubits the register is relabeled so the qubits
   dense ops touch most sit at long strides; one gather per group restores
   the standard qubit order at the end;
3. trajectories come in seeded *batches* (the seeding unit), and
   consecutive batches of a run advance together as one lockstep *group*
   (:func:`lockstep_groups`, bounded by :data:`GROUP_AMPLITUDES`).  A group
   advances one statevector row per *distinct* trajectory: every trajectory
   no kick has hit yet, whatever its batch, shares row 0, and a trajectory
   gets its own row, a copy of row 0, at its first kick (see
   :func:`_advance_rows`).  A noisy group typically ends with a few rows,
   not one per trajectory; each batch's slice of the rows is gathered and
   scored on its own;
4. after each fused op, every involved qubit suffers a random Pauli kick
   (X, Y or Z, weighted by the noise model) with the probability the
   :class:`~repro.simulation.channels.NoiseModel` assigns it.  Each batch
   draws all its kicks in one call before its group starts, and only the sites
   where some trajectory is hit are visited: each is a single vectorized
   per-row 2x2 update, not a masked gather/scatter per Pauli;
5. each trajectory's final state is scored against the noiseless final state
   (state fidelity) and against the noiseless dominant measurement outcome
   (success probability).

This dense kernel is the only trajectory kernel.  A group holds up to one
``2**n`` row per trajectory, so :func:`build_trajectory_plan` refuses
circuits wider than :data:`MAX_DENSE_QUBITS` before it allocates anything.

All randomness flows from one root seed: each batch gets a generator seeded
from its own child of one :class:`numpy.random.SeedSequence`.  A
batch's one ``rng.random((sites, 2, B))`` call yields, site by site in
circuit order, ``B`` hit draws and then ``B`` Pauli-pick draws: the same
numbers in the same order as one ``rng.random(B)`` call per draw, because
the generator fills an array from its stream in C order.  The draws do not
depend on which trajectories are actually kicked, so a (seed,
trajectory-count, batch-size) triple pins the result bit-for-bit — serially
and across worker processes, however the batches are grouped.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..circuits.circuit import QuantumCircuit
from ..circuits.library import gate_matrix
from ..circuits.simulator import (
    _matrix_strategy,
    apply_matrix,
    apply_matrix_inplace,
    zero_state,
)
from .channels import NoiseModel

#: Default trajectories per batch.  The batch is the seeding unit: each
#: batch draws its kicks from its own child seed, so the batch size is part
#: of the seeding scheme and changing it changes every result.  The lockstep
#: unit is the group (:func:`lockstep_groups`): consecutive batches advanced
#: in one set of rows, which changes no result.
DEFAULT_BATCH_SIZE = 25

#: Lockstep budget: consecutive batches advance as one group while the
#: group's trajectories times ``2**n`` stay within this many amplitudes
#: (4 MiB of complex128 should every trajectory end on its own row).  A
#: group pays the per-op Python overhead of its in-place applications once
#: for all its trajectories.  At 9 qubits the four batches of 25 of a
#: 100-trajectory run form one group; from 13 qubits a batch of 25 is a group
#: of its own, so peak memory there is one batch's rows.
GROUP_AMPLITUDES = 1 << 18

#: Widest register the dense kernel simulates: one 24-qubit trajectory is
#: 256 MiB of complex128 amplitudes, and a group holds up to one per
#: trajectory.
MAX_DENSE_QUBITS = 24


@dataclass(frozen=True)
class FusedCircuit:
    """The noise-free half of a trajectory plan: one circuit, fused; read-only.

    Op ``i`` applies ``matrices[i]`` to ``qubits[i]`` (``targets[i]`` on the
    register :func:`_relabel_positions` relabels; ``restore`` gathers a row
    back, ``None`` without relabeling).  A fused single-qubit run's
    ``noisy[i]`` flags, per gate in order, whether it kicks (every gate but
    ``rz``, a virtual Z); a multi-qubit gate's is ``()``.
    """

    num_qubits: int
    matrices: Tuple[np.ndarray, ...]
    qubits: Tuple[Tuple[int, ...], ...]
    noisy: Tuple[Tuple[bool, ...], ...]
    targets: Tuple[Tuple[int, ...], ...]
    restore: Optional[np.ndarray]
    ideal_state: np.ndarray


def fuse_circuit(circuit: QuantumCircuit) -> FusedCircuit:
    """Fuse a circuit's single-qubit runs, relabel it and run it noiselessly.

    Single-qubit gates are deferred and matrix-multiplied per qubit until a
    multi-qubit gate touches that qubit (1q ops on disjoint qubits commute,
    so deferral preserves semantics).  Always builds; :func:`_fused` memoizes.
    """
    pending: Dict[int, Tuple[np.ndarray, Tuple[bool, ...]]] = {}
    ops: List[Tuple[np.ndarray, Tuple[int, ...], Tuple[bool, ...]]] = []

    def flush(qubit: int) -> None:
        entry = pending.pop(qubit, None)
        if entry is not None:
            ops.append((entry[0], (qubit,), entry[1]))

    for gate in circuit:
        if gate.is_single_qubit:
            qubit = gate.qubits[0]
            matrix, noisy = gate_matrix(gate), gate.name != "rz"
            if qubit in pending:
                prev_matrix, prev_noisy = pending[qubit]
                pending[qubit] = (matrix @ prev_matrix, prev_noisy + (noisy,))
            else:
                pending[qubit] = (matrix, (noisy,))
            continue
        for qubit in gate.qubits:
            flush(qubit)
        ops.append((gate_matrix(gate), gate.qubits, ()))
    for qubit in sorted(pending):
        flush(qubit)

    num_qubits = circuit.num_qubits
    matrices, qubits, noisy = tuple(zip(*ops)) or ((), (), ())
    ideal = zero_state(num_qubits)
    for matrix, op_qubits in zip(matrices, qubits):
        matrix.setflags(write=False)
        ideal = apply_matrix(ideal, matrix, op_qubits, num_qubits)
    positions = _relabel_positions(matrices, qubits, num_qubits)
    targets, restore = qubits, None
    if positions is not None:
        targets = tuple(tuple(int(positions[q]) for q in op) for op in qubits)
        restore = _restore_map(positions, num_qubits)
        restore.setflags(write=False)
    ideal.setflags(write=False)
    return FusedCircuit(num_qubits, matrices, qubits, noisy, targets, restore, ideal)


#: Coefficients a gate can carry and still count as moving amplitudes
#: exactly: multiplying by a unit of ``i`` never rounds.
_UNITS = (1.0, 1j, -1.0, -1j)


def _moves_exactly(matrix: np.ndarray) -> bool:
    """Whether a fused op's matrix is a diagonal or permutation with unit-of-``i`` entries.

    These are x/y/z, cx/cz/swap, ccx/ccz, and rz/p/cp at multiples of a half
    turn.  Every other op (fused single-qubit runs, arbitrary rotations)
    counts as dense for :func:`_relabel_positions`.
    """
    matrix = np.asarray(matrix, dtype=complex)
    strategy = _matrix_strategy(matrix.tobytes(), matrix.shape[0])
    if strategy[0] == "diag":
        coeffs = strategy[1]
    elif strategy[0] == "perm":
        coeffs = strategy[2]
    else:
        return False
    return all(coeff in _UNITS for coeff in coeffs)


def _relabel_positions(
    matrices: Sequence[np.ndarray], qubits: Sequence[Tuple[int, ...]], num_qubits: int
) -> Optional[np.ndarray]:
    """Physical position of each logical qubit, or ``None`` for identity.

    Dense ops on low qubit indices are pathological for the in-place kernel
    (the contiguous inner stride is ``2**qubit`` amplitudes), so the qubits
    dense ops touch most are parked at the top positions.  The relabeling is
    a pure bit permutation of basis indices: one gather at the end of a
    batch (:func:`_restore_map`) undoes it without changing any amplitude.
    """
    if num_qubits < 10:
        return None
    counts: Dict[int, int] = {}
    for matrix, op_qubits in zip(matrices, qubits):
        if not _moves_exactly(matrix):
            for qubit in op_qubits:
                counts[qubit] = counts.get(qubit, 0) + 1
    if not counts:
        return None
    heavy = sorted(counts, key=lambda qubit: (-counts[qubit], qubit))
    rest = [qubit for qubit in range(num_qubits) if qubit not in counts]
    low_to_high = rest + heavy[::-1]
    positions = np.empty(num_qubits, dtype=np.intp)
    for position, qubit in enumerate(low_to_high):
        positions[qubit] = position
    if np.array_equal(positions, np.arange(num_qubits)):
        return None
    return positions


def _restore_map(positions: np.ndarray, num_qubits: int) -> np.ndarray:
    """Gather map returning a relabeled statevector to standard qubit order."""
    i = np.arange(1 << num_qubits, dtype=np.intp)
    restore = np.zeros_like(i)
    for qubit in range(num_qubits):
        restore |= ((i >> qubit) & 1) << int(positions[qubit])
    return restore


#: Bounds of :func:`_fused`'s memo: entries, and amplitudes of their ideal
#: states together (4 MiB, plus 2 MiB of restore maps).  A circuit wider
#: than 18 qubits is never kept: its trajectories dwarf its noiseless pass.
FUSED_MEMO_SIZE = 8
FUSED_MEMO_AMPLITUDES = 1 << 18

_FUSED: Dict[tuple, FusedCircuit] = {}
_FUSED_LOCK = threading.Lock()


def _fused(circuit: QuantumCircuit) -> Tuple[FusedCircuit, str]:
    """The circuit's :class:`FusedCircuit` from a bounded LRU memo, and ``"hit"`` or ``"miss"``.

    Bumps ``sim.plan.memo.hit`` or ``.miss``.  The key (the width and the
    exact ``(name, qubits, params)`` stream) is as strict as
    :func:`~repro.circuits.library.gate_matrix`'s memo; ``circuit_fingerprint``
    rounds params.  Two racing misses may both build; either serves.
    """
    key = (circuit.num_qubits, tuple((g.name, g.qubits, g.params) for g in circuit))
    with _FUSED_LOCK:
        fused = _FUSED.pop(key, None)
    memo = "miss" if fused is None else "hit"
    telemetry.counter(f"sim.plan.memo.{memo}").inc()
    if fused is None:
        fused = fuse_circuit(circuit)
    with _FUSED_LOCK:
        if (1 << fused.num_qubits) <= FUSED_MEMO_AMPLITUDES:
            _FUSED[key] = fused
        while len(_FUSED) > FUSED_MEMO_SIZE or (
            sum(1 << entry.num_qubits for entry in _FUSED.values()) > FUSED_MEMO_AMPLITUDES
        ):
            del _FUSED[next(iter(_FUSED))]
    return fused, memo


def _kick_probs(
    qubits: Tuple[int, ...], noisy: Tuple[bool, ...], noise: NoiseModel
) -> Tuple[float, ...]:
    """Kick probability of each qubit of one fused op, right after the op.

    A fused single-qubit run combines its gates' probabilities in order as
    ``1 - prod(1 - p_i)``, so fusion never changes the injected noise.  A
    multi-qubit gate splits its coupler rate evenly over its qubits, so the
    whole gate's no-kick probability is exactly ``1 - rate``.
    """
    if len(qubits) == 1:
        rate = noise.single_qubit_rate(qubits[0])
        prob = None
        for gate_noisy in noisy:
            gate_rate = rate if gate_noisy else 0.0
            prob = gate_rate if prob is None else 1.0 - (1.0 - prob) * (1.0 - gate_rate)
        return (prob,)
    # Gates on 3+ qubits only occur pre-compilation: charge the default rate.
    rate = noise.coupler_rate(*qubits) if len(qubits) == 2 else noise.default_coupler_rate
    per_qubit = 1.0 - (1.0 - min(rate, 1.0)) ** (1.0 / len(qubits))
    return (per_qubit,) * len(qubits)


@dataclass(frozen=True)
class TrajectoryPlan:
    """Everything a group of trajectory batches needs, precomputed.

    ``fused`` is the circuit half, built once per gate stream and shared
    across the noise models a circuit runs under.  The rest is the noise
    half, built per plan: op ``i``'s per-qubit ``kick_probs[i]``, and the
    site table of the nonzero ones in circuit order: site ``k`` kicks
    register position ``site_qubits[k]`` with probability ``site_probs[k]``,
    and ``site_stops[i]`` is one past op ``i``'s last site.  Every batch of
    a run shares its plan, serially and across pool workers (pickled once
    per chunk, see :mod:`repro.simulation.engine`); no worker builds anything.
    """

    #: The kernel every plan runs; telemetry spans and tracers record it.
    mode: ClassVar[str] = "statevector"

    fused: FusedCircuit
    kick_probs: Tuple[Tuple[float, ...], ...]
    site_probs: np.ndarray
    site_qubits: Tuple[int, ...]
    site_stops: Tuple[int, ...]
    kick_cumweights: np.ndarray

    @property
    def num_qubits(self) -> int:
        return self.fused.num_qubits


def build_trajectory_plan(circuit: QuantumCircuit, noise: NoiseModel) -> TrajectoryPlan:
    """A circuit's shared fused half plus a noise half; one ``sim.plan`` span.

    The span's ``memo`` attribute is ``hit`` or ``miss`` (see :func:`_fused`).
    Raises ``ValueError`` when the noise model does not cover the circuit's
    register, or when the register is wider than :data:`MAX_DENSE_QUBITS`
    (checked before any ``2**n`` array is allocated).
    """
    if circuit.num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits; the dense trajectory "
            f"kernel simulates at most {MAX_DENSE_QUBITS}"
        )
    if circuit.num_qubits != noise.num_qubits:
        raise ValueError(
            f"noise model covers {noise.num_qubits} qubits but the circuit "
            f"has {circuit.num_qubits}"
        )
    with telemetry.span("sim.plan", qubits=circuit.num_qubits) as plan_span:
        fused, memo = _fused(circuit)
        if plan_span is not None:
            plan_span.attrs["memo"] = memo
        kick_probs = tuple(
            _kick_probs(qubits, noisy, noise)
            for qubits, noisy in zip(fused.qubits, fused.noisy)
        )
        site_probs: List[float] = []
        site_qubits: List[int] = []
        site_stops: List[int] = []
        for probs, targets in zip(kick_probs, fused.targets):
            for target, prob in zip(targets, probs):
                if prob > 0:
                    site_qubits.append(target)
                    site_probs.append(float(prob))
            site_stops.append(len(site_probs))
    return TrajectoryPlan(
        fused=fused,
        kick_probs=kick_probs,
        site_probs=np.asarray(site_probs, dtype=float),
        site_qubits=tuple(site_qubits),
        site_stops=tuple(site_stops),
        kick_cumweights=noise.kick_cumulative_weights(),
    )


@dataclass(frozen=True)
class TrajectoryResult:
    """Outcome of a set of Monte-Carlo trajectories of one circuit.

    Attributes
    ----------
    num_qubits:
        Register width of the simulated circuit.
    fidelities:
        Per-trajectory state fidelity ``|<ideal|psi_t>|^2``.
    success_probs:
        Per-trajectory probability of measuring the noiseless dominant
        bitstring.
    ideal_success:
        Probability of the dominant bitstring in the *noiseless* state — the
        ceiling for ``success_probability``.
    kicks:
        Total number of Pauli kicks injected across all trajectories.
    """

    num_qubits: int
    fidelities: Tuple[float, ...]
    success_probs: Tuple[float, ...]
    ideal_success: float
    kicks: int

    @property
    def num_trajectories(self) -> int:
        return len(self.fidelities)

    @property
    def state_fidelity(self) -> float:
        """Mean state fidelity over trajectories (the mixed-state fidelity)."""
        return float(np.mean(self.fidelities)) if self.fidelities else 1.0

    @property
    def success_probability(self) -> float:
        """Mean probability of measuring the noiseless dominant outcome."""
        return float(np.mean(self.success_probs)) if self.success_probs else 1.0

    def as_row(self) -> Dict[str, object]:
        """The fidelity columns merged into a sweep result row.

        ``ideal_success`` is included because ``success_probability`` is only
        meaningful relative to it: a flat-spectrum benchmark (e.g. qgan) has a
        low dominant-outcome probability even noiselessly.
        """
        return {
            "success_probability": round(self.success_probability, 6),
            "ideal_success": round(self.ideal_success, 6),
            "state_fidelity": round(self.state_fidelity, 6),
            "trajectories": self.num_trajectories,
        }

    @staticmethod
    def merge(parts: Sequence["TrajectoryResult"]) -> "TrajectoryResult":
        """Concatenate batch results (in batch order) into one result."""
        if not parts:
            raise ValueError("cannot merge zero trajectory results")
        first = parts[0]
        for part in parts[1:]:
            if part.num_qubits != first.num_qubits:
                raise ValueError("cannot merge results of different register widths")
        return TrajectoryResult(
            num_qubits=first.num_qubits,
            fidelities=tuple(f for part in parts for f in part.fidelities),
            success_probs=tuple(p for part in parts for p in part.success_probs),
            ideal_success=first.ideal_success,
            kicks=sum(part.kicks for part in parts),
        )


def _inject_kicks(
    states: np.ndarray,
    num_qubits: int,
    qubit: int,
    hit: np.ndarray,
    pauli_pick: np.ndarray,
) -> int:
    """Apply per-trajectory Pauli kicks on one qubit to the batch, in place.

    One fused 2x2 application over the whole ``(batch, 2**n)`` array: each
    trajectory's kick (or identity) becomes four scalar coefficients applied
    to its ``|0>``/``|1>`` amplitude planes — pure index arithmetic plus
    sign/phase multiplies, no masked gather/scatter round-trips.  Unkicked
    trajectories are multiplied by an exact identity, so their amplitudes are
    value-identical to the old per-Pauli masked path.

    Returns the number of kicks injected (every hit trajectory gets one).
    """
    batch = states.shape[0]
    lower = 1 << qubit
    upper = 1 << (num_qubits - qubit - 1)
    view = states.reshape(batch, upper, 2, lower)

    is_x = hit & (pauli_pick == 0)
    is_y = hit & (pauli_pick == 1)
    flip = is_x | is_y
    if not flip.any():
        # Z-only kicks: a diagonal sign flip on the |1> plane of kicked
        # trajectories (everyone else multiplies by exact +1.0).
        sign = np.where(hit, -1.0, 1.0)
        view[:, :, 1, :] *= sign[:, None, None]
        return int(hit.sum())

    is_z = hit & ~flip
    # Per-trajectory 2x2 coefficients, broadcast over the state planes:
    #   new0 = diag0*s0 + off0*s1      new1 = off1*s0 + diag1*s1
    # identity: (1, 0, 0, 1)   X: (0, 1, 1, 0)   Y: (0, -i, i, 0)   Z: (1, 0, 0, -1)
    diag0 = np.where(flip, 0.0, 1.0)[:, None, None]
    diag1 = np.where(flip, 0.0, np.where(is_z, -1.0, 1.0))[:, None, None]
    off0 = (np.where(is_x, 1.0, 0.0) + np.where(is_y, -1j, 0.0))[:, None, None]
    off1 = (np.where(is_x, 1.0, 0.0) + np.where(is_y, 1j, 0.0))[:, None, None]

    plane0 = view[:, :, 0, :]
    plane1 = view[:, :, 1, :]
    new0 = diag0 * plane0 + off0 * plane1
    new1 = off1 * plane0 + diag1 * plane1
    view[:, :, 0, :] = new0
    view[:, :, 1, :] = new1
    return int(hit.sum())


def _split_rows(
    states: np.ndarray,
    row_of: np.ndarray,
    hit: np.ndarray,
    pick: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map one site's per-trajectory hits and picks onto distinct rows.

    Row 0 is shared by the trajectories no kick has hit yet.  A hit
    trajectory that shares row 0 with an unhit one moves to a row of its
    own, a copy of row 0: the first spare row of ``states`` (rows past the
    last claimed one advance as copies of row 0), else one appended to it.
    When every trajectory left on row 0 is hit, the first keeps the row.
    ``row_of`` is updated in place, so afterwards every hit trajectory is
    alone on its row.  Returns ``(states, row_hit, row_pick)``.
    """
    shared = row_of == 0
    movers = hit & shared
    if np.array_equal(movers, shared):
        movers[np.argmax(movers)] = False
    count = int(np.count_nonzero(movers))
    if count:
        claimed = int(row_of.max()) + 1
        row_of[movers] = np.arange(claimed, claimed + count)
        rows = states.shape[0]
        if claimed + count > rows:
            # A fresh C-ordered array: the in-place kernels need C-contiguous rows.
            grown = np.empty((claimed + count, states.shape[1]), dtype=complex)
            grown[:rows] = states
            grown[rows:] = states[0]
            states = grown
    hit_rows = row_of[hit]
    row_hit = np.zeros(states.shape[0], dtype=bool)
    row_hit[hit_rows] = True
    row_pick = np.zeros(states.shape[0], dtype=np.intp)
    row_pick[hit_rows] = pick[hit]
    return states, row_hit, row_pick


#: One batch as the kernel takes it: its size and its seeded generator.
SeededBatch = Tuple[int, np.random.Generator]


def _advance_rows(
    plan: TrajectoryPlan, batches: Sequence[SeededBatch]
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Advance a group of seeded batches of one plan from ``|0...0>``.

    ``batches`` holds each batch's size and generator.  Returns ``(states,
    row_of, kicks)``: the group's trajectory ``t``, counted across its
    batches in order, ends in ``states[row_of[t]]``, and ``kicks[b]`` is the
    number of Pauli kicks batch ``b`` took.  Row 0 may be shared, every other
    row belongs to at most one trajectory, and there are never more rows
    than trajectories.

    The kernel advances one row per *distinct* trajectory of the whole
    group, not one per trajectory.  Row 0 is shared by the trajectories no
    kick has hit yet, whatever their batch; a trajectory gets its own row,
    copied from row 0, at its first hit.  Each row takes the arithmetic its
    trajectory took when its batch alone advanced as one row per trajectory,
    so its amplitudes do not depend on how batches are grouped
    (:func:`lockstep_groups`).  Only the sign of a zero amplitude can:
    :func:`_inject_kicks` takes its Z-only path when no row at a site is
    flipped, a choice made over the whole group.  No score or sum sees a
    zero's sign, so each batch's :class:`TrajectoryResult` is the same bits
    in any group.

    Each batch draws its kicks in one ``rng.random((sites, 2, size))`` call
    on its own generator: per (op, qubit) site in circuit order, ``size``
    hit draws then ``size`` Pauli-pick draws.  That is the generator's
    stream in the order one ``rng.random(size)`` per draw consumed it, and
    it does not depend on which trajectories are hit, so a batch's states
    depend only on its seed and size.  The group keeps each batch's hit
    table and one-byte pick table, concatenated along the trajectory axis,
    and visits only the sites where some trajectory is hit.  Picks are
    clipped into the Pauli table so a cumulative-weight array whose last
    entry sits a few ulp below 1.0 cannot silently drop kicks.

    Each fused op is applied in place (``apply_matrix_inplace``) on its
    relabeled targets, then the op's hit sites are visited.  From 10
    qubits the fused circuit relabels the register so dense ops run at
    long strides (:func:`_relabel_positions`); one gather with the restore
    map returns the rows to standard qubit order at the end.
    """
    if not batches or min(size for size, _ in batches) < 1:
        raise ValueError("batch must be >= 1")
    num_qubits, fused = plan.num_qubits, plan.fused
    sites = len(plan.site_qubits)
    hit_parts, pick_parts, kicks = [], [], []
    for size, rng in batches:
        draws = rng.random((sites, 2, size))
        hit = draws[:, 0, :] < plan.site_probs[:, None]
        pick = np.minimum(np.searchsorted(plan.kick_cumweights, draws[:, 1, :]), 2)
        hit_parts.append(hit)
        pick_parts.append(pick.astype(np.int8))
        # Every hit trajectory takes exactly one kick at its site.
        kicks.append(int(hit.sum()))
    hits = np.concatenate(hit_parts, axis=1)
    picks = np.concatenate(pick_parts, axis=1)
    hit_sites = np.flatnonzero(hits.any(axis=1)).tolist()

    # numpy rounds a one-row array differently from a taller one (a
    # one-element strided multiply takes its scalar loop, a one-row matmul
    # BLAS gemv), so a group of two or more trajectories never runs on fewer
    # than two rows: row 1 starts as a spare copy of row 0 that the first hit
    # claims.  A batch of one runs alone (see :func:`lockstep_groups`).
    trajectories = hits.shape[1]
    states = np.zeros((min(trajectories, 2), 1 << num_qubits), dtype=complex)
    states[:, 0] = 1.0
    row_of = np.zeros(trajectories, dtype=np.intp)
    next_hit = 0
    for matrix, targets, stop in zip(fused.matrices, fused.targets, plan.site_stops):
        states = apply_matrix_inplace(states, matrix, targets, num_qubits)
        while next_hit < len(hit_sites) and hit_sites[next_hit] < stop:
            site = hit_sites[next_hit]
            next_hit += 1
            states, row_hit, row_pick = _split_rows(
                states, row_of, hits[site], picks[site]
            )
            _inject_kicks(
                states, num_qubits, plan.site_qubits[site], row_hit, row_pick
            )
    if fused.restore is not None:
        states = states.take(fused.restore, axis=1)
    return states, row_of, kicks


def run_trajectory_group(
    plan: TrajectoryPlan, batches: Sequence[SeededBatch]
) -> List[TrajectoryResult]:
    """Advance a group of seeded batches in lockstep and score each batch.

    Returns one :class:`TrajectoryResult` per batch, in order, each with its
    own kick count.  Each batch's slice of ``row_of`` is gathered and scored
    on its own, so a batch's result is the same bits in any group.

    Each call is one ``sim.batch`` kernel span, with the group's
    ``batches`` and ``trajectories``; the ``sim.kernel_s`` histogram and the
    ``sim.trajectories`` / ``sim.rows`` / ``sim.kicks`` / ``sim.batches``
    counters accumulate the throughput story ``repro telemetry summarize``
    reports.  ``sim.batches`` counts seeded batches, and ``sim.rows`` the
    distinct rows within each batch's slice of ``row_of``: its hit
    trajectories plus one if any stayed unhit.  Neither depends on the
    grouping, so pooled counters equal serial ones.
    """
    sizes = [size for size, _ in batches]
    start = time.perf_counter()
    with telemetry.span(
        "sim.batch", qubits=plan.num_qubits, batches=len(sizes), trajectories=sum(sizes)
    ):
        rows, row_of, kicks = _advance_rows(plan, batches)
    telemetry.histogram("sim.kernel_s").observe(time.perf_counter() - start)

    ideal_state = plan.fused.ideal_state
    dominant = int(np.argmax(np.abs(ideal_state) ** 2))
    ideal_success = float(np.abs(ideal_state[dominant]) ** 2)
    results = []
    bounds = np.cumsum([0] + sizes)
    for lo, hi, batch_kicks in zip(bounds, bounds[1:], kicks):
        batch_rows = row_of[lo:hi]
        telemetry.counter("sim.rows").inc(int(np.unique(batch_rows).size))
        # Gathered and scored per batch, at the batch's own row count, so
        # the scores round as they do for the batch alone.
        states = rows.take(batch_rows, axis=0)
        fidelities = np.abs(states @ ideal_state.conj()) ** 2
        success = np.abs(states[:, dominant]) ** 2
        del states  # free it before the next batch's gather
        results.append(
            TrajectoryResult(
                num_qubits=plan.num_qubits,
                fidelities=tuple(float(f) for f in fidelities),
                success_probs=tuple(float(p) for p in success),
                ideal_success=ideal_success,
                kicks=batch_kicks,
            )
        )
    telemetry.counter("sim.batches").inc(len(sizes))
    telemetry.counter("sim.trajectories").inc(sum(sizes))
    telemetry.counter("sim.kicks").inc(sum(kicks))
    return results


def batch_sizes(num_trajectories: int, batch_size: int) -> List[int]:
    """Deterministic partition of a trajectory count into batch sizes."""
    if num_trajectories < 1:
        raise ValueError("num_trajectories must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    full, rest = divmod(num_trajectories, batch_size)
    return [batch_size] * full + ([rest] if rest else [])


#: One seeded batch of a run: the shared plan, the batch size and its seed.
BatchPayload = Tuple[TrajectoryPlan, int, np.random.SeedSequence]


def lockstep_groups(
    payloads: Sequence[BatchPayload],
) -> List[Tuple[TrajectoryPlan, List[SeededBatch]]]:
    """Split consecutive seeded batches of one plan into lockstep groups.

    A batch joins the open group while the group's trajectories times
    ``2**n`` stay within :data:`GROUP_AMPLITUDES`; otherwise it opens a new
    one.  A batch of one trajectory always runs alone: numpy rounds a
    one-row array differently from a taller one (see :func:`_advance_rows`),
    and alone it runs on one row in every run, so its bits never depend on
    its neighbours.  Each group is its plan and, per batch, the batch size
    and a generator seeded from the batch's
    :class:`~numpy.random.SeedSequence`.
    """
    groups: List[Tuple[TrajectoryPlan, List[SeededBatch]]] = []
    room = 0  # trajectories the open group can still take
    for plan, size, child in payloads:
        batch = (size, np.random.default_rng(child))
        if 1 < size <= room:
            groups[-1][1].append(batch)
            room -= size
        else:
            groups.append((plan, [batch]))
            room = 0 if size == 1 else (GROUP_AMPLITUDES >> plan.num_qubits) - size
    return groups


def trajectory_batch_payloads(
    circuit: QuantumCircuit,
    noise: NoiseModel,
    num_trajectories: int,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> List[BatchPayload]:
    """The seeded per-batch work items of one trajectory run.

    This is the single source of the fusion + seeding scheme:
    :func:`repro.simulation.engine.run_trajectories` executes exactly these
    payloads in order, in-process or on a worker pool, which is what makes
    its results bit-identical for any worker count.  Every payload shares one
    :class:`TrajectoryPlan` object, so a chunk of payloads pickled together
    carries the plan's arrays once.
    """
    plan = build_trajectory_plan(circuit, noise)
    sizes = batch_sizes(num_trajectories, batch_size)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return [(plan, size, child) for size, child in zip(sizes, children)]


def noisy_trajectory_states(
    circuit: QuantumCircuit,
    noise: NoiseModel,
    num_trajectories: int,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> np.ndarray:
    """Final statevectors of seeded noisy trajectories, one row per trajectory.

    Shares the exact fusion + seeding + kick-draw scheme of
    :func:`repro.simulation.engine.run_trajectories`, so for a given
    ``(seed, num_trajectories, batch_size)`` triple the trajectory ``t``
    returned here is the *same* noisy evolution that ``run_trajectories``
    scored — an expectation value averaged over these states is
    statistically consistent with the fidelity columns the runtime reports
    for the same job.

    Returns a dense ``(num_trajectories, 2**n)`` array; callers are expected
    to respect the statevector simulator's small-circuit limits.  Zero
    amplitudes are ``+0.0``: their sign would depend on how the batches
    were grouped (see :func:`_advance_rows`), and adding ``0.0`` changes no
    value.
    """
    payloads = trajectory_batch_payloads(
        circuit, noise, num_trajectories, seed=seed, batch_size=batch_size
    )
    groups = []
    for plan, batches in lockstep_groups(payloads):
        rows, row_of, _ = _advance_rows(plan, batches)
        groups.append(rows.take(row_of, axis=0))
    states = np.concatenate(groups, axis=0)
    states += 0.0
    return states
