"""Seeded inputs of the four workloads.

Everything a workload submits is derived here from the workload seed alone,
so the same seed always yields the same request stream.  The program under
test only ever sees the generated specs, never the seed.

A workload is a stream of *passes*.  One pass holds the full mix of request
types once, so a run that stops on a pass boundary always measures the same
mix no matter how many passes fit in its time.  Every pass draws a grid seed
that no earlier pass of the process used, so nothing is served from the
result store unless the workload says so (``sweep_warm`` and the repeats of
``served``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

#: The workload seed whose first pass is pinned by ``digests.json``.
DEFAULT_SEED = 0

#: The paper's Table IV benchmarks.
TABLE_IV = ("qgan", "ising", "bv", "add1", "add2", "sqrt")

#: DigiQ designs of Fig. 9: two DigiQ_opt bitstream counts and DigiQ_min.
FIG9_BACKENDS = ("digiq-opt8", "digiq-opt16", "digiq-min2")

SWEEP_QUBITS = 16

#: ``sqrt`` is left out of the noisy mix: its fixed 16-physical-qubit device
#: costs about a second per trajectory.
NOISY_BENCHMARKS = ("qgan", "ising", "add2", "bv")
#: Sampled variability noise vs calibrated frozen rates.
NOISY_BACKENDS = ("digiq-opt8", "cryo-cmos-grid")
NOISY_QUBITS = 8
NOISY_TRAJECTORIES = 100

SERVED_QUBITS = 12
SERVED_CLIENTS = 2
#: Every ``SERVED_REPEAT_EVERY``-th submission repeats a completed spec.
SERVED_REPEAT_EVERY = 4

#: Passes of ``sweep_cold`` that ``sweep_warm`` fills its store with and
#: then re-sweeps in rotation.
WARM_FILL_PASSES = 2

#: Upper bound on distinct grid seeds one run can draw.
_SEED_POOL = 1 << 14

#: Pass index the traced half of a traced run starts at.  It lies far past
#: any pass the untraced half reaches, so the traced passes draw fresh seeds
#: and are the same passes for every run of a seed, whatever the timing.
TRACED_FIRST_PASS = 4096


@lru_cache(maxsize=8)
def grid_seeds(seed: int) -> Tuple[int, ...]:
    """Distinct benchmark/router seeds drawn from the workload seed."""
    return tuple(random.Random(seed).sample(range(1, 2**31), _SEED_POOL))


@dataclass(frozen=True)
class Request:
    """One ``run_sweep`` call: one pass of the workload's grid at one seed."""

    benchmarks: Tuple[str, ...]
    backends: Tuple[str, ...]
    num_qubits: int
    seed: int

    @property
    def jobs(self) -> int:
        return len(self.benchmarks) * len(self.backends)


def sweep_pass(seed: int, index: int) -> Request:
    """Pass ``index`` of ``sweep_cold``: one Fig. 9, Table IV x designs at 16 q."""
    return Request(TABLE_IV, FIG9_BACKENDS, SWEEP_QUBITS, grid_seeds(seed)[index])


def noisy_pass(seed: int, index: int) -> Request:
    """Pass ``index`` of ``noisy_fidelity``."""
    return Request(NOISY_BENCHMARKS, NOISY_BACKENDS, NOISY_QUBITS, grid_seeds(seed)[index])


@dataclass(frozen=True)
class Submission:
    """One served job.  ``repeat_of`` names the earlier position it repeats."""

    benchmark: str
    backend: str
    seed: int
    repeat_of: Optional[int] = None


def served_pass(seed: int, client: int, index: int) -> List[Submission]:
    """Pass ``index`` of served client ``client``.

    The 18 fresh specs of Table IV x Fig. 9 designs at 12 q, in a fixed
    order that each client starts at a different point of, and after every
    three fresh specs a repeat of the first of them.  A client collects each
    job before it submits the next, so the repeated spec has always
    completed and the repeat exercises the daemon's cache-hit path.  Only the
    grid seed depends on the workload seed.
    """
    grid_seed = grid_seeds(seed)[index * SERVED_CLIENTS + client]
    fresh = [(name, backend) for name in TABLE_IV for backend in FIG9_BACKENDS]
    shift = client * len(fresh) // SERVED_CLIENTS
    stream: List[Submission] = []
    for name, backend in fresh[shift:] + fresh[:shift]:
        stream.append(Submission(name, backend, grid_seed))
        if len(stream) % SERVED_REPEAT_EVERY == SERVED_REPEAT_EVERY - 1:
            origin = len(stream) - (SERVED_REPEAT_EVERY - 1)
            stream.append(
                Submission(stream[origin].benchmark, stream[origin].backend, grid_seed, origin)
            )
    return stream
