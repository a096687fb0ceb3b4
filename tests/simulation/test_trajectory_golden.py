"""Bit-for-bit trajectory outputs, pinned by a golden file.

Each run entry is the sha256 of a :func:`run_trajectories` result: its
``fidelities`` and ``success_probs`` as float64 bytes, then ``kicks``.  The
run simulates the physical circuit ``compile_spec`` emits, under the
backend's noise model at ``noise_seed`` 0, with 100 trajectories in batches
of 25 at seed 0 — the fidelity columns of a default ``--fidelity`` sweep
job.  The cases cover perfbench's ``noisy_fidelity`` jobs (8 q, below the
10-qubit relabel threshold) and 12-16 q registers that run relabeled.  Two
runs with other trajectory counts cover how batches are grouped: one ends in
a batch of a single trajectory, and one 12-q run spans several lockstep
groups, the last of them uneven.  One more entry pins the raw vectors
:func:`noisy_trajectory_states` returns.

To regenerate after an intentional change of the trajectory bits::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/simulation/test_trajectory_golden.py
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.jobs import compile_spec
from repro.runtime.spec import ExperimentSpec
from repro.simulation.engine import run_trajectories
from repro.simulation.trajectories import noisy_trajectory_states

GOLDEN_PATH = Path(__file__).parent / "golden_trajectory_digests.json"

#: (benchmark, backend, logical qubits) of every pinned run.
RUN_CASES = (
    [
        (name, backend, 8)
        for name in ("qgan", "ising", "add2", "bv")
        for backend in ("digiq-opt8", "cryo-cmos-grid")
    ]
    + [(name, "digiq-opt8", 12) for name in ("qgan", "ising", "bv", "qaoa")]
    + [("bv", "digiq-heavy-hex", 12), ("bv", "digiq-opt8", 16)]
)

#: (benchmark, backend, logical qubits, trajectories) of runs that are not
#: 100 trajectories: 51 = 25 + 25 + 1 on 9 physical qubits, and 130 = 5 x 25
#: + 5 on 12, which the lockstep budget splits into groups of two batches.
SIZED_RUN_CASES = (("bv", "digiq-opt8", 8, 51), ("ising", "digiq-opt8", 12, 130))

#: (benchmark, backend, logical qubits, trajectories, seed) of the states entry.
STATES_CASE = ("qgan", "digiq-opt8", 12, 30, 1)


def physical_job(name, backend, num_qubits):
    """The physical circuit and noise model a ``--fidelity`` job simulates."""
    spec = ExperimentSpec(benchmark=name, backend=backend, num_qubits=num_qubits)
    physical = compile_spec(spec).physical_circuit
    noise = spec.backend.noise_model(
        physical.num_qubits, couplers=sorted(physical.two_qubit_pairs()), seed=0
    )
    return physical, noise


def run_digest(name, backend, num_qubits, trajectories=100):
    result = run_trajectories(
        *physical_job(name, backend, num_qubits),
        num_trajectories=trajectories, seed=0, batch_size=25,
    )
    digest = hashlib.sha256()
    digest.update(np.asarray(result.fidelities, dtype=np.float64).tobytes())
    digest.update(np.asarray(result.success_probs, dtype=np.float64).tobytes())
    digest.update(str(result.kicks).encode())
    return digest.hexdigest()


def states_digest(name, backend, num_qubits, trajectories, seed):
    states = noisy_trajectory_states(
        *physical_job(name, backend, num_qubits), trajectories, seed=seed
    )
    return hashlib.sha256(np.ascontiguousarray(states).tobytes()).hexdigest()


def current_digests():
    digests = {
        f"run/{name}@{qubits}q/{backend}": run_digest(name, backend, qubits)
        for name, backend, qubits in RUN_CASES
    }
    for name, backend, qubits, trajectories in SIZED_RUN_CASES:
        key = f"run/{name}@{qubits}q/{backend}/t{trajectories}"
        digests[key] = run_digest(name, backend, qubits, trajectories)
    name, backend, qubits, trajectories, seed = STATES_CASE
    key = f"states/{name}@{qubits}q/{backend}/t{trajectories}/s{seed}"
    digests[key] = states_digest(*STATES_CASE)
    return digests


def test_trajectory_digests_match_golden():
    digests = current_digests()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        pytest.skip("trajectory digest golden regenerated")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(digests)
    drifted = [case for case, digest in digests.items() if golden[case] != digest]
    assert not drifted, f"trajectory bits drifted from the golden: {drifted}"
