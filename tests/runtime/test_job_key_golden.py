"""Byte-identical job keys across Table IV, two backends, two sizes and two
fidelity option sets.

A job key addresses a stored result row, so any drift in what the key
covers (circuit fingerprint, compile options, backend identity, fidelity
options) silently turns every cached row into a miss.  ``golden/job_keys.json``
pins the keys; the persisted-dict tests pin how stored fidelity options map
back onto them.

To regenerate after an intentional key change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/runtime/test_job_key_golden.py
"""

import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.circuits.benchmarks import TABLE_IV_NAMES
from repro.runtime import FidelityOptions, job_key, jobs
from repro.runtime.spec import ExperimentSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "job_keys.json"

BACKENDS = ("digiq-opt8", "cryo-cmos-grid")
QUBITS = (8, 12)
FIDELITY = {
    "default": FidelityOptions(),
    "custom": FidelityOptions(trajectories=40, batch_size=10, noise_seed=3, max_qubits=24),
}

CASES = [
    (name, backend, qubits, label)
    for name in TABLE_IV_NAMES
    for backend in BACKENDS
    for qubits in QUBITS
    for label in FIDELITY
]


def case_id(name, backend, qubits, label):
    return f"{name}@{qubits}q/{backend}/{label}"


def spec_for(name, backend, qubits, fidelity):
    return ExperimentSpec(
        benchmark=name, backend=backend, num_qubits=qubits, fidelity=fidelity
    )


def grid_keys():
    return {
        case_id(*case): job_key(spec_for(*case[:3], FIDELITY[case[3]]))
        for case in CASES
    }


def test_job_keys_match_golden(monkeypatch):
    # An empty source memo: the first pass builds every circuit, the second
    # keys every case from the memo.
    monkeypatch.setattr(jobs, "_SOURCES", jobs._LRU(jobs.SOURCE_MEMO_SIZE))
    for _memo in ("cold", "warm"):
        keys = grid_keys()
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_PATH.write_text(json.dumps(keys, indent=2, sort_keys=True) + "\n")
            pytest.skip("job key golden regenerated")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert sorted(golden) == sorted(keys)
        drifted = [case for case, key in keys.items() if golden[case] != key]
        assert not drifted, f"job keys drifted from the golden: {drifted}"
    # each circuit was built once, for its first key
    assert jobs._SOURCES.misses == len({(name, qubits) for name, _, qubits, _ in CASES})


def test_concurrent_keying_matches_golden(monkeypatch):
    """The daemon's handler threads share one source memo: eight threads
    keying the grid at once, from an empty memo, all reproduce the golden."""
    monkeypatch.setattr(jobs, "_SOURCES", jobs._LRU(jobs.SOURCE_MEMO_SIZE))
    start = threading.Barrier(8)

    def keyed(_thread):
        start.wait(timeout=60)
        return grid_keys()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(keyed, range(8), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert all(keys == golden for keys in results)


@pytest.mark.parametrize("label", sorted(FIDELITY))
def test_persisted_options_with_and_without_mode_share_one_key(label):
    """Stored option dicts predate and postdate the ``mode`` entry; both
    must deserialize to options that reproduce the golden key."""
    options = FIDELITY[label]
    with_mode = dict(options.as_dict(), mode="auto")
    without_mode = {k: v for k, v in with_mode.items() if k != "mode"}
    keys = {
        job_key(spec_for("bv", "digiq-opt8", 8, FidelityOptions.from_dict(data)))
        for data in (with_mode, without_mode)
    }
    golden = json.loads(GOLDEN_PATH.read_text())
    assert keys == {golden[case_id("bv", "digiq-opt8", 8, label)]}
