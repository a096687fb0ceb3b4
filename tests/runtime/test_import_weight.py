"""The runtime and the daemon's scheduler import none of the unused stack.

A fresh interpreter is the only honest probe: pytest itself, and every test
module it has collected, may already have loaded anything.  scipy serves
only the Sec. V physics models (Fig. 7, Fig. 10, ``DeviceCalibration``), so
sweeps, sessions and the daemon must neither load it nor need it.  The
``repro.queue`` package exports ``QueueStore`` and ``QueueClient`` only, and
loads the HTTP client on first touch of ``QueueClient``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")
UNUSED = ("networkx", "repro.core.calibration", "repro.physics.sfq_pulse")

#: Runs a noisy, power-costed sweep through the CLI, then one Sampler and one
#: Estimator job on a Session, with every ``scipy*`` import made to fail.
BLOCKED_SCIPY_PROBE = """
import importlib.abc, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())

from repro.circuits import QuantumCircuit
from repro.primitives import Estimator, Sampler, Session
from repro.runtime.cli import main

code = main([
    "--benchmarks", "bv", "ising", "--qubits", "8", "--fidelity",
    "--trajectories", "10", "--power", "--no-cache", "--workers", "1",
    "--format", "json",
])
assert code in (0, None), code
bell = QuantumCircuit(2, name="bell")
bell.h(0)
bell.cx(0, 1)
with Session("digiq-opt8") as session:
    sample = Sampler(session).run("bv", num_qubits=8, shots=32).result(timeout=300)[0]
    value = Estimator(session).run(bell, "ZZ").result(timeout=300)[0].value
assert sum(sample.counts.values()) == 32, sample.counts
assert abs(value - 1.0) < 1e-9, value
assert not [name for name in sys.modules if name == "scipy" or name.startswith("scipy.")]
print("ok")
"""


def run_probe(probe, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_runtime_and_scheduler_load_no_scipy_networkx_or_physics(tmp_path):
    probe = (
        "import json, sys\n"
        "import repro.runtime, repro.queue.scheduler\n"
        f"unused = {UNUSED!r}\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "    if name in unused or name == 'scipy' or name.startswith('scipy.'))))\n"
    )
    done = run_probe(probe, tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_sweep_and_session_run_with_scipy_blocked(tmp_path):
    done = run_probe(BLOCKED_SCIPY_PROBE, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("ok")


def test_queue_package_exports_store_and_lazy_client(tmp_path):
    probe = (
        "import sys\n"
        "import repro.queue\n"
        "assert 'repro.queue.client' not in sys.modules\n"
        "from repro.queue import QueueClient, QueueStore\n"
        "from repro.queue import client, store\n"
        "assert (QueueClient, QueueStore) == (client.QueueClient, store.QueueStore)\n"
        "assert sorted(repro.queue.__all__) == ['QueueClient', 'QueueStore']\n"
        "print('ok')\n"
    )
    done = run_probe(probe, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("ok")
