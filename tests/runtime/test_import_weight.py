"""The runtime and the daemon's scheduler import none of the unused stack.

A fresh interpreter is the only honest probe: pytest itself, and every test
module it has collected, may already have loaded anything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")
UNUSED = ("networkx", "scipy.optimize")


def test_runtime_and_scheduler_leave_networkx_and_scipy_optimize_unloaded():
    probe = (
        "import json, sys\n"
        "import repro.runtime, repro.queue.scheduler\n"
        f"print(json.dumps([name for name in {UNUSED!r} if name in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
