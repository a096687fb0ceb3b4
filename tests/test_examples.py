"""The README quickstart example runs to completion in the tier-1 suite.

``examples/quickstart.py`` asserts every claim the README's quickstart
makes.  It runs in a fresh interpreter with an empty working directory, so
nothing it writes lands in the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quickstart_example_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "quickstart.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "README quickstart examples: OK" in completed.stdout
