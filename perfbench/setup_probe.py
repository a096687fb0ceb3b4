"""Time one sweep set-up in a fresh interpreter.

``python3 perfbench/setup_probe.py <store parent dir>`` imports the sweep
stack from the checkout's ``src/``, opens an empty result store under the
given directory, and prints the seconds that took as one JSON object.  The
benchmark runs it a few times per run and reports the median, so that work
moved into import or store set-up shows in ``setup_s``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sweep_setup(parent: str):
    """Import the sweep stack and open an empty temp store; returns (store, seconds)."""
    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.runtime import ResultStore

    store = ResultStore(tempfile.mkdtemp(prefix="store-", dir=parent))
    return store, time.perf_counter() - start


if __name__ == "__main__":
    _, seconds = sweep_setup(sys.argv[1])
    print(json.dumps({"setup_s": seconds}))
