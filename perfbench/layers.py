"""Outside-in per-layer tracing for the traced run.

Nothing inside the program is changed or instrumented.  :class:`Tracer`
replaces a layer's public function, where its caller looks it up, with a
wrapper that times the call and restores the original afterwards.  Calls
nest: each wrapped call's time is charged to its caller as child time, so a
layer's *self time* is its busy time minus the timed calls it made
(``parent - sum(children)`` at every level), and the self times of all
layers plus ``other`` add up to the wall time exactly.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Mapping, Optional

Hook = Callable[["Tracer", object, tuple, dict], None]


def layer_split(wall: float, self_times: Mapping[str, float]) -> Dict[str, float]:
    """Layer self times plus ``other = wall - sum(self times)``."""
    split = dict(self_times)
    split["other"] = wall - sum(self_times.values())
    return split


class Tracer:
    """Span accounting for wrapped calls, safe across client threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[object]] = defaultdict(list)

    def _enter(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        children = [0.0]
        stack.append(children)
        return children

    def _exit(self, name: str, children: List[float], duration: float) -> None:
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][0] += duration
        with self._lock:
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += duration - children[0]

    def record(self, name: str, value: object) -> None:
        with self._lock:
            self.values[name].append(value)

    def wrap(self, name: str, function: Callable, hook: Optional[Hook] = None) -> Callable:
        """``function`` timed as layer ``name``; ``hook`` sees each result."""
        clock = self._clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            children = self._enter()
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                self._exit(name, children, clock() - start)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, hook: Optional[Hook] = None) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`restore`."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, hook))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def split(self, wall: float) -> Dict[str, float]:
        return layer_split(wall, self.self_time)


def _store_get(tracer: Tracer, result, args, kwargs) -> None:
    tracer.record("store.hit", result is not None)


def _store_put(tracer: Tracer, path, args, kwargs) -> None:
    tracer.record("store.put.bytes", path.stat().st_size)


def _schedule(tracer: Tracer, estimate, args, kwargs) -> None:
    tracer.record("core.cycles", estimate.total_cycles)
    tracer.record("core.overhead", estimate.serialization_overhead)


def _plan(tracer: Tracer, plan, args, kwargs) -> None:
    tracer.record("plan.mode", plan.mode)


def _trajectories(tracer: Tracer, result, args, kwargs) -> None:
    tracer.record("sim.trajectories", result.num_trajectories)


def install_sweep_layers(tracer: Tracer) -> None:
    """Wrap each layer's public function where the sweep path looks it up."""
    from repro.backends import Backend
    from repro.runtime import dispatch, jobs, spec
    from repro.runtime.store import ResultStore
    from repro.simulation import trajectories

    tracer.patch(dispatch, "compute_job_keys", "runtime.keys")
    tracer.patch(spec, "build_benchmark", "circuits.build")
    tracer.patch(ResultStore, "get", "runtime.store.get", _store_get)
    tracer.patch(ResultStore, "put", "runtime.store.put", _store_put)
    tracer.patch(jobs, "compile_spec", "compiler.compile")
    tracer.patch(jobs, "normalized_execution_time", "core.simd_schedule", _schedule)
    tracer.patch(Backend, "noise_model", "backends.noise_model")
    tracer.patch(jobs, "run_trajectories", "simulation.run", _trajectories)
    tracer.patch(trajectories, "build_trajectory_plan", "simulation.plan", _plan)


def install_client_layers(tracer: Tracer) -> None:
    """Wrap the served client's RPCs (the daemon itself is never wrapped)."""
    from repro.queue.client import QueueClient

    tracer.patch(QueueClient, "submit", "queue.submit_rpc")
    tracer.patch(QueueClient, "result_row", "queue.poll")
