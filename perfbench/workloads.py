"""The four workloads, driven through the repo's public entry points.

``sweep_cold``, ``sweep_warm`` and ``noisy_fidelity`` are one closed-loop
client calling :func:`repro.runtime.run_sweep` (``workers=1``) once per
pass, on the workload's benchmarks x backends at one grid seed.  ``served``
starts ``repro serve`` as a subprocess and drives it with two closed-loop
:class:`repro.queue.QueueClient` threads.

A run measures whole passes (see :mod:`inputs`) until its time is up.  The
traced run measures half its time untraced, then as many passes again with
the layer wrappers of :mod:`layers` installed, and reports the per-layer
metrics of the traced half plus the tracing overhead between the halves.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import checks
import inputs
import layers
from setup_probe import ROOT, sweep_setup

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS_PER_RUN = 3
#: Served clients poll for their result at this interval (well below job time).
POLL_INTERVAL_S = 0.02
#: A served job not collected within this many seconds counts as failed.
JOB_TIMEOUT_S = 60.0
#: Served rows of the first pass re-executed locally with ``execute_spec``.
LOCAL_SAMPLE = 3
#: Measuring stops after this many seconds of a run whatever the pass count,
#: so that set-up, measuring and checks end well inside 180 s.
RUN_DEADLINE_S = 120.0
#: Workloads whose ``other`` share of the traced wall time is flagged.
OTHER_FLAG_SHARE = 0.10

#: Passes of the default ``-O1`` pipeline, in the order they run.
COMPILE_PASSES = (
    "DecomposeToTwoQubit",
    "CancelInverseGates",
    "BuildInitialLayout",
    "StochasticRoute",
    "RebaseToCZ",
    "ValidateBasis",
    "ValidateCoupling",
    "ScheduleCrosstalkAware",
)

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as _f:
    #: Digest of each workload's reference rows: the first pass of the default seed.
    DIGESTS: Dict[str, str] = json.load(_f)


# -- bookkeeping ---------------------------------------------------------------


class Tally:
    """Attempted and failed operations; every failure keeps a short note."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def count(self, ok: bool, note: str = "", operations: int = 1) -> None:
        with self._lock:
            self.attempted += operations
            if not ok:
                self.failed += operations
                if len(self.notes) < 20:
                    self.notes.append(note)


@dataclass
class Window:
    """One measured stretch of whole passes.

    ``pass_s`` holds the duration of every pass of every client.  Throughput
    is the rate sustained in 9 of 10 passes, taken from the 90th-percentile
    pass: on a shared 2-core VM the host's speed flips between a fast and a
    slow regime for seconds at a time, so pass durations are bimodal.  A mean
    or median moves with the share of fast time a run happens to get; the
    90th percentile stays in the slow regime, which every run contains.
    """

    passes: int = 0
    jobs: int = 0
    wall_s: float = 0.0
    clients: int = 1
    pass_s: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    first_pass_rows: List[dict] = field(default_factory=list)

    @property
    def jobs_per_s(self) -> float:
        """Jobs per second of ``clients`` closed-loop clients at the p90 pass."""
        return self.clients * (self.jobs / self.passes) / checks.percentile(self.pass_s, 90)


@dataclass
class Outcome:
    """What a workload run reports back to ``run.py``."""

    setups_s: List[float]
    peak_rss_mb: float
    window: Window
    reference_digest: str
    per_layer: Dict[str, float] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)


class Run:
    """Arguments and shared state of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tmp: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp
        self.tally = Tally()
        self.started = time.perf_counter()

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > RUN_DEADLINE_S

    def check_rows(
        self,
        rows: Sequence[dict],
        expected_jobs: int,
        expected: Optional[Sequence[str]] = None,
        fidelity: bool = False,
    ) -> None:
        """Count one operation per expected job; fail it on any broken check."""
        for index in range(expected_jobs):
            if index >= len(rows):
                self.tally.count(False, f"{self.workload}: missing row {index}")
                continue
            row = rows[index]
            problems = checks.row_problems(row)
            if fidelity and row.get("trajectories") != inputs.NOISY_TRAJECTORIES:
                problems.append(f"trajectories {row.get('trajectories')!r} were not simulated")
            if expected is not None and checks.canonical(row) != expected[index]:
                problems.append("row differs from the row it should repeat")
            self.tally.count(not problems, f"{self.workload} {row.get('benchmark')}: {problems}")

    def check_digest(self, rows: Sequence[dict]) -> str:
        digest = checks.rows_digest(rows)
        recorded = DIGESTS.get(self.workload)
        self.tally.count(
            digest == recorded,
            f"{self.workload}: reference digest {digest} != recorded {recorded}",
        )
        return digest


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_lines(name: str, latencies_s: Sequence[float]) -> List[str]:
    count = len(latencies_s)
    tail = checks.tail_percentile(count)
    return [
        f"{name}: {count} samples; p50 {checks.percentile(latencies_s, 50) * 1e3:.2f} ms, "
        f"p90 {checks.percentile(latencies_s, 90) * 1e3:.2f} ms "
        f"({checks.samples_beyond(count, 90)} samples beyond p90; highest percentile "
        f"with >= {checks.MIN_BEYOND} beyond: {tail if tail is not None else 'none'})"
    ]


def layer_table(wall: float, busy: Dict[str, float], calls: Dict[str, int],
                split: Dict[str, float]) -> List[str]:
    lines = [f"  {'layer':<24}{'calls':>8}{'busy s':>10}{'self s':>10}{'share':>8}"]
    for name in sorted(split, key=lambda n: -split[n]):
        share = split[name] / wall if wall > 0 else 0.0
        lines.append(
            f"  {name:<24}{calls.get(name, ''):>8}{busy.get(name, split[name]):>10.4f}"
            f"{split[name]:>10.4f}{share:>8.1%}"
        )
    lines.append(f"  {'wall':<24}{'':>8}{wall:>10.4f}")
    return lines


def empty_per_layer() -> Dict[str, float]:
    """Every per-layer metric at zero: layers a workload never reaches stay 0."""
    names = [
        "runtime.keys.calls", "runtime.keys.busy_s",
        "circuits.build.calls", "circuits.build.busy_s",
        "runtime.store.get.calls", "runtime.store.get.busy_s", "runtime.store.hit_ratio",
        "runtime.store.put.calls", "runtime.store.put.busy_s", "runtime.store.put.bytes",
        "compiler.compile.calls", "compiler.compile.busy_s",
        *(f"compiler.pass.{name}.busy_s" for name in COMPILE_PASSES),
        "core.simd_schedule.calls", "core.simd_schedule.busy_s",
        "core.sim_cycles", "core.serialization_overhead_mean",
        "backends.noise_model.calls", "backends.noise_model.busy_s",
        "simulation.plan.busy_s", "simulation.plan.statevector",
        "simulation.plan.sparse", "simulation.plan.stabilizer",
        "simulation.run.busy_s", "simulation.trajectories", "simulation.mean_state_fidelity",
        "runtime.sweep.busy_s", "runtime.sweep.other_s",
        "queue.submit_rpc_ms.p50", "queue.submit_rpc_ms.p90",
        "queue.wait_ms.p50", "queue.wait_ms.p90",
        "queue.execute_ms.p50", "queue.execute_ms.p90",
        "queue.exec_spec_ms.p50", "queue.notify_ms.p50", "queue.residual_ms.mean",
        "queue.polls_per_job", "queue.hit_latency_ms.p50", "queue.miss_latency_ms.p50",
        "other_share", "tracing.overhead",
    ]
    return {name: 0.0 for name in names}


def mean_state_fidelity(rows: Sequence[dict]) -> float:
    values = [row["state_fidelity"] for row in rows if row.get("state_fidelity") is not None]
    return statistics.fmean(values) if values else 0.0


# -- sweep workloads -----------------------------------------------------------


def _sweep(request: inputs.Request, store, fidelity):
    from repro.runtime import SweepGrid, run_sweep

    grid = SweepGrid(
        benchmarks=request.benchmarks,
        backends=request.backends,
        num_qubits=request.num_qubits,
        seeds=(request.seed,),
        fidelity=fidelity,
    )
    return run_sweep(grid, store=store, workers=1)


def _record_pass_times(tracer: layers.Tracer, report) -> None:
    """Per-pass compile wall times from the traces of freshly computed jobs."""
    if not report.num_computed:
        return
    for trace in report.pass_traces():
        for record in trace["passes"]:
            tracer.record(f"pass.{record['pass']}", record["wall_time_s"])


def measure_sweeps(
    run: Run,
    pass_at: Callable[[int], inputs.Request],
    execute: Callable,
    first: int,
    *,
    seconds: Optional[float] = None,
    passes: Optional[int] = None,
    cached: bool,
    fidelity: bool = False,
    expected: Optional[Callable[[int], List[str]]] = None,
    on_pass: Optional[Callable[[int], None]] = None,
) -> Window:
    """Run passes from index ``first`` for ``seconds`` or ``passes``; one request each."""
    window = Window()
    start = time.perf_counter()
    index = first
    while True:
        request = pass_at(index)
        began = time.perf_counter()
        try:
            report = execute(request)
        except Exception as error:  # noqa: BLE001 - a failed request is counted
            run.tally.count(False, f"{request}: {type(error).__name__}: {error}", request.jobs)
            report = None
        window.latencies_s.append(time.perf_counter() - began)
        window.pass_s.append(window.latencies_s[-1])
        window.jobs += request.jobs
        if report is not None:
            hits = report.num_cached if cached else report.num_computed
            if hits != request.jobs:
                run.tally.count(
                    False,
                    f"{request}: {hits} of {request.jobs} jobs "
                    f"{'hit' if cached else 'missed'} the store",
                )
            rows = report.rows
            run.check_rows(
                rows, request.jobs, expected(index) if expected else None, fidelity=fidelity
            )
            if window.passes == 0:
                window.first_pass_rows = rows
        window.passes += 1
        index += 1
        if on_pass is not None:
            on_pass(window.passes)
        if passes is not None:
            if window.passes >= passes:
                break
        elif time.perf_counter() - start >= seconds:
            break
        if run.out_of_time():
            break
    window.wall_s = time.perf_counter() - start
    return window


def _probe_setup(run: Run) -> float:
    output = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"), run.tmp],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    return float(json.loads(output.strip().splitlines()[-1])["setup_s"])


def sweep_workload(run: Run) -> Outcome:
    store, own_setup = sweep_setup(run.tmp)
    setups = [own_setup] + [_probe_setup(run) for _ in range(SETUPS_PER_RUN - 1)]
    from repro.runtime import FidelityOptions, ResultStore

    warm = run.workload == "sweep_warm"
    noisy = run.workload == "noisy_fidelity"
    fidelity = FidelityOptions(trajectories=inputs.NOISY_TRAJECTORIES) if noisy else None
    fill: Dict[int, List[str]] = {}

    def execute(request):
        return _sweep(request, store, fidelity)

    if warm:
        # Fill the store once, untimed; every measured request then hits it.
        for index in range(inputs.WARM_FILL_PASSES):
            rows = execute(inputs.sweep_pass(run.seed, index)).rows
            fill[index] = [checks.canonical(row) for row in rows]

        def pass_at(index):
            return inputs.sweep_pass(run.seed, index % inputs.WARM_FILL_PASSES)

        def expected(index):
            return fill[index % inputs.WARM_FILL_PASSES]
    else:
        def pass_at(index):
            return (inputs.noisy_pass if noisy else inputs.sweep_pass)(run.seed, index)

        expected = None

    measure = dict(cached=warm, fidelity=noisy, expected=expected)
    per_layer = empty_per_layer()
    report: List[str] = []
    if not run.trace:
        window = measure_sweeps(run, pass_at, execute, 0, seconds=run.seconds, **measure)
    else:
        untraced = measure_sweeps(run, pass_at, execute, 0, seconds=run.seconds / 2, **measure)
        tracer = layers.Tracer()
        marks: Dict[str, int] = {}

        def mark_first_pass(done: int) -> None:
            if done == 1:
                marks.update({name: len(values) for name, values in tracer.values.items()})

        traced_sweep = tracer.wrap("runtime.sweep", _sweep)

        def traced_execute(request):
            report = traced_sweep(request, store, fidelity)
            _record_pass_times(tracer, report)
            return report

        layers.install_sweep_layers(tracer)
        try:
            window = measure_sweeps(
                run, pass_at, traced_execute, inputs.TRACED_FIRST_PASS,
                passes=untraced.passes, on_pass=mark_first_pass, **measure,
            )
        finally:
            tracer.restore()
        window.first_pass_rows = untraced.first_pass_rows
        per_layer.update(sweep_layer_metrics(tracer, marks, window.wall_s))
        per_layer["simulation.mean_state_fidelity"] = mean_state_fidelity(
            untraced.first_pass_rows
        )
        per_layer["tracing.overhead"] = window.wall_s / untraced.wall_s - 1.0
        split = tracer.split(window.wall_s)
        report.append(f"{run.workload} traced layer split ({window.passes} passes):")
        report.extend(layer_table(window.wall_s, tracer.busy, tracer.calls, split))
        report.append(f"  tracing.overhead {per_layer['tracing.overhead']:+.1%}")
        if per_layer["other_share"] > OTHER_FLAG_SHARE:
            report.append(f"  FLAG: other is {per_layer['other_share']:.1%} of wall (> 10%)")
    peak = peak_rss_mb_self()

    # Reference check: the default seed's first pass, in a fresh store.
    reference_store = ResultStore(tempfile.mkdtemp(prefix="reference-", dir=run.tmp))
    reference = (inputs.noisy_pass if noisy else inputs.sweep_pass)(inputs.DEFAULT_SEED, 0)
    rows = _sweep(reference, reference_store, fidelity).rows
    if warm:
        rows = _sweep(reference, reference_store, fidelity).rows
    digest = run.check_digest(rows)
    report.extend(latency_lines(f"{run.workload} request latency", window.latencies_s))
    if noisy:
        report.append(
            f"noisy_traj_per_s: "
            f"{window.jobs_per_s * inputs.NOISY_TRAJECTORIES:.2f}"
            f"; mean_state_fidelity (first pass): "
            f"{mean_state_fidelity(window.first_pass_rows):.6f}"
        )
    return Outcome(setups, peak, window, digest, per_layer, report)


def sweep_layer_metrics(
    tracer: layers.Tracer, marks: Dict[str, int], wall: float
) -> Dict[str, float]:
    """Per-layer metrics of a traced sweep window.

    The simulated values (cycles, overhead) cover the first traced pass only,
    which is the same work for a given seed however many passes fit.
    """
    busy, calls, values = tracer.busy, tracer.calls, tracer.values
    metrics: Dict[str, float] = {}
    for span in (
        "runtime.keys", "circuits.build", "runtime.store.get", "runtime.store.put",
        "compiler.compile", "core.simd_schedule", "backends.noise_model",
    ):
        metrics[f"{span}.calls"] = calls.get(span, 0)
        metrics[f"{span}.busy_s"] = busy.get(span, 0.0)
    metrics["runtime.sweep.busy_s"] = busy.get("runtime.sweep", 0.0)
    hits = values.get("store.hit", [])
    metrics["runtime.store.hit_ratio"] = sum(hits) / len(hits) if hits else 0.0
    metrics["runtime.store.put.bytes"] = sum(values.get("store.put.bytes", []))
    for name in COMPILE_PASSES:
        metrics[f"compiler.pass.{name}.busy_s"] = sum(values.get(f"pass.{name}", []))
    first_cycles = values.get("core.cycles", [])[: marks.get("core.cycles", 0)]
    first_overhead = values.get("core.overhead", [])[: marks.get("core.overhead", 0)]
    metrics["core.sim_cycles"] = sum(first_cycles)
    metrics["core.serialization_overhead_mean"] = (
        statistics.fmean(first_overhead) if first_overhead else 0.0
    )
    metrics["simulation.plan.busy_s"] = busy.get("simulation.plan", 0.0)
    for mode in ("statevector", "sparse", "stabilizer"):
        metrics[f"simulation.plan.{mode}"] = values.get("plan.mode", []).count(mode)
    metrics["simulation.run.busy_s"] = busy.get("simulation.run", 0.0)
    metrics["simulation.trajectories"] = sum(values.get("sim.trajectories", []))
    metrics["runtime.sweep.other_s"] = tracer.self_time.get("runtime.sweep", 0.0)
    metrics["other_share"] = tracer.split(wall)["other"] / wall
    return metrics


# -- served --------------------------------------------------------------------


@dataclass
class Daemon:
    process: subprocess.Popen
    client: object
    setup_s: float
    log: object


def _probe_spec():
    from repro.runtime import ExperimentSpec

    return ExperimentSpec(benchmark="bv", backend="digiq-opt8", num_qubits=4, seed=0)


def start_daemon(run: Run, env: Dict[str, str]) -> Daemon:
    """Start ``repro serve``; its set-up ends when it accepts the first job."""
    from repro.queue import QueueClient, QueueStore

    queue_root = tempfile.mkdtemp(prefix="queue-", dir=run.tmp)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=run.tmp)
    log = open(os.path.join(queue_root, "serve.log"), "w")
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.runtime", "serve",
         "--root", queue_root, "--cache-dir", store_dir],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log,
    )
    daemon = Daemon(process, None, 0.0, log)
    try:
        store = QueueStore(queue_root)
        while (info := store.read_daemon()) is None:
            if process.poll() is not None or time.perf_counter() - started > 60:
                raise RuntimeError(f"repro serve did not come up; see {log.name}")
            time.sleep(0.005)
        daemon.client = QueueClient(url=str(info["url"]), timeout_s=30.0)
        probe = daemon.client.submit(_probe_spec())
        daemon.setup_s = time.perf_counter() - started
        probe.result(timeout=JOB_TIMEOUT_S, poll_interval_s=POLL_INTERVAL_S)
    except BaseException:
        stop_daemon(daemon)
        raise
    return daemon


def stop_daemon(daemon: Daemon) -> None:
    """``POST /shutdown``, or kill the daemon if it does not exit in time."""
    try:
        if daemon.client is not None and daemon.process.poll() is None:
            daemon.client.shutdown()
        daemon.process.wait(timeout=30)
    except Exception:  # noqa: BLE001 - whatever went wrong, the daemon must go
        daemon.process.kill()
        daemon.process.wait()
    finally:
        daemon.log.close()


def daemon_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


@dataclass
class Served:
    """One collected served job, with the daemon's timestamps for it."""

    latency_s: float
    submit_s: float
    wait_s: float
    execute_s: float
    exec_spec_s: float
    notify_s: float
    repeat: bool


def served_spec(submission: inputs.Submission):
    from repro.runtime import ExperimentSpec

    return ExperimentSpec(
        benchmark=submission.benchmark,
        backend=submission.backend,
        num_qubits=inputs.SERVED_QUBITS,
        seed=submission.seed,
    )


def serve_one(run: Run, client, submission: inputs.Submission):
    """Submit one spec, collect it; returns (record, row) or None on failure."""
    spec = served_spec(submission)
    began = time.perf_counter()
    try:
        handle = client.submit(spec)
        submitted = time.perf_counter()
        result = handle.result(timeout=JOB_TIMEOUT_S, poll_interval_s=POLL_INTERVAL_S)
        collected = time.perf_counter()
        collected_wall = time.time()
    except Exception as error:  # noqa: BLE001 - a failed job is counted
        run.tally.count(False, f"served {submission}: {type(error).__name__}: {error}")
        return None
    job = handle.job
    record = Served(
        latency_s=collected - began,
        submit_s=submitted - began,
        wait_s=job.started_at - job.submitted_at,
        execute_s=job.finished_at - job.started_at,
        exec_spec_s=result.elapsed_s,
        notify_s=collected_wall - job.finished_at,
        repeat=submission.repeat_of is not None,
    )
    return record, result.row


def drive_clients(run: Run, url: str, first_pass: int, *, seconds=None,
                  passes: Optional[List[int]] = None) -> Tuple[Window, List[Served], List[int]]:
    """Closed-loop clients over whole passes; returns the window, records, passes."""
    from repro.queue import QueueClient

    window = Window(clients=inputs.SERVED_CLIENTS)
    records: List[Served] = []
    done = [0] * inputs.SERVED_CLIENTS
    lock = threading.Lock()
    start = time.perf_counter()

    def client_loop(client_index: int) -> None:
        client = QueueClient(url=url, timeout_s=30.0)
        index = first_pass
        while True:
            rows: List[dict] = []
            began = time.perf_counter()
            for submission in inputs.served_pass(run.seed, client_index, index):
                served = serve_one(run, client, submission)
                if served is None:
                    rows.append({})
                    continue
                record, row = served
                expected = None
                if submission.repeat_of is not None:
                    expected = [checks.canonical(rows[submission.repeat_of])]
                run.check_rows([row], 1, expected)
                rows.append(row)
                with lock:
                    records.append(record)
                    window.latencies_s.append(record.latency_s)
                    window.jobs += 1
            if client_index == 0 and index == first_pass:
                # The fresh rows of the pass: Table IV x designs once each.
                stream = inputs.served_pass(run.seed, client_index, index)
                window.first_pass_rows = [
                    row for row, s in zip(rows, stream) if s.repeat_of is None
                ]
            with lock:
                window.pass_s.append(time.perf_counter() - began)
            done[client_index] += 1
            index += 1
            if passes is not None:
                if done[client_index] >= passes[client_index]:
                    return
            elif time.perf_counter() - start >= seconds:
                return
            if run.out_of_time():
                return

    threads = [
        threading.Thread(target=client_loop, args=(c,), name=f"client-{c}", daemon=True)
        for c in range(inputs.SERVED_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window.wall_s = time.perf_counter() - start
    window.passes = sum(done)
    return window, records, done


def served_layer_metrics(records: List[Served], polls: int) -> Dict[str, float]:
    def ms(values, q):
        return checks.percentile(values, q) * 1e3 if values else 0.0

    misses = [r for r in records if not r.repeat]
    hits = [r for r in records if r.repeat]
    residual = [
        r.latency_s - (r.submit_s + r.wait_s + r.execute_s + r.notify_s) for r in records
    ]
    return {
        "queue.submit_rpc_ms.p50": ms([r.submit_s for r in records], 50),
        "queue.submit_rpc_ms.p90": ms([r.submit_s for r in records], 90),
        "queue.wait_ms.p50": ms([r.wait_s for r in records], 50),
        "queue.wait_ms.p90": ms([r.wait_s for r in records], 90),
        "queue.execute_ms.p50": ms([r.execute_s for r in records], 50),
        "queue.execute_ms.p90": ms([r.execute_s for r in records], 90),
        "queue.exec_spec_ms.p50": ms([r.exec_spec_s for r in misses], 50),
        "queue.notify_ms.p50": ms([r.notify_s for r in records], 50),
        "queue.residual_ms.mean": statistics.fmean(residual) * 1e3 if residual else 0.0,
        "queue.polls_per_job": polls / len(records) if records else 0.0,
        "queue.hit_latency_ms.p50": ms([r.latency_s for r in hits], 50),
        "queue.miss_latency_ms.p50": ms([r.latency_s for r in misses], 50),
    }


def served_workload(run: Run, env: Dict[str, str]) -> Outcome:
    from repro.runtime import execute_spec

    setups = []
    for _ in range(SETUPS_PER_RUN - 1):
        spare = start_daemon(run, env)
        try:
            setups.append(spare.setup_s)
        finally:
            stop_daemon(spare)
    daemon = start_daemon(run, env)
    setups.append(daemon.setup_s)
    url = daemon.client.url
    per_layer = empty_per_layer()
    report: List[str] = []
    try:
        if not run.trace:
            window, records, _ = drive_clients(run, url, 0, seconds=run.seconds)
        else:
            untraced, _, done = drive_clients(run, url, 0, seconds=run.seconds / 2)
            tracer = layers.Tracer()
            layers.install_client_layers(tracer)
            try:
                window, records, _ = drive_clients(
                    run, url, inputs.TRACED_FIRST_PASS, passes=done
                )
            finally:
                tracer.restore()
            window.first_pass_rows = untraced.first_pass_rows
            per_layer.update(served_layer_metrics(records, tracer.calls.get("queue.poll", 0)))
            per_layer["tracing.overhead"] = window.wall_s / untraced.wall_s - 1.0
            total = sum(r.latency_s for r in records)
            split = {
                "queue.submit_rpc": sum(r.submit_s for r in records),
                "queue.wait": sum(r.wait_s for r in records),
                "queue.execute": sum(r.execute_s for r in records),
                "queue.notify": sum(r.notify_s for r in records),
            }
            split = layers.layer_split(total, split)
            per_layer["other_share"] = split["other"] / total
            report.append(
                f"served traced latency split over {len(records)} jobs "
                "(sum of per-job latency; 'other' is the unaccounted residual):"
            )
            report.extend(layer_table(total, {}, {}, split))
            report.append(f"  tracing.overhead {per_layer['tracing.overhead']:+.1%}")
            if abs(per_layer["other_share"]) > OTHER_FLAG_SHARE:
                report.append(f"  FLAG: other is {per_layer['other_share']:.1%} of latency")
        peak = daemon_peak_rss_mb(daemon.process.pid)

        # Served rows must equal a local execution of the same spec.
        fresh = [s for s in inputs.served_pass(run.seed, 0, 0) if s.repeat_of is None]
        for submission, row in list(zip(fresh, window.first_pass_rows))[:LOCAL_SAMPLE]:
            local = execute_spec(served_spec(submission)).row
            run.tally.count(
                checks.canonical(local) == checks.canonical(row),
                f"served row of {submission} differs from local execute_spec",
            )
        # Reference check: the default seed's first pass through the daemon.
        reference_rows = []
        for submission in inputs.served_pass(inputs.DEFAULT_SEED, 0, 0):
            served = serve_one(run, daemon.client, submission)
            reference_rows.append(served[1] if served is not None else {})
        digest = run.check_digest(reference_rows)
    finally:
        stop_daemon(daemon)
    report.extend(latency_lines("served submit->collect latency", window.latencies_s))
    return Outcome(setups, peak, window, digest, per_layer, report)
