"""``python -m repro.runtime`` — run a benchmark x backend sweep from the shell.

With no arguments the CLI runs the default grid (three Table IV benchmarks x
three DigiQ backends at a small device size), prints cache accounting and a
Fig. 9-style normalized-execution-time table, and leaves every job result in
the on-disk store so the next invocation is pure cache hits.  Sweeping more
than one backend also prints the cross-backend comparison table.

The ``cache`` subcommand inspects and trims the content-addressed result
store shared by sweeps and ``repro.primitives`` sessions, and ``telemetry
summarize`` renders a ``--trace`` / ``REPRO_TELEMETRY`` JSONL trace file as
span and metric tables.  Timing the pipeline is ``perfbench/run.py``'s job
(see ``perfbench/README.md``).

Examples::

    python -m repro.runtime
    python -m repro.runtime --list-backends
    python -m repro.runtime --benchmarks qgan ising bv add1 --configs opt8 min2
    python -m repro.runtime --benchmarks qgan --backend digiq-opt8 \\
        --backend digiq-min2 --backend cryo-cmos-grid
    python -m repro.runtime --qubits 25 --seeds 0 1 2 --workers 4 --power
    python -m repro.runtime --qubits 12 --fidelity --trajectories 200
    python -m repro.runtime --opt-level 2 --pass-metrics
    python -m repro.runtime --format json > sweep.json
    python -m repro.runtime --trace sweep-trace.jsonl
    python -m repro.runtime cache stats
    python -m repro.runtime cache prune --max-entries 1000 --max-bytes 50000000
    python -m repro.runtime telemetry summarize sweep-trace.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..analysis.report import (
    format_table,
    summarize_backends,
    summarize_fidelity,
    summarize_passes,
)
from ..backends import Backend, get_backend, list_backends
from ..circuits.benchmarks import BENCHMARK_NAMES
from ..compiler.layout import LAYOUT_STRATEGIES
from ..compiler.pipeline import DEFAULT_OPT_LEVEL, OPT_LEVELS, PIPELINE_NAMES
from ..simulation.trajectories import DEFAULT_BATCH_SIZE
from .dispatch import SweepReport, run_sweep
from .executor import default_worker_count
from .spec import (
    DEFAULT_BACKEND_NAMES,
    DEFAULT_BENCHMARKS,
    CompileOptions,
    FidelityOptions,
    SweepGrid,
)
from .store import DEFAULT_STORE_DIR, ResultStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Run a cached, parallel DigiQ experiment sweep (Fig. 9 pipeline).",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=list(DEFAULT_BENCHMARKS),
        metavar="NAME",
        help=f"benchmarks to sweep (subset of {', '.join(BENCHMARK_NAMES)})",
    )
    parser.add_argument(
        "--configs",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="legacy DigiQ config specs (<variant><BS>[@g<G>], e.g. opt8 min2 "
        "opt16@g4); each resolves to the matching digiq-* backend",
    )
    parser.add_argument(
        "--backend",
        action="append",
        default=None,
        metavar="NAME",
        dest="backends",
        help="registered backend to sweep (repeatable), e.g. --backend "
        "digiq-opt8 --backend cryo-cmos-grid; see --list-backends",
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="print the backend registry table and exit",
    )
    parser.add_argument(
        "--qubits", type=int, default=16, help="target device size per benchmark (default 16)"
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, default=[0], metavar="SEED",
        help="benchmark/router seeds to sweep (default: 0)",
    )
    parser.add_argument(
        "--layout", default="snake", choices=tuple(sorted(LAYOUT_STRATEGIES)),
        help="initial layout strategy (default snake)",
    )
    parser.add_argument(
        "--routing-trials", type=int, default=2, help="stochastic router trials (default 2)"
    )
    parser.add_argument(
        "--opt-level", type=int, default=DEFAULT_OPT_LEVEL, choices=OPT_LEVELS,
        help="compiler optimization level: 0 paper-faithful, 1 default "
        "(+gate cancellation), 2 aggressive (+lookahead router, "
        "commutation-aware fusion)",
    )
    parser.add_argument(
        "--pipeline", default="default", choices=PIPELINE_NAMES,
        help="router family: 'default' follows --opt-level, or force "
        "'stochastic' / 'lookahead'",
    )
    parser.add_argument(
        "--routing-seed", type=int, default=None, metavar="SEED",
        help="pin the stochastic router's RNG independently of the job seed "
        "(default: use the job seed)",
    )
    parser.add_argument(
        "--pass-metrics", action="store_true",
        help="print the per-pass compile metrics table (wall time and "
        "gate/depth deltas per pass, one block per compiled benchmark)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: min(4, cpu count), or the "
        "REPRO_MAX_WORKERS environment variable; 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_STORE_DIR,
        help=f"result-store directory (default {DEFAULT_STORE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not populate the on-disk result store",
    )
    parser.add_argument(
        "--power", action="store_true",
        help="append the Sec. VI-A.3 power/scalability columns per config",
    )
    parser.add_argument(
        "--fidelity", action="store_true",
        help="run noisy Monte-Carlo trajectories of each compiled circuit and "
        "add success-probability / state-fidelity columns",
    )
    parser.add_argument(
        "--trajectories", type=int, default=100, metavar="N",
        help="Monte-Carlo trajectories per job with --fidelity (default 100)",
    )
    parser.add_argument(
        "--traj-batch", type=int, default=DEFAULT_BATCH_SIZE, metavar="B",
        help=(
            f"trajectories per seeded batch (default {DEFAULT_BATCH_SIZE}); part of "
            "the seeding, so it changes results"
        ),
    )
    parser.add_argument(
        "--noise-seed", type=int, default=0,
        help="seed of the sampled noisy device used by --fidelity (default 0)",
    )
    parser.add_argument(
        "--max-sim-qubits", type=int, default=16, metavar="Q",
        help="skip fidelity simulation of devices beyond this physical size (default 16)",
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table", dest="output_format",
        help="output format (default: aligned table)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL telemetry trace of the sweep (spans + metrics) "
        "to PATH; same effect as setting REPRO_TELEMETRY=PATH",
    )
    return parser


def build_cache_parser() -> argparse.ArgumentParser:
    """Parser of the ``cache`` subcommand (store inspection and pruning)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache-dir", default=DEFAULT_STORE_DIR,
        help=f"result-store directory (default {DEFAULT_STORE_DIR})",
    )
    common.add_argument(
        "--format", choices=("table", "json"), default="table", dest="output_format",
        help="output format (default: aligned table)",
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime cache",
        description="Inspect or trim the content-addressed result store.",
    )
    actions = parser.add_subparsers(dest="action", required=True, metavar="ACTION")
    actions.add_parser(
        "stats",
        parents=[common],
        help="print entry count, total bytes and schema-version histogram",
    )
    prune = actions.add_parser(
        "prune",
        parents=[common],
        help="evict oldest entries until the given limits hold",
    )
    prune.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="keep at most N entries (oldest evicted first)",
    )
    prune.add_argument(
        "--max-bytes", type=int, default=None, metavar="B",
        help="keep at most B bytes of entries (oldest evicted first)",
    )
    prune.add_argument(
        "--queue-root", default=None, metavar="DIR",
        help="queue root whose advisory lock the prune takes (default: "
        "$REPRO_QUEUE_ROOT or ~/.repro/queue); entries of queued/running "
        "jobs are never evicted",
    )
    return parser


def _stats_rows(stats: Dict[str, object]) -> List[Dict[str, object]]:
    """Flatten ``ResultStore.stats()`` into one table row per schema version."""
    versions = stats["schema_versions"] or {"-": 0}
    return [
        {
            "store": stats["root"],
            "schema": schema,
            "entries": count,
            "total_entries": stats["entries"],
            "total_bytes": stats["total_bytes"],
        }
        for schema, count in versions.items()
    ]


def cache_main(argv: Sequence[str]) -> int:
    """Entry point of ``python -m repro.runtime cache ...``."""
    parser = build_cache_parser()
    args = parser.parse_args(argv)
    store = ResultStore(args.cache_dir)

    if args.action == "prune":
        if args.max_entries is None and args.max_bytes is None:
            parser.error("prune needs --max-entries and/or --max-bytes")
        # Serialize against a live repro serve daemon: the prune runs under
        # the queue store's advisory transition lock, and the result entries
        # of queued/running jobs are exempt from eviction (S6).
        from ..queue.store import QueueStore, queue_lock

        queue_store = QueueStore(args.queue_root)
        try:
            with queue_lock(queue_store.root):
                keep = queue_store.active_result_keys()
                removed = store.prune(
                    max_entries=args.max_entries, max_bytes=args.max_bytes, keep=keep
                )
        except ValueError as error:
            parser.error(str(error))
        stats = store.stats()
        if args.output_format == "json":
            print(json.dumps({"removed": removed, "stats": stats}, sort_keys=True, indent=2))
        else:
            print(f"pruned {len(removed)} entries from {stats['root']}")
            print(format_table(_stats_rows(stats), title="Result store"))
        return 0

    stats = store.stats()
    if args.output_format == "json":
        print(json.dumps(stats, sort_keys=True, indent=2))
    else:
        print(format_table(_stats_rows(stats), title="Result store"))
    return 0


def build_telemetry_parser() -> argparse.ArgumentParser:
    """Parser of the ``telemetry`` subcommand (trace-file inspection)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime telemetry",
        description="Inspect JSONL telemetry traces written by --trace / REPRO_TELEMETRY.",
    )
    actions = parser.add_subparsers(dest="action", required=True, metavar="ACTION")
    summarize = actions.add_parser(
        "summarize",
        help="aggregate a trace file into span and metric tables",
    )
    summarize.add_argument(
        "trace", metavar="PATH",
        help="trace file written by a --trace sweep or REPRO_TELEMETRY",
    )
    summarize.add_argument(
        "--format", choices=("table", "json"), default="table", dest="output_format",
        help="output format (default: aligned table)",
    )
    return parser


def telemetry_main(argv: Sequence[str]) -> int:
    """Entry point of ``python -m repro.runtime telemetry ...``."""
    parser = build_telemetry_parser()
    args = parser.parse_args(argv)
    try:
        span_rows, metric_rows, info = telemetry.summarize_trace_file(args.trace)
    except FileNotFoundError:
        parser.error(f"no trace file at {args.trace}")
    except ValueError as error:
        parser.error(str(error))
    if args.output_format == "json":
        print(
            json.dumps(
                {"info": info, "spans": span_rows, "metrics": metric_rows},
                sort_keys=True,
                indent=2,
            )
        )
        return 0
    headline = f"trace {info['path']}: {info['events']} events, {info['spans']} spans"
    if not info["has_metrics"]:
        headline += ", no metrics snapshot"
    print(headline)
    if span_rows:
        print()
        print(format_table(span_rows, title="Spans"))
    if metric_rows:
        print()
        print(format_table(metric_rows, title="Metrics"))
    return 0


def _power_rows(backends: Sequence[Backend], tile_qubits: int) -> List[Dict[str, object]]:
    """Per-backend power/scalability rows from the hardware cost model."""
    return [
        backend.scalability(tile_qubits=tile_qubits).summary() for backend in backends
    ]


def _registry_rows() -> List[Dict[str, object]]:
    """The ``--list-backends`` table: every fixed registry entry."""
    return [
        {
            "backend": backend.name,
            "topology": backend.topology,
            "design": backend.design_label,
            "default_qubits": backend.default_qubits,
            "noise": "calibrated" if backend.calibration_seed is not None else "sampled",
            "description": backend.description,
        }
        for backend in list_backends()
    ]


def render_report(report: SweepReport, elapsed_s: float) -> str:
    """The human-readable sweep banner plus the Fig. 9-style table."""
    summary = report.summary()
    accounting = f"{summary['computed']} computed, {summary['cached']} cached"
    if summary["duplicates"]:
        accounting += f", {summary['duplicates']} duplicate"
    lines = [
        (
            f"sweep: {summary['benchmarks']} benchmarks x {summary['backends']} backends "
            f"x {summary['seeds']} seeds = {summary['jobs']} jobs "
            f"({accounting}) in {elapsed_s:.2f}s"
        ),
        "",
        format_table(report.rows, title="Normalized execution time (Fig. 9)"),
    ]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "telemetry":
        return telemetry_main(argv[1:])
    if argv and argv[0] == "serve":
        from ..queue.cli import serve_main  # deferred: pulls in the queue stack

        return serve_main(argv[1:])
    if argv and argv[0] == "queue":
        from ..queue.cli import queue_main  # deferred: pulls in the queue stack

        return queue_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_backends:
        print(format_table(_registry_rows(), title="Registered backends"))
        return 0

    if not args.fidelity:
        non_defaults = [
            flag
            for flag, value, default in (
                ("--trajectories", args.trajectories, 100),
                ("--traj-batch", args.traj_batch, DEFAULT_BATCH_SIZE),
                ("--noise-seed", args.noise_seed, 0),
                ("--max-sim-qubits", args.max_sim_qubits, 16),
            )
            if value != default
        ]
        if non_defaults:
            parser.error(f"{', '.join(non_defaults)} require(s) --fidelity")

    try:
        backend_specs = list(args.configs or []) + list(args.backends or [])
        if not backend_specs:
            backend_specs = list(DEFAULT_BACKEND_NAMES)
        backends = tuple(get_backend(spec) for spec in backend_specs)
        fidelity = None
        if args.fidelity:
            fidelity = FidelityOptions(
                trajectories=args.trajectories,
                batch_size=args.traj_batch,
                noise_seed=args.noise_seed,
                max_qubits=args.max_sim_qubits,
            )
        grid = SweepGrid(
            benchmarks=tuple(args.benchmarks),
            backends=backends,
            num_qubits=args.qubits,
            seeds=tuple(args.seeds),
            compile_options=CompileOptions(
                layout_strategy=args.layout,
                routing_trials=args.routing_trials,
                opt_level=args.opt_level,
                pipeline=args.pipeline,
                routing_seed=args.routing_seed,
            ),
            fidelity=fidelity,
        )
    except (KeyError, ValueError) as error:
        # KeyError (e.g. BackendNotFoundError) reprs with quotes; unwrap.
        message = error.args[0] if error.args else str(error)
        parser.error(str(message))

    if args.workers is not None:
        workers = args.workers
    else:
        try:
            workers = default_worker_count()
        except ValueError as error:  # malformed REPRO_MAX_WORKERS
            parser.error(str(error))
    if workers < 1:
        parser.error("--workers must be >= 1")

    # --trace wins over the REPRO_TELEMETRY environment variable; either way
    # spans stream to the JSONL sink as they close and the final metrics
    # snapshot is appended before the sink is released.
    if args.trace:
        telemetry.configure_sink(args.trace)
    else:
        telemetry.configure_from_env()

    start = time.perf_counter()
    try:
        if args.no_cache:
            with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
                report = run_sweep(grid, store=ResultStore(scratch), workers=workers)
        else:
            report = run_sweep(grid, store=ResultStore(args.cache_dir), workers=workers)
    finally:
        telemetry.flush_metrics()
        telemetry.close_sink()
    elapsed = time.perf_counter() - start

    if args.output_format == "json":
        payload = {
            "summary": report.summary(),
            "rows": report.rows,
            "backends": summarize_backends(
                report.rows, grid.backends, tile_qubits=max(64, args.qubits)
            ),
        }
        if args.fidelity:
            payload["fidelity_summary"] = summarize_fidelity(report.rows)
        if args.pass_metrics:
            payload["pass_metrics"] = summarize_passes(report.pass_traces())
        if args.power:
            payload["power"] = _power_rows(grid.backends, tile_qubits=max(64, args.qubits))
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0

    print(render_report(report, elapsed))
    if len(grid.backends) > 1:
        print()
        print(
            format_table(
                summarize_backends(
                    report.rows, grid.backends, tile_qubits=max(64, args.qubits)
                ),
                title="Cross-backend comparison",
            )
        )
    if args.fidelity:
        print()
        print(
            format_table(
                summarize_fidelity(report.rows),
                title="End-to-end fidelity (Monte-Carlo trajectories)",
            )
        )
    if args.pass_metrics:
        print()
        print(
            format_table(
                summarize_passes(report.pass_traces()),
                title=f"Per-pass compile metrics (-O{args.opt_level})",
            )
        )
    if args.power:
        print()
        print(
            format_table(
                _power_rows(grid.backends, tile_qubits=max(64, args.qubits)),
                title="Controller power & scalability (Sec. VI-A.3)",
            )
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
