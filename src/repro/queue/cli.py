"""``repro serve`` and ``repro queue`` — the daemon and its shell client.

Examples::

    repro serve --port 8765 --budget-w 10 --trace serve-trace.jsonl
    repro queue submit --benchmark qgan --qubits 12 --fidelity --wait
    repro queue submit --benchmark ising --priority deferrable --session bob
    repro queue status j000001-abcd1234
    repro queue collect j000001-abcd1234 --timeout 120
    repro queue cancel j000001-abcd1234
    repro queue stats

The ``queue`` subcommands find the daemon through the queue root's
``daemon.json`` descriptor (same resolution as the server: ``--root``,
then ``REPRO_QUEUE_ROOT``, then ``~/.repro/queue``), so ``repro queue
stats`` reports exactly what ``GET /queue/stats`` on the advertised URL
returns; ``--url`` overrides discovery.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from .. import telemetry
from ..compiler.pipeline import DEFAULT_OPT_LEVEL, OPT_LEVELS
from ..runtime.spec import CompileOptions, ExperimentSpec, FidelityOptions
from .client import QueueClient, QueueServerError
from .model import PRIORITIES
from .scheduler import DEFAULT_QUEUE_WORKERS
from .store import DEFAULT_QUEUE_ROOT


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the durable job-queue daemon (HTTP/JSON API over "
        "the power-aware scheduler).",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help=f"queue root directory (default: $REPRO_QUEUE_ROOT or {DEFAULT_QUEUE_ROOT})",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result store shared with sweeps/sessions "
        "(default: .repro_cache/sweeps)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0: pick a free one; the chosen port is "
        "advertised in the queue root's daemon.json)",
    )
    parser.add_argument(
        "--budget-w", type=float, default=None, metavar="W",
        help="fridge power budget admissions are checked against "
        "(default: the paper's 10 W)",
    )
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_QUEUE_WORKERS, metavar="N",
        help=f"worker processes executing jobs concurrently (default {DEFAULT_QUEUE_WORKERS})",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="S",
        help="scheduler poll interval in seconds (default 0.5)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL telemetry trace (queue.* spans and metrics) to PATH",
    )
    return parser


def serve_main(argv: Sequence[str]) -> int:
    """Entry point of ``repro serve ...``."""
    args = build_serve_parser().parse_args(argv)
    if args.trace:
        telemetry.configure_sink(args.trace)
    from .server import serve  # deferred: pulls in the execution stack

    return serve(
        root=args.root,
        cache_dir=args.cache_dir,
        host=args.host,
        port=args.port,
        budget_w=args.budget_w,
        workers=args.workers,
        poll_interval_s=args.poll_interval,
    )


def _add_connection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url", default=None, metavar="URL",
        help="daemon URL (default: discovered from the queue root's daemon.json)",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="queue root used for daemon discovery "
        f"(default: $REPRO_QUEUE_ROOT or {DEFAULT_QUEUE_ROOT})",
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table", dest="output_format",
        help="output format (default: human-readable)",
    )


def build_queue_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro queue",
        description="Submit to and inspect the repro serve job queue.",
    )
    actions = parser.add_subparsers(dest="action", required=True, metavar="ACTION")

    submit = actions.add_parser("submit", help="enqueue one benchmark job")
    _add_connection_args(submit)
    submit.add_argument("--benchmark", required=True, metavar="NAME")
    submit.add_argument("--backend", default="digiq-opt8", metavar="NAME")
    submit.add_argument("--qubits", type=int, default=16, metavar="N")
    submit.add_argument("--seed", type=int, default=0, metavar="SEED")
    submit.add_argument(
        "--opt-level", type=int, default=DEFAULT_OPT_LEVEL, choices=OPT_LEVELS
    )
    submit.add_argument(
        "--fidelity", action="store_true",
        help="also estimate Monte-Carlo end-to-end fidelity",
    )
    submit.add_argument("--trajectories", type=int, default=100, metavar="N")
    submit.add_argument(
        "--priority", default="batch", choices=PRIORITIES,
        help="admission priority class (default batch)",
    )
    submit.add_argument(
        "--session", default="anonymous", metavar="ID",
        help="client session id for fair-share accounting",
    )
    submit.add_argument(
        "--due-in", type=float, default=None, metavar="S", dest="due_in_s",
        help="deadline in seconds from now (EDD ordering within a priority class)",
    )
    submit.add_argument(
        "--wait", action="store_true", help="block until the job finishes and print its row"
    )
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="give up waiting after S seconds (with --wait)",
    )

    status = actions.add_parser("status", help="one job's current state")
    _add_connection_args(status)
    status.add_argument("job_id", metavar="JOB_ID")

    collect = actions.add_parser("collect", help="wait for and print a job's result row")
    _add_connection_args(collect)
    collect.add_argument("job_id", metavar="JOB_ID")
    collect.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="give up after S seconds (default: wait forever)",
    )

    cancel = actions.add_parser("cancel", help="cancel a not-yet-started job")
    _add_connection_args(cancel)
    cancel.add_argument("job_id", metavar="JOB_ID")

    stats = actions.add_parser("stats", help="live scheduler and queue accounting")
    _add_connection_args(stats)
    return parser


def _client(args: argparse.Namespace) -> QueueClient:
    return QueueClient(url=args.url, root=args.root)


def _print_job(job_dict: Dict[str, object], output_format: str) -> None:
    if output_format == "json":
        print(json.dumps(job_dict, sort_keys=True, indent=2))
        return
    print(
        f"{job_dict['job_id']}: {job_dict['state']} "
        f"(priority={job_dict['priority']}, session={job_dict['session']}, "
        f"benchmark={job_dict['benchmark']}, power={job_dict['power_w']:.6f} W, "
        f"attempts={job_dict['attempts']})"
    )
    if job_dict.get("error"):
        print(f"  error: {job_dict['error']}")


def queue_main(argv: Sequence[str]) -> int:
    """Entry point of ``repro queue ...``."""
    parser = build_queue_parser()
    args = parser.parse_args(argv)
    try:
        client = _client(args)
        if args.action == "submit":
            return _submit(client, args)
        if args.action == "status":
            _print_job(client.job(args.job_id).as_dict(), args.output_format)
            return 0
        if args.action == "collect":
            return _collect(client, args.job_id, args.timeout, args.output_format)
        if args.action == "cancel":
            won = client.cancel(args.job_id)
            job = client.job(args.job_id)
            _print_job(job.as_dict(), args.output_format)
            return 0 if won else 1
        if args.action == "stats":
            return _stats(client, args.output_format)
    except QueueServerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled action {args.action}")  # pragma: no cover


def _submit(client: QueueClient, args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        benchmark=args.benchmark,
        backend=args.backend,
        num_qubits=args.qubits,
        seed=args.seed,
        compile_options=CompileOptions(opt_level=args.opt_level),
        fidelity=(
            FidelityOptions(trajectories=args.trajectories)
            if args.fidelity
            else None
        ),
    )
    handle = client.submit(
        spec,
        priority=args.priority,
        session=args.session,
        due_in_s=args.due_in_s,
    )
    _print_job(handle.job.as_dict(), args.output_format)
    if not args.wait:
        return 0
    return _collect(client, handle.job_id, args.timeout, args.output_format)


def _collect(
    client: QueueClient,
    job_id: str,
    timeout: Optional[float],
    output_format: str,
) -> int:
    handle = client.handle(job_id)
    try:
        result = handle.result(timeout=timeout)
    except TimeoutError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except Exception as error:  # CancelledError / QueueServerError
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    if output_format == "json":
        print(json.dumps(result.as_dict(), sort_keys=True, indent=2))
    else:
        _print_job(handle.job.as_dict(), output_format)
        print(json.dumps(result.row, sort_keys=True, indent=2))
    return 0


def _stats(client: QueueClient, output_format: str) -> int:
    stats = client.stats()
    if output_format == "json":
        print(json.dumps(stats, sort_keys=True, indent=2))
        return 0
    depths = stats.get("depths", {})
    print(f"queue {stats.get('root')} via {client.url}")
    print(
        "  depths: "
        + ", ".join(f"{state}={count}" for state, count in sorted(depths.items()))
    )
    print(
        f"  power: {stats.get('power_in_flight_w', 0)} W in flight "
        f"(peak {stats.get('peak_power_in_flight_w', 0)} W) "
        f"of {stats.get('budget_w', 0)} W budget"
    )
    print(
        f"  workers: {stats.get('max_workers')}  deferrals: {stats.get('deferrals', 0)}  "
        f"cache hits: {stats.get('cache_hits', 0)}"
    )
    return 0
