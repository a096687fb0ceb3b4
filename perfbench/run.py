"""End-to-end benchmark of the DigiQ pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

Runs one workload of ``BENCHMARK.json`` from the checkout's ``src/`` for
``--seconds`` (whole passes, so the last one may run over), checks every
output, prints a human report, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep_cold", "sweep_warm", "noisy_fidelity", "served")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def isolate(tmp: str) -> dict:
    """Pin the environment so a run touches nothing outside ``tmp``."""
    os.environ.pop("REPRO_TELEMETRY", None)
    os.environ["REPRO_MAX_WORKERS"] = "1"
    os.environ["REPRO_QUEUE_ROOT"] = os.path.join(tmp, "default-queue")
    os.environ["TMPDIR"] = tmp
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    return dict(os.environ)


def metric_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def end_to_end(outcome) -> dict:
    import checks

    window = outcome.window
    normalized = [r["normalized_time"] for r in window.first_pass_rows if "normalized_time" in r]
    return {
        "setup_s": statistics.median(outcome.setups_s),
        "peak_rss_mb": outcome.peak_rss_mb,
        "jobs_per_s": window.jobs_per_s,
        "latency_p90_ms": checks.percentile(window.latencies_s, 90) * 1e3,
        "fig9_norm_time_geomean": checks.geomean(normalized) if normalized else 0.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = metric_spec()
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        env = isolate(tmp)
        import workloads

        run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
        if args.workload == "served":
            outcome = workloads.served_workload(run, env)
        else:
            outcome = workloads.sweep_workload(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.per_layer if args.trace else end_to_end(outcome)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    tally = run.tally
    for line in outcome.report:
        print(line)
    for note in tally.notes:
        print(f"FAILED: {note}")
    print(f"reference digest {outcome.reference_digest}")
    print(f"jobs {outcome.window.jobs} in {outcome.window.passes} passes, "
          f"{outcome.window.wall_s:.3f} s; setups {[round(s, 4) for s in outcome.setups_s]}")
    print(f"pass durations ms {[round(s * 1e3, 1) for s in outcome.window.pass_s]}")
    print(f"error_rate {tally.failed}/{tally.attempted}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
