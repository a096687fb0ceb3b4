"""``repro bench`` — the tracked Table IV benchmark harness.

:func:`run_bench` times the paper's six benchmarks (:data:`TABLE_IV_NAMES`)
through the real compile pipeline — and, with ``fidelity=True``, runs each
compiled circuit through the Monte-Carlo trajectory engine — inside a
:func:`repro.telemetry.collecting` window, then folds the aggregated spans
and the metrics delta into a schema-versioned report (:data:`BENCH_SCHEMA`).

:func:`bench_main` (the ``repro bench`` subcommand) writes the report to
``BENCH_<rev>.json`` — ``rev`` defaults to the short git revision — and can
gate CI with ``--check BASELINE``: the run fails when any benchmark's
compile throughput (at both the default level and ``-O2``) — or, for
fidelity runs, its Monte-Carlo trajectory throughput — drops more
than ``--tolerance`` (default 25%) below the committed baseline.  Stages
the baseline predates are skipped with a printed warning, never a failure
(:func:`baseline_stage_gaps`).
``--pass-table`` prints where compile time goes pass by pass, and
``--profile-out PROF`` dumps a cProfile of the whole run for deeper hunts.

Examples::

    python -m repro.runtime bench --quick
    python -m repro.runtime bench --quick --fidelity
    python -m repro.runtime bench --quick --fidelity --rev baseline
    python -m repro.runtime bench --quick --check BENCH_baseline.json
    python -m repro.runtime bench --quick --pass-table --profile-out bench.prof
"""

from __future__ import annotations

import argparse
import json
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

from .. import telemetry
from ..analysis.report import format_table
from ..circuits.benchmarks import TABLE_IV_NAMES, build_benchmark
from ..compiler.pipeline import DEFAULT_OPT_LEVEL, OPT_LEVELS, compile_circuit
from ..simulation.channels import NoiseModel
from ..simulation.engine import run_trajectories
from ..telemetry.summary import aggregate_spans

#: Version tag of the ``BENCH_<rev>.json`` report layout.
BENCH_SCHEMA = "repro-bench/v1"

#: Compile-stage parameters: (device qubits, timed repeats per benchmark).
FULL_PROFILE = {
    "qubits": 16, "repeats": 7, "trajectories": 100, "traj_batch": 25, "sim_qubits": 10,
}
# Quick compiles are a few milliseconds, so the regression gate needs several
# repeats for a stable best-of time; seven keeps the whole suite under a second.
QUICK_PROFILE = {
    "qubits": 8, "repeats": 7, "trajectories": 100, "traj_batch": 25, "sim_qubits": 6,
}

#: Least total time the trajectory stage spends timing one benchmark.
FIDELITY_MIN_TIMED_S = 0.25


def _metrics_delta(
    before: Mapping[str, object], after: Mapping[str, object]
) -> Dict[str, object]:
    """Counter/histogram activity between two registry snapshots.

    The registry is process-global and cumulative, so a bench run embedded
    in a longer process (tests, notebooks) diffs snapshots instead of
    resetting shared state.  Histogram min/max are not invertible across
    snapshots and are dropped; count/total/mean describe the window.
    """
    delta: Dict[str, object] = {"counters": {}, "gauges": dict(after.get("gauges") or {}), "histograms": {}}
    prior = before.get("counters") or {}
    for name, value in (after.get("counters") or {}).items():
        moved = value - prior.get(name, 0)
        if moved:
            delta["counters"][name] = moved
    prior = before.get("histograms") or {}
    for name, summary in (after.get("histograms") or {}).items():
        base = prior.get(name) or {}
        count = summary["count"] - base.get("count", 0)
        if not count:
            continue
        total = summary["total"] - base.get("total", 0.0)
        delta["histograms"][name] = {
            "count": count,
            "total": total,
            "mean": total / count,
        }
    return delta


def bench_compile(
    name: str, num_qubits: int, repeats: int, opt_level: int
) -> Dict[str, object]:
    """Time ``repeats`` full compilations of one benchmark (best-of wins).

    Throughput is derived from the *minimum* wall time — the usual
    microbenchmark convention, and far more stable than the mean under CI
    scheduler noise (which is what ``--check`` compares against).
    """
    circuit = build_benchmark(name, num_qubits=num_qubits, seed=0)
    times: List[float] = []
    gates = depth = None
    for _ in range(repeats):
        start = time.perf_counter()
        compiled = compile_circuit(circuit, seed=0, opt_level=opt_level)
        times.append(time.perf_counter() - start)
        gates = len(compiled.physical_circuit)
        depth = compiled.physical_circuit.depth()
    best = min(times)
    return {
        "benchmark": name,
        "qubits": circuit.num_qubits,
        "gates": gates,
        "depth": depth,
        "repeats": repeats,
        "mean_s": sum(times) / len(times),
        "min_s": best,
        "throughput_per_s": 1.0 / best if best > 0 else None,
    }


def bench_fidelity(
    name: str, sim_qubits: int, trajectories: int, batch_size: int
) -> Dict[str, object]:
    """Trajectory throughput of one benchmark's compiled circuit.

    As in a ``--fidelity`` sweep job, the *physical* circuit the compiler
    emits (routed onto the device, in the ``u3``/``cz`` basis) is what the
    trajectory engine runs, here under a uniform noise model over the
    device.  Only the simulation is timed; the compile is not.  A run
    shorter than :data:`FIDELITY_MIN_TIMED_S` is repeated (same seed, same
    result) until that much time is spent, and the fastest run counts — the
    best-of convention of :func:`bench_compile`, so a 10 ms run is not gated
    on a single noisy sample.
    """
    circuit = build_benchmark(name, num_qubits=sim_qubits, seed=0)
    physical = compile_circuit(circuit, seed=0).physical_circuit
    noise = NoiseModel.uniform(physical.num_qubits)
    times: List[float] = []
    while sum(times) < FIDELITY_MIN_TIMED_S:
        start = time.perf_counter()
        result = run_trajectories(
            physical, noise, num_trajectories=trajectories, seed=0, batch_size=batch_size
        )
        times.append(time.perf_counter() - start)
    wall = min(times)
    return {
        "benchmark": name,
        "qubits": physical.num_qubits,
        "trajectories": result.num_trajectories,
        "repeats": len(times),
        "wall_s": wall,
        "throughput_traj_per_s": result.num_trajectories / wall if wall > 0 else None,
        "state_fidelity": result.state_fidelity,
        "kicks": result.kicks,
    }


def run_bench(
    benchmarks: Sequence[str] = TABLE_IV_NAMES,
    quick: bool = False,
    fidelity: bool = False,
    opt_level: int = DEFAULT_OPT_LEVEL,
    rev: str = "local",
) -> Dict[str, object]:
    """Run the benchmark suite and return the schema-versioned report."""
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    metrics_before = telemetry.snapshot_metrics()
    with telemetry.collecting():
        compile_rows = [
            bench_compile(name, profile["qubits"], profile["repeats"], opt_level)
            for name in benchmarks
        ]
        # -O2 exercises the full pipeline (lookahead routing + fusion) and is
        # regression-gated per benchmark like the default level; when the run
        # already times -O2 the rows are shared instead of re-measured.
        if opt_level == 2:
            compile_o2_rows = compile_rows
        else:
            compile_o2_rows = [
                bench_compile(name, profile["qubits"], profile["repeats"], 2)
                for name in benchmarks
            ]
        fidelity_rows = None
        if fidelity:
            fidelity_rows = [
                bench_fidelity(
                    name,
                    profile["sim_qubits"],
                    profile["trajectories"],
                    profile["traj_batch"],
                )
                for name in benchmarks
            ]
        spans = telemetry.snapshot_spans()
    report: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "rev": rev,
        "quick": quick,
        "params": {
            "benchmarks": list(benchmarks),
            "opt_level": opt_level,
            "qubits": profile["qubits"],
            "repeats": profile["repeats"],
        },
        "compile": compile_rows,
        "compile_o2": compile_o2_rows,
        "telemetry": {
            "spans": aggregate_spans(spans),
            "metrics": _metrics_delta(metrics_before, telemetry.snapshot_metrics()),
        },
    }
    if fidelity_rows is not None:
        report["params"].update(
            {
                "sim_qubits": profile["sim_qubits"],
                "trajectories": profile["trajectories"],
                "traj_batch": profile["traj_batch"],
            }
        )
        report["fidelity"] = fidelity_rows
    return report


#: Regression-gated report stages: (section key, throughput column, label).
#: ``check_regression`` compares these; ``baseline_stage_gaps`` warns when a
#: baseline predates one of them, so a newly added stage lands without a
#: chicken-and-egg baseline edit.
_GATED_STAGES = (
    ("compile", "throughput_per_s", "compile throughput"),
    ("compile_o2", "throughput_per_s", "compile throughput (-O2)"),
    ("fidelity", "throughput_traj_per_s", "trajectory throughput"),
)


def baseline_stage_gaps(
    report: Mapping[str, object], baseline: Mapping[str, object]
) -> List[str]:
    """Warnings for gated stages the baseline predates.

    A stage measured by ``report`` but absent from ``baseline`` (typically a
    freshly added bench section gated before the committed baseline was
    regenerated) cannot be compared; :func:`check_regression` skips it, and
    this returns one human-readable warning per such stage so the skip is
    visible instead of silent.
    """
    return [
        f"baseline predates the '{section}' stage; skipping its {label} gate"
        for section, _column, label in _GATED_STAGES
        if report.get(section) and not baseline.get(section)
    ]


def check_regression(
    report: Mapping[str, object],
    baseline: Mapping[str, object],
    tolerance: float = 0.25,
) -> List[str]:
    """Throughput regressions of ``report`` against ``baseline``.

    Every stage in :data:`_GATED_STAGES` carried by both reports is gated.
    Returns one message per benchmark/stage whose throughput fell more than
    ``tolerance`` (fractional) below the baseline's.  Benchmarks (or whole
    stages) present in only one report are skipped, never a failure —
    adding or dropping a benchmark is not a performance regression, and a
    baseline that predates a new stage must not block landing it (use
    :func:`baseline_stage_gaps` to surface those skips as warnings).
    """
    if baseline.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"baseline schema {baseline.get('schema')!r} != {BENCH_SCHEMA!r}"
        )
    failures = []
    for section, column, label in _GATED_STAGES:
        current = {row["benchmark"]: row for row in report.get(section) or []}
        for base_row in baseline.get(section) or []:
            row = current.get(base_row["benchmark"])
            if row is None:
                continue
            base_tp, new_tp = base_row.get(column), row.get(column)
            if not base_tp or not new_tp:
                continue
            floor = base_tp * (1.0 - tolerance)
            if new_tp < floor:
                failures.append(
                    f"{row['benchmark']}: {label} {new_tp:.2f}/s is "
                    f"{(1.0 - new_tp / base_tp) * 100.0:.0f}% below baseline "
                    f"{base_tp:.2f}/s (tolerance {tolerance * 100.0:.0f}%)"
                )
    return failures


def _git_rev() -> str:
    """Short revision of the working tree, or ``local`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def _compile_table(rows: Sequence[Mapping[str, object]]) -> List[Dict[str, object]]:
    return [
        {
            "benchmark": row["benchmark"],
            "qubits": row["qubits"],
            "gates": row["gates"],
            "mean_ms": f"{row['mean_s'] * 1000.0:.1f}",
            "min_ms": f"{row['min_s'] * 1000.0:.1f}",
            "compiles_per_s": f"{row['throughput_per_s']:.2f}",
        }
        for row in rows
    ]


#: Span-name prefix of the per-pass compile telemetry spans.
_PASS_SPAN_PREFIX = "compile.pass."


def pass_time_table(report: Mapping[str, object]) -> List[Dict[str, object]]:
    """Per-pass wall-time share rows from a bench report's telemetry spans.

    Every compilation is already traced with one ``compile.pass.<Name>``
    span per pass, so the report's aggregated spans directly answer "where
    does compile time go".  ``share`` is each pass's fraction of the total
    time spent inside passes (pipeline overhead outside passes is excluded).
    Rows come pre-sorted by total time, slowest pass first.
    """
    spans = (report.get("telemetry") or {}).get("spans") or []
    pass_rows = [row for row in spans if row["span"].startswith(_PASS_SPAN_PREFIX)]
    total = sum(row["total_s"] for row in pass_rows)
    return [
        {
            "pass": row["span"][len(_PASS_SPAN_PREFIX):],
            "count": row["count"],
            "total_s": f"{row['total_s']:.3f}",
            "mean_ms": f"{row['mean_s'] * 1000.0:.2f}",
            "share": f"{row['total_s'] / total * 100.0:.1f}%" if total else "n/a",
        }
        for row in pass_rows
    ]


def _fidelity_table(rows: Sequence[Mapping[str, object]]) -> List[Dict[str, object]]:
    return [
        {
            "benchmark": row["benchmark"],
            "qubits": row["qubits"],
            "trajectories": row["trajectories"],
            "wall_s": f"{row['wall_s']:.2f}",
            "traj_per_s": f"{row['throughput_traj_per_s']:.1f}",
            "fidelity": f"{row['state_fidelity']:.4f}",
        }
        for row in rows
    ]


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime bench",
        description="Benchmark the Table IV suite and write BENCH_<rev>.json.",
    )
    parser.add_argument(
        "--benchmarks", nargs="+", default=list(TABLE_IV_NAMES), metavar="NAME",
        help=f"benchmarks to time (default: {' '.join(TABLE_IV_NAMES)})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small instances and fewer repeats (the CI profile)",
    )
    parser.add_argument(
        "--fidelity", action="store_true",
        help="also measure Monte-Carlo trajectory throughput per benchmark",
    )
    parser.add_argument(
        "--opt-level", type=int, default=DEFAULT_OPT_LEVEL, choices=OPT_LEVELS,
        help="compiler optimization level to benchmark",
    )
    parser.add_argument(
        "--rev", default=None, metavar="REV",
        help="revision label of the report file (default: short git revision)",
    )
    parser.add_argument(
        "--output-dir", default=".", metavar="DIR",
        help="directory the BENCH_<rev>.json report is written to (default .)",
    )
    parser.add_argument(
        "--pass-table", action="store_true",
        help="print the per-pass compile wall-time share table",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="PROF",
        help="dump a cProfile of the whole bench run to this file "
        "(inspect with `python -m pstats PROF`)",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="fail (exit 1) if compile or trajectory throughput regresses "
        "below this BENCH_*.json baseline by more than --tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRAC",
        help="allowed fractional throughput drop with --check (default 0.25)",
    )
    return parser


def bench_main(argv: Sequence[str]) -> int:
    """Entry point of ``python -m repro.runtime bench ...``."""
    parser = build_bench_parser()
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")

    rev = args.rev if args.rev is not None else _git_rev()
    profiler = None
    if args.profile_out:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    report = run_bench(
        benchmarks=args.benchmarks,
        quick=args.quick,
        fidelity=args.fidelity,
        opt_level=args.opt_level,
        rev=rev,
    )
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(args.profile_out)
    out_path = Path(args.output_dir) / f"BENCH_{rev}.json"
    out_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")

    print(format_table(_compile_table(report["compile"]), title="Compile throughput"))
    if report.get("compile_o2") is not report["compile"]:
        print()
        print(
            format_table(
                _compile_table(report["compile_o2"]), title="Compile throughput (-O2)"
            )
        )
    if "fidelity" in report:
        print()
        print(
            format_table(
                _fidelity_table(report["fidelity"]), title="Trajectory throughput"
            )
        )
    if args.pass_table:
        print()
        print(format_table(pass_time_table(report), title="Compile time by pass"))
    print(f"\nwrote {out_path}")
    if profiler is not None:
        print(f"wrote profile to {args.profile_out}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        for gap in baseline_stage_gaps(report, baseline):
            print(f"WARNING: {gap}")
        failures = check_regression(report, baseline, tolerance=args.tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}")
            return 1
        print(f"throughput within {args.tolerance * 100.0:.0f}% of {args.check}")
    return 0
