"""Gate a change on paired perfbench runs against a base commit.

Usage, from the root of a checkout::

    python3 .github/perf_gate.py <base-sha>

Checks the base commit out into a git worktree and runs
``perfbench/run.py --workload W --seed 0 --seconds 5 --trace 0`` on every
workload of ``BENCHMARK.json``, in 5 alternating base/head pairs (the base
runs first on even pairs).  ``run.py`` imports the ``src/`` beside its own
checkout, so base runs time base code.  Each run's result line goes to
``perf-gate-report.jsonl``.

The gate reads each end-to-end metric's direction and bound from
``BENCHMARK.json``.  It fails when a head run is not ``correct`` or has
``failed > 0``, or when a metric's head median is worse than the base median
by more than its bound *and* every head run is worse than every base run.  A
median past its bound without that dominance reads ``unresolved`` and
passes: on one 2-core runner, medians of two identical trees drift by up to
35 %, past the bounds themselves.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = os.path.join(ROOT, ".perf-gate-base")
REPORT = os.path.join(ROOT, "perf-gate-report.jsonl")
PAIRS = 5
RUN_ARGS = ("--seed", "0", "--seconds", "5", "--trace", "0")
RUN_TIMEOUT_S = 300


def result_line(stdout: str):
    """The JSON object on the last line of a ``run.py`` output, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def run_once(root: str, workload: str):
    """Run one perfbench pass from checkout ``root``; its result, or None."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, *RUN_ARGS]
    try:
        done = subprocess.run(
            command, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"  {workload}: no result within {RUN_TIMEOUT_S} s", flush=True)
        return None
    result = result_line(done.stdout) if done.returncode == 0 else None
    if result is None:
        print(f"  {workload}: exit {done.returncode}")
        print(done.stdout[-2000:] + done.stderr[-2000:], flush=True)
    return result


def worse_by(better: str, base: float, head: float) -> float:
    """Relative change of ``head`` against ``base``; positive means worse."""
    delta = head - base if better == "lower" else base - head
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def metric_values(results, name: str) -> list:
    return [r["metrics"][name]["value"] for r in results if name in (r or {}).get("metrics", {})]


def decide(end_to_end, runs):
    """The gate's verdict over parsed runs.

    ``end_to_end`` is ``BENCHMARK.json``'s list of ``{name, better, bound}``;
    ``runs`` holds ``{"workload", "side", "result"}`` records, ``side`` being
    ``"base"`` or ``"head"`` and ``result`` a run's result line (None when the
    run printed none).  Returns ``(rows, failures)``: one row per workload and
    metric with its medians, change and verdict (``ok``, ``unresolved``,
    ``worse``, or ``no base``/``no head`` when one side has no result), and a
    list of reasons the gate fails.
    """
    workloads = list(dict.fromkeys(run["workload"] for run in runs))
    rows, failures = [], []
    for workload in workloads:
        sides = {"base": [], "head": []}
        for run in runs:
            if run["workload"] == workload:
                sides[run["side"]].append(run["result"])
        for index, result in enumerate(sides["head"]):
            if not (result and result.get("correct") is True and result.get("failed") == 0):
                seen = "no result" if result is None else (
                    f"correct {result.get('correct')}, failed {result.get('failed')}"
                )
                failures.append(f"{workload}: head run {index} is not correct ({seen})")
        for metric in end_to_end:
            name = metric["name"]
            base, head = (metric_values(sides[side], name) for side in ("base", "head"))
            if not base or not head:
                verdict = "no base" if not base else "no head"
                rows.append({"workload": workload, "metric": name, "verdict": verdict})
                continue
            base_median, head_median = statistics.median(base), statistics.median(head)
            change = worse_by(metric["better"], base_median, head_median)
            if metric["better"] == "lower":
                dominated = min(head) > max(base)
            else:
                dominated = max(head) < min(base)
            if change <= metric["bound"]:
                verdict = "ok"
            elif dominated:
                verdict = "worse"
                failures.append(
                    f"{workload}: {name} worse by {change:+.1%} (bound {metric['bound']:.0%}) "
                    f"in every pair"
                )
            else:
                verdict = "unresolved"
            rows.append({
                "workload": workload, "metric": name, "base": base_median,
                "head": head_median, "change": change, "verdict": verdict,
            })
    return rows, failures


def format_rows(rows) -> str:
    lines = [f"{'workload':<15} {'metric':<23} {'base':>10} {'head':>10} {'worse by':>9}  verdict"]
    for row in rows:
        numbers = (
            f"{row['base']:>10.4g} {row['head']:>10.4g} {row['change']:>+9.1%}"
            if "change" in row else " " * 31
        )
        lines.append(f"{row['workload']:<15} {row['metric']:<23} {numbers}  {row['verdict']}")
    return "\n".join(lines)


def git(*args: str) -> None:
    subprocess.run(["git", *args], cwd=ROOT, check=True)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if os.path.exists(WORKTREE):
        shutil.rmtree(WORKTREE)
    git("worktree", "prune")
    git("worktree", "add", "--detach", WORKTREE, argv[0])
    runs = []
    try:
        with open(REPORT, "w") as report:
            for workload in (w["name"] for w in spec["workloads"]):
                for pair in range(PAIRS):
                    order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                    for side in order:
                        result = run_once(WORKTREE if side == "base" else ROOT, workload)
                        run = {"workload": workload, "pair": pair, "side": side, "result": result}
                        report.write(json.dumps(run) + "\n")
                        report.flush()
                        runs.append(run)
                    print(f"{workload} pair {pair} done", flush=True)
    finally:
        git("worktree", "remove", "--force", WORKTREE)
    rows, failures = decide(spec["end_to_end"], runs)
    print(format_rows(rows))
    for failure in failures:
        print(f"FAILED: {failure}")
    print("perf gate: " + ("FAIL" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
