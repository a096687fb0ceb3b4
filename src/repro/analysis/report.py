"""Plain-text rendering of the reproduced tables and figures.

The benchmark harness and the examples share these helpers to print the
regenerated experiment data in a readable, diff-friendly form (the same rows
and series the paper reports).  Nothing here computes anything new — see
:mod:`repro.analysis.tables` and :mod:`repro.analysis.figures` for the
experiment drivers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    rendered: List[List[str]] = [[_format_value(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max(len(line[idx]) for line in rendered))
        for idx, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[idx]) for idx, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered:
        lines.append("  ".join(cell.ljust(widths[idx]) for idx, cell in enumerate(line)))
    return "\n".join(lines)


def _format_value(value: object) -> str:
    """Human-friendly formatting of one table cell."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.3g}"
    return str(value)


def summarize_fidelity(rows: Sequence[Mapping[str, object]]) -> List[Dict[str, object]]:
    """Aggregate Monte-Carlo fidelity columns over seeds, per benchmark x design.

    Consumes sweep rows carrying the ``success_probability`` /
    ``state_fidelity`` / ``trajectories`` columns produced by fidelity-enabled
    jobs (rows whose device exceeded the simulation cap report null columns
    and are counted as skipped).  Returns one row per (benchmark, backend)
    pair — falling back to the design label for pre-v4 rows without a
    backend column — in first-appearance order.
    """
    grouped: Dict[tuple, Dict[str, object]] = {}
    for row in rows:
        if "success_probability" not in row:
            continue
        key = (row.get("benchmark"), row.get("backend") or row.get("design"))
        bucket = grouped.setdefault(
            key,
            {
                "benchmark": row.get("benchmark"),
                "backend": row.get("backend"),
                "design": row.get("design"),
                "seeds": 0,
                "skipped": 0,
                "success": [],
                "ideal": [],
                "fidelity": [],
                "trajectories": 0,
            },
        )
        bucket["seeds"] += 1
        if row.get("success_probability") is None:
            bucket["skipped"] += 1
            continue
        bucket["success"].append(float(row["success_probability"]))
        bucket["ideal"].append(float(row.get("ideal_success") or 0.0))
        bucket["fidelity"].append(float(row["state_fidelity"]))
        bucket["trajectories"] += int(row.get("trajectories", 0))

    summary = []
    for bucket in grouped.values():
        successes, fidelities = bucket["success"], bucket["fidelity"]
        summary.append(
            {
                "benchmark": bucket["benchmark"],
                "backend": bucket["backend"],
                "design": bucket["design"],
                "seeds": bucket["seeds"],
                "trajectories": bucket["trajectories"],
                "mean_success_probability": (
                    round(sum(successes) / len(successes), 6) if successes else None
                ),
                "min_success_probability": (
                    round(min(successes), 6) if successes else None
                ),
                "ideal_success": (
                    round(sum(bucket["ideal"]) / len(bucket["ideal"]), 6)
                    if bucket["ideal"]
                    else None
                ),
                "mean_state_fidelity": (
                    round(sum(fidelities) / len(fidelities), 6) if fidelities else None
                ),
                "skipped": bucket["skipped"],
            }
        )
    return summary


def summarize_passes(traces: Sequence[Mapping[str, object]]) -> List[Dict[str, object]]:
    """Flatten per-compile-group pass traces into renderable metric rows.

    Consumes the entries of
    :meth:`repro.runtime.dispatch.SweepReport.pass_traces` (one per compile
    group, each carrying the pass records of that compilation) and emits one
    row per executed pass: wall time plus the gate/two-qubit/depth deltas the
    pass produced.  Analysis passes show zero deltas by construction.
    """
    rows: List[Dict[str, object]] = []
    for trace in traces:
        for record in trace.get("passes", ()):
            rows.append(
                {
                    "benchmark": trace.get("benchmark"),
                    "seed": trace.get("seed"),
                    "opt_level": trace.get("opt_level"),
                    "pass": record.get("pass"),
                    "kind": record.get("kind"),
                    "wall_ms": round(float(record.get("wall_time_s", 0.0)) * 1000.0, 3),
                    "gates": record.get("gates_after"),
                    "d_gates": record.get("gates_after", 0) - record.get("gates_before", 0),
                    "d_two_qubit": (
                        record.get("two_qubit_after", 0) - record.get("two_qubit_before", 0)
                    ),
                    "d_depth": record.get("depth_after", 0) - record.get("depth_before", 0),
                }
            )
    return rows


def summarize_primitive_results(results: Iterable[object]) -> List[Dict[str, object]]:
    """Flatten primitive results into renderable report rows.

    Consumes :class:`~repro.primitives.PrimitiveResult` objects (from
    ``Backend.run``, ``Sampler.run`` or ``Estimator.run``) — or bare entry
    objects — and emits one row per executed circuit / estimated observable
    by calling each entry's ``as_row()``.  Mixing result kinds is fine; the
    ``kind`` column says what each row is, and columns missing from a kind
    render as ``None``.
    """
    rows: List[Dict[str, object]] = []
    for result in results:
        entries = getattr(result, "entries", None)
        if entries is None:
            entries = (result,)
        for entry in entries:
            rows.append(entry.as_row())
    if rows:
        # One unioned column order so mixed primitives render as one table.
        columns: List[str] = []
        for row in rows:
            for column in row:
                if column not in columns:
                    columns.append(column)
        rows = [{column: row.get(column) for column in columns} for row in rows]
    return rows


def summarize_backends(
    rows: Sequence[Mapping[str, object]],
    backends: Sequence[object] = (),
    tile_qubits: int = 1024,
) -> List[Dict[str, object]]:
    """The cross-backend comparison table: one row per device, all benchmarks.

    Aggregates sweep rows (which carry a ``backend`` column since schema v4)
    per backend: how many benchmark x seed jobs ran, the mean/worst
    normalized execution time, mean serialization overhead, and — when
    fidelity columns are present — the mean success probability.  Passing the
    sweep's :class:`~repro.backends.Backend` objects appends the hardware
    story (topology, controller power per qubit, and the max system size
    within the 4 K budget), which is what makes "same benchmark, five
    devices" a single readable table.  Every controller is costed at the
    same ``tile_qubits`` tile (the paper's 1024 by default), so identical
    controllers report identical power regardless of a backend's display
    size.
    """
    by_name = {getattr(b, "name", None): b for b in backends}
    has_fidelity = any("success_probability" in row for row in rows)
    grouped: Dict[object, Dict[str, object]] = {}
    for row in rows:
        name = row.get("backend")
        bucket = grouped.setdefault(
            name,
            {
                "backend": name,
                "design": row.get("design"),
                "jobs": 0,
                "normalized": [],
                "serialization": [],
                "success": [],
            },
        )
        bucket["jobs"] += 1
        if row.get("normalized_time") is not None:
            bucket["normalized"].append(float(row["normalized_time"]))
        if row.get("serialization_overhead") is not None:
            bucket["serialization"].append(float(row["serialization_overhead"]))
        if row.get("success_probability") is not None:
            bucket["success"].append(float(row["success_probability"]))

    summary = []
    for bucket in grouped.values():
        normalized, serialization = bucket["normalized"], bucket["serialization"]
        entry: Dict[str, object] = {
            "backend": bucket["backend"],
            "design": bucket["design"],
            "jobs": bucket["jobs"],
            "mean_normalized_time": (
                round(sum(normalized) / len(normalized), 4) if normalized else None
            ),
            "max_normalized_time": round(max(normalized), 4) if normalized else None,
            "mean_serialization_overhead": (
                round(sum(serialization) / len(serialization), 4) if serialization else None
            ),
        }
        if has_fidelity:
            entry["mean_success_probability"] = (
                round(sum(bucket["success"]) / len(bucket["success"]), 6)
                if bucket["success"]
                else None
            )
        backend = by_name.get(bucket["backend"])
        if backend is not None:
            scalability = backend.scalability(tile_qubits=tile_qubits)
            entry["topology"] = backend.topology
            entry["power_per_qubit_mw"] = round(
                scalability.tile_cost.power_per_qubit_mw, 4
            )
            entry["max_qubits_in_budget"] = scalability.max_qubits
        summary.append(entry)
    return summary
