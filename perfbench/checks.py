"""Output checks and order statistics of the benchmark.

Pure Python on purpose: the checks must not share code with the program
they check, and the tests of this directory run them without the repo's
sources on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, List, Mapping, Optional, Sequence

#: Tail percentiles considered by :func:`tail_percentile`, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples a tail percentile needs beyond it before it is reported.
MIN_BEYOND = 10

#: Largest serialization overhead a DigiQ_min row may show.  DigiQ_min never
#: serializes on bitstream grants, but the scheduler charges one controller
#: cycle to a moment whose only gates are virtual Rz (ideal: zero cycles), so
#: such a moment adds about 1.5e-5 to a 12 or 16 q ``sqrt`` row.
MIN_OVERHEAD_TOLERANCE = 1e-3


def canonical(data: object) -> str:
    """Sorted keys, minimal separators: the form rows are compared in."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def rows_digest(rows: Sequence[Mapping[str, object]]) -> str:
    """SHA-256 of the canonical JSON of a list of result rows."""
    return hashlib.sha256(canonical(list(rows)).encode()).hexdigest()


def row_problems(row: Mapping[str, object]) -> List[str]:
    """Violations of the model invariants by one result row (empty if none).

    * serialization overhead is never negative;
    * DigiQ_min never serializes (up to :data:`MIN_OVERHEAD_TOLERANCE`);
    * fidelity columns, when simulated, lie in [0, 1].
    """
    problems = []
    overhead = row.get("serialization_overhead")
    if not isinstance(overhead, (int, float)) or overhead < 0:
        problems.append(f"serialization_overhead {overhead!r} is not >= 0")
    elif str(row.get("design", "")).startswith("DigiQ_min") and overhead > MIN_OVERHEAD_TOLERANCE:
        problems.append(f"DigiQ_min row serializes ({overhead!r})")
    normalized = row.get("normalized_time")
    if not isinstance(normalized, (int, float)) or not normalized > 0:
        problems.append(f"normalized_time {normalized!r} is not > 0")
    for column in ("state_fidelity", "success_probability"):
        value = row.get(column)
        if value is not None and not 0.0 <= value <= 1.0:
            problems.append(f"{column} {value!r} is outside [0, 1]")
    return problems


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, linearly interpolated between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie strictly above the q-th percentile's rank."""
    if count < 1:
        return 0
    return count - 1 - math.floor((count - 1) * q / 100.0)


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples beyond it."""
    for q in PERCENTILE_LADDER:
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))

