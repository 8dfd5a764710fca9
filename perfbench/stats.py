"""Order statistics over per-op wall times.

The host this benchmark was tuned on alternates between fast and slow phases
that last from seconds to minutes, and a slow stretch can cover a whole run.
The median per-op time of a run then depends on how much of the run fell
into a slow phase, and even the run's fastest op depends on whether the run
saw a fast phase at all. The gated ``op_s`` therefore divides each op's wall
time by the time of a fixed reference kernel measured next to it (see
reference.py), takes a low quantile of those ratios, and scales it back to
seconds. The raw fast floor, the median and the tail are reported beside it,
ungated.
"""
from __future__ import annotations

import math
from typing import Sequence

# The quantile of per-op wall times reported as the raw fast floor: the
# minimum below 1000 ops, the n/1000-th fastest op above.
FLOOR_QUANTILE = 0.001
# The quantile of per-op (wall time / reference time) ratios behind op_s.
RATIO_QUANTILE = 0.1

# A tail percentile is reported only with this many samples beyond it.
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 40


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank q-quantile: the smallest value with at least a share
    q of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def fast_floor(values: Sequence[float]) -> float:
    """The FLOOR_QUANTILE nearest-rank percentile of per-op times."""
    return nearest_rank(values, FLOOR_QUANTILE)


def host_corrected(times: Sequence[float], refs: Sequence[float], reference_s: float) -> float:
    """op_s: ``reference_s`` times the RATIO_QUANTILE nearest-rank quantile of
    each op's wall time over the reference time measured next to it: a wall
    time in units of the host's speed."""
    if len(times) != len(refs):
        raise ValueError(f"{len(times)} op times for {len(refs)} reference times")
    return reference_s * nearest_rank([t / r for t, r in zip(times, refs)], RATIO_QUANTILE)


def median(values: Sequence[float]) -> float:
    return nearest_rank(values, 0.5)


def tail(values: Sequence[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has TAIL_BEYOND
    samples above it. Below TAIL_MIN_SAMPLES samples there is no such tail
    worth the name, and the median is returned with percentile 50."""
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return median(values), 50.0
    ordered = sorted(values)
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n
