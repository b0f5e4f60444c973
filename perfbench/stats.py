"""Statistics rules of the benchmark: tail percentiles, self time, gains.

Pure functions over plain numbers, so the rules can be tested without
running any training.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie strictly beyond a reported tail percentile
MIN_TAIL_SAMPLES = 10


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave ten beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


def union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by ``(start, end)`` intervals, overlaps once."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ns(span: tuple[int, int], children: list[tuple[int, int]]) -> int:
    """A span's duration minus the union of its children, clipped to it."""
    start, end = span
    clipped = [
        (max(s, start), min(e, end)) for s, e in children if e > start and s < end
    ]
    return (end - start) - union_ns(clipped)


def paired_gain(
    parent: list[float], change: list[float], better: str
) -> dict:
    """The rule for claiming a gain from alternating parent/change runs.

    ``parent[i]`` and ``change[i]`` are one pair.  A gain holds when the
    change wins at least nine tenths of all pairs (ties count for
    neither side) and the medians differ, in the better direction, by
    more than the parent's own interquartile distance.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number, two or more, of runs per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    parent_iqr = q3 - q1
    return {
        "pairs": len(parent),
        "wins": wins,
        "median_gap": gap,
        "parent_iqr": parent_iqr,
        "gain": wins * 10 >= 9 * len(parent) and gap > parent_iqr,
    }
