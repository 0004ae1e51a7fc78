"""Arithmetic shared by the benchmark runner and its compare mode.

Kept free of listrank and numpy imports so that compare.py can use it on
result files alone.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

MIN_PAIRS = 10  # fewer pairs cannot show a gain

# Metrics every run prints and records (in the result's "also") but that
# BENCHMARK.json leaves out, with their unit and direction. The host the
# benchmark was built on switches between a fast and a 1.5x slower regime
# within seconds, which moved their run-to-run spread up to 0.34 and 0.24
# of the median, over the largest bound (0.25) a metric may have.
ALSO_REPORTED = {
    "latency_p50_ms": ("ms", "lower"),
    "items_per_s": ("1/s", "higher"),
}


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else math.inf


def covered_ns(start: int, end: int, children: Iterable[tuple[int, int]]) -> int:
    """Length of the part of [start, end) that the child intervals cover,
    counting overlapping children once."""
    total = 0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            cursor = c_end
    return total


def self_ns(start: int, end: int, children: Iterable[tuple[int, int]]) -> int:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered_ns(start, end, children)


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str) -> str:
    """Classify one metric of one workload from paired runs.

    ``parent[i]`` and ``change[i]`` come from pair i, run on the same
    seed. The change has *improved* when there are at least MIN_PAIRS
    pairs, it wins at least nine tenths of them (ties count for neither
    side), and its median beats the parent's by more than the parent's
    interquartile distance. It is
    *worse* when its median is worse than the parent's by more than
    ``bound`` (a share of the parent's median). When the parent's own
    spread is wider than ``bound``, "no change" cannot be told apart from
    noise, so the metric is *unresolved* unless every change run beats
    every parent run. Otherwise it is *unchanged*.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("verdict needs at least two pairs of equal length")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    gain = sign * (statistics.median(change) - p_med)
    if len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent) and gain > p_q3 - p_q1:
        return "improved"
    if -gain > bound * abs(p_med):
        return "worse"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if relative_spread(parent) > bound and not all_better:
        return "unresolved"
    return "unchanged"
