"""Order statistics, span self times and failure arithmetic.

Kept free of su2vol imports so the benchmark's own tests can check the
arithmetic without running a workload.
"""
from __future__ import annotations

import math
import statistics

import numpy as np


def percentile(values, q):
    """q-th percentile (0 <= q <= 100), linear between order statistics.

    Same definition as numpy's default: position (len - 1) * q / 100 in
    the sorted values.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def failed_fraction(attempted, failed):
    """Failed ops over attempted ops; attempted must be positive."""
    if attempted <= 0:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def self_times(start, end, parent):
    """Per-span self time: duration minus the durations of direct children.

    parent[i] is the index of span i's enclosing span, or -1 for a root.
    Children nest inside their parent, so summing direct children covers
    every descendant exactly once.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested],
                          minlength=dur.size)
    return dur - covered
