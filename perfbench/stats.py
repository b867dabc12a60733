"""Arithmetic shared by the runner, the traced run and the comparison tool.

Standard library only, so it can be imported before gaussify without
pulling in numpy.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

TAIL_MIN_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). The value is the order
    statistic with exactly ten samples above it. With ten or fewer samples
    no such percentile exists and the maximum is returned with percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_MIN_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_MIN_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


# ---------------------------------------------------------------- spans
#
# A span is a dict with keys: id, parent, name, start, end, op, info.


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its direct children.

    Children that ran concurrently (thread-pool sweep points) are merged, so
    overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - union_length(children.get(s["id"], ()))
        for s in spans
    }


def step_counts(spans, leak_threshold: float) -> dict:
    """Distillation-step bookkeeping from the step and run spans.

    A step call is a span named protocol.step_* whose info holds the cutoff
    it ran at and the leak it reported. Inside one protocol.run, a call is an
    adaptive re-run, i.e. wasted work, when the next call of that run has a
    larger cutoff (the step is repeated on a padded state); otherwise it
    completed a step. Step calls outside any run (gaussian-check) complete.
    Leak breaches are counted over completed steps only. A call that raised
    (its span carries info["error"] and no leak) ends its command, which
    fails; it is left out of every count.
    """
    by_id = {s["id"]: s for s in spans}

    def run_ancestor(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == "protocol.run":
                return p
            p = by_id[p]["parent"]
        return None

    steps = [s for s in spans
             if s["name"].startswith("protocol.step_") and "error" not in s["info"]]
    groups = defaultdict(list)
    outside = []
    for s in steps:
        r = run_ancestor(s)
        if r is None:
            outside.append(s)
        else:
            groups[r].append(s)
    completed = []
    for run_id, calls in groups.items():
        calls.sort(key=lambda s: s["start"])
        for cur, nxt in zip(calls, calls[1:] + [None]):
            if nxt is None or nxt["info"]["cutoff"] <= cur["info"]["cutoff"]:
                completed.append(cur)
    completed += outside
    breaches = sum(1 for s in completed if s["info"]["leak"] > leak_threshold)
    cutoffs = [s["info"]["cutoff"] for s in steps]
    return {
        "calls": len(steps),
        "completed": len(completed),
        "breaches": breaches,
        "cutoff_max": max(cutoffs) if cutoffs else 0,
        "cutoff_mean": statistics.fmean(cutoffs) if cutoffs else 0.0,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------- comparison


def pair_wins(parent, change, better: str) -> float:
    """Share of seed-matched pairs the change wins; ties count for neither."""
    pairs = list(zip(parent, change))
    if not pairs:
        return 0.0
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    return wins / len(pairs)


def verdict(parent, change, better: str, bound: float) -> str:
    """improved / no worse / worse / unresolved, by the rules of a paired
    comparison of at least ten runs a side.

    improved: the change wins at least nine tenths of the pairs and the
    medians differ by more than the parent's quartile distance.
    unresolved: either side's quartile spread exceeds the bound, unless every
    change run reads better than every parent run.
    worse: the change's median is worse than the parent's by more than the
    bound (a share of the parent's median).
    """
    sign = -1.0 if better == "lower" else 1.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - pmed)
    if pair_wins(parent, change, better) >= 0.9 and gain > (p3 - p1):
        return "improved"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if all_better:
        return "no worse"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    if -gain > bound * abs(pmed):
        return "worse"
    return "no worse"
