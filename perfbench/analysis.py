"""Pure arithmetic over benchmark samples: the tail percentile rule and span self-times."""

from __future__ import annotations

import math
from collections import defaultdict

# Percentiles the tail may be reported at, lowest first.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The p-th percentile by nearest rank: the ceil(p N / 100)-th smallest value."""
    k = max(1, math.ceil(p * len(sorted_values) / 100 - 1e-9))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of n samples beyond its rank, or None."""
    best = None
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100 - 1e-9) >= TAIL_BEYOND:
            best = p
    return best


def tail(values: list[float]) -> tuple[float, str]:
    """(value, label) of the tail latency; falls back to p50 when no percentile qualifies."""
    p = tail_percentile(len(values))
    if p is None:
        return nearest_rank(sorted(values), 50), (
            f"p50 of N={len(values)} (fewer than {2 * TAIL_BEYOND} ops: "
            f"no percentile has {TAIL_BEYOND} beyond it)")
    return nearest_rank(sorted(values), p), f"p{p:g} of N={len(values)}"


def layer_times(names: list[str], spans: list) -> dict[str, list]:
    """Per span name: [calls, self seconds, total seconds].

    A span is (name id, start, end, parent index, ...).  Self time is the
    span's duration minus the durations of its direct children, which run
    one after another and so never overlap.  Total time counts only spans
    with no ancestor of the same name, so recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for name_id, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name_id, start, end, parent, *_) in enumerate(spans):
        duration = end - start
        rec = out[names[name_id]]
        rec[0] += 1
        rec[1] += duration - child[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            rec[2] += duration
    return dict(out)
