"""Statistics and validation helpers of the repo benchmark (see README.md).

Kept free of I/O so perfbench/test_perfbench.py can test them directly.
"""

import math
import re
import statistics

# A metric name starts with a letter or digit and holds at most 64 letters,
# digits, '_', '.' and '-'.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# A unit holds at most 16 letters, digits, '_', '/', '%', '.' and '-'.
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A reported percentile must have at least this many samples above it.
MIN_BEYOND = 10


def valid_metric_name(name):
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT_RE.fullmatch(unit) is not None


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_percentile(values, p=0.95, min_beyond=MIN_BEYOND):
    """The highest percentile q <= p with at least `min_beyond` samples
    strictly beyond its nearest-rank position, and its value.

    With n samples, rank k = ceil(q * n) leaves n - k samples beyond it, so
    q is capped at 1 - min_beyond / n. When even the median does not leave
    `min_beyond` samples beyond it (n < 2 * min_beyond), no tail percentile
    is defensible and the median is returned with q = 0.5.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    q = min(p, 1.0 - min_beyond / n)
    if q < 0.5:
        return 0.5, median(values)
    ordered = sorted(values)
    rank = max(1, math.ceil(q * n - 1e-9))
    return q, ordered[rank - 1]


def quiet_samples(values, steal_pct, max_steal_pct, min_count):
    """The samples taken while the hypervisor stole at most `max_steal_pct`
    of the CPU, when at least `min_count` of them exist; otherwise all of
    them (a machine that is never quiet is measured as it is)."""
    if len(values) != len(steal_pct):
        raise ValueError("every sample needs its steal share")
    quiet = [v for v, s in zip(values, steal_pct) if s <= max_steal_pct]
    return quiet if len(quiet) >= min_count else list(values)


def samples_beyond(values, value):
    return sum(1 for v in values if v > value)


def fail_ratio(failed, attempted):
    """Failed requests over attempted ones; every attempt counts, the cold
    set-up requests included."""
    if attempted <= 0:
        raise ValueError("no request was attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that the spans nested inside it on the same thread cover.

    `spans` is a list of dicts with tid, start_ns and dur_ns; returns a list
    of self times in nanoseconds, aligned with the input.
    """
    by_tid = {}
    for i, s in enumerate(spans):
        by_tid.setdefault(s["tid"], []).append(i)
    result = [0.0] * len(spans)
    for indices in by_tid.values():
        # Parents first: earlier start, and for equal starts the longer one.
        indices.sort(key=lambda i: (spans[i]["start_ns"], -spans[i]["dur_ns"]))
        for pos, i in enumerate(indices):
            start = spans[i]["start_ns"]
            end = start + spans[i]["dur_ns"]
            covered = 0.0
            cursor = start
            for j in indices[pos + 1:]:
                c_start = spans[j]["start_ns"]
                if c_start >= end:
                    break
                c_end = min(c_start + spans[j]["dur_ns"], end)
                if c_end > cursor:
                    covered += c_end - max(c_start, cursor)
                    cursor = c_end
            result[i] = spans[i]["dur_ns"] - covered
    return result


def finite_positive(value):
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0
