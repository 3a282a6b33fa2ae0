"""Summary statistics of the serving benchmark: percentiles, the
"ten samples beyond" rule, and backlog detection for open-loop steps."""

import math

# Percentiles a latency report may use, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def percentile(values, p):
    """Nearest-rank percentile (p in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples (rounded first,
    so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def median(values):
    ordered = sorted(values)
    m = len(ordered) // 2
    return ordered[m] if len(ordered) % 2 else 0.5 * (ordered[m - 1] + ordered[m])


def tail_percentile(n, beyond=10):
    """The highest candidate percentile with at least `beyond` of `n`
    samples above it, or None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if n - _rank(p, n) >= beyond:
            return p
    return None


def backlog_growing(samples, thirds_ratio=2.0, slack_ms=2.0):
    """True when an open-loop step's latencies climb through the step,
    i.e. requests arrive faster than they are served.

    `samples` are (due_s, latency_ms) pairs in due order. The median latency
    of the last third is compared with that of the first third; a queue
    that only absorbs bursts drains and keeps the two close, a growing one
    makes the last third wait for everything queued before it.
    """
    if len(samples) < 30:
        return False
    third = len(samples) // 3
    first = median([lat for _, lat in samples[:third]])
    last = median([lat for _, lat in samples[-third:]])
    return last > thirds_ratio * first + slack_ms


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))
