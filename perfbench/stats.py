"""Order statistics and self-time arithmetic shared by the benchmark.

Percentiles are nearest-rank: a reported value is always one of the
measured samples.  A tail is reported only where the sample leaves at
least :data:`MIN_TAIL_SAMPLES` beyond it, so a handful of slow requests
cannot pose as a p99.  A sample of two or more :data:`TAIL_WINDOW`-sized
windows reports the median of the windows' own tails, so that one burst
of slow requests moves one window, not the figure.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_TAIL_SAMPLES = 10

#: The highest tail reported, once the sample is large enough for it.
MAX_TAIL = 0.99

#: Consecutive samples in one window of a windowed tail: the fewest
#: that support a p99.
TAIL_WINDOW = 1000


def _rank(n: int, q: float) -> int:
    # The epsilon keeps q * n on its integer when binary floating point
    # lands a hair above it (0.99 * 1000).
    return max(1, math.ceil(q * n - 1e-9))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond their nearest-rank ``q``-quantile."""
    return n - _rank(n, q)


def tail_quantile(n: int) -> float:
    """The highest quantile, at most p99, leaving ten of ``n`` samples beyond it.

    That is p99 from 1000 samples on and rank ``n - 10`` below; eleven
    samples are the fewest that support any tail.
    """
    if n <= MIN_TAIL_SAMPLES:
        raise ValueError(
            f"{n} samples leave no {MIN_TAIL_SAMPLES} beyond any percentile"
        )
    if beyond(n, MAX_TAIL) >= MIN_TAIL_SAMPLES:
        return MAX_TAIL
    return (n - MIN_TAIL_SAMPLES) / n


def latency_summary(samples_ms: Sequence[float]) -> dict:
    """Median and supported tail of a latency sample (in arrival order),
    with the sample size and the number of tail windows."""
    windows = len(samples_ms) // TAIL_WINDOW
    if windows < 2:
        windows, tail_samples = 1, [samples_ms]
    else:
        tail_samples = [
            samples_ms[i * TAIL_WINDOW:(i + 1) * TAIL_WINDOW] for i in range(windows)
        ]
    tail = tail_quantile(len(tail_samples[0]))
    return {
        "n": len(samples_ms),
        "p50_ms": nearest_rank(samples_ms, 0.5),
        "tail_q": tail,
        "tail_ms": median([nearest_rank(window, tail) for window in tail_samples]),
        "windows": windows,
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def self_time(total: float, *parts: float) -> float:
    """``total`` minus the parts its callees account for, never below zero.

    The parts are measured separately (and, for medians, from their own
    samples), so noise can make them sum past the total; a negative self
    time would claim that the layer gave time back.
    """
    return max(0.0, total - sum(parts))
