"""What a workload run returns, its failure tally, and its time budget."""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import stats

#: Root of the checkout being measured (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent


class Tally:
    """Operations attempted and failed, with the reasons; safe across threads."""

    def __init__(
        self, attempted: int = 0, failed: int = 0, reasons: dict[str, int] | None = None
    ) -> None:
        self.attempted = attempted
        self.failed = failed
        self.reasons: Counter[str] = Counter(reasons or {})
        self._lock = threading.Lock()

    def record(self, failure: str | None) -> None:
        """Count one operation; ``failure`` says what went wrong, if anything."""
        with self._lock:
            self.attempted += 1
            if failure is not None:
                self.failed += 1
                self.reasons[failure] += 1


def check_body(status: int, body: bytes, expected: bytes | None) -> str | None:
    """Why an answer fails to repeat ``expected`` byte for byte, or None."""
    if status != 200:
        return f"status {status}"
    if body != expected:
        return "body differs"
    return None


class Deadline:
    """The wall-clock budget of one benchmark invocation."""

    def __init__(self, seconds: float) -> None:
        self._end = time.monotonic() + seconds

    def expired(self) -> bool:
        return time.monotonic() >= self._end

    def remaining(self, cap: float | None = None) -> float:
        """Seconds left, at most ``cap``; raises once the budget is spent."""
        left = self._end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run over its time budget")
        return left if cap is None else min(cap, left)


@dataclass
class Context:
    """Where a workload runs: scratch directory, child environment, budget."""

    workdir: Path
    env: dict[str, str]
    deadline: Deadline


#: A wall-clock interval ``(start, end)`` on the ``perf_counter`` clock.
Interval = tuple[float, float]


@dataclass
class Run:
    """Samples of one workload execution; the end-to-end metrics derive from them.

    Every sample is a wall-clock interval, so that it can be measured both
    in wall seconds and in reference seconds (:class:`perfbench.machine.Speed`).
    """

    #: What one latency sample times (a grid record, a /select, a /measure).
    operation: str
    #: Back-to-back set-up repetitions.
    setup: list[Interval]
    latencies: list[Interval]
    #: Operations the throughput counts, over the ``busy`` intervals of load.
    operations: int
    busy: list[Interval]
    peak_rss_mb: float
    tally: Tally
    #: Whether each latency sample is a request much shorter than the speed
    #: probe's interval, so that the few a probe ran into stand out.
    short_requests: bool = False
    #: Per-layer metrics (traced runs only).
    layers: dict[str, float] = field(default_factory=dict)
    #: Layer shares of an end-to-end number, printed beside the metrics.
    attribution: dict[str, float] = field(default_factory=dict)

    def latencies_ms(self, speed, *, scaled: bool = True) -> list[float]:
        """Latency samples in reference ms (``scaled``) or wall ms.

        A short request the speed probe ran in the middle of is left out
        either way: the probe, not the program, delayed it.  Longer samples
        all share their CPU with the probe alike, about 1% of it.
        """
        seconds = speed.seconds if scaled else _wall
        return [
            seconds(a, b) * 1e3 for a, b in self.latencies
            if not (self.short_requests and speed.interrupted(a, b))
        ]

    def end_to_end(self, speed, *, scaled: bool = True) -> dict[str, float]:
        """The end-to-end metrics, in reference seconds (``scaled``) or wall seconds."""
        seconds = speed.seconds if scaled else _wall
        latency = stats.latency_summary(self.latencies_ms(speed, scaled=scaled))
        return {
            "setup_s": stats.median([seconds(a, b) for a, b in self.setup]),
            "throughput_per_s": self.operations / sum(seconds(a, b) for a, b in self.busy),
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "peak_rss_mb": self.peak_rss_mb,
        }


def _wall(start: float, end: float) -> float:
    return end - start
