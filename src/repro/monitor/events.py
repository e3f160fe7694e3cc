"""Bounded, sequence-numbered event log backing ``GET /monitor/events``.

The monitor narrates its lifecycle -- snapshot cut, retrain started,
measures ready, drift alert -- as JSON-able events.  The log is the bridge
between the monitor's worker threads (which emit) and the HTTP layer (which
replays and, with ``follow=true``, tails): every event carries a monotonic
``seq`` so a consumer can resume from the last one it saw, and the buffer is
bounded so an unwatched monitor cannot grow without limit (consumers that
fall behind a full buffer window simply miss the evicted events, like any
ring buffer).
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["MonitorEventLog"]

#: Events the log keeps, oldest evicted first.
MAX_EVENTS = 1024


class MonitorEventLog:
    """Thread-safe ring buffer of monitor events with blocking tail reads."""

    def __init__(self) -> None:
        self._events: deque[dict] = deque(maxlen=MAX_EVENTS)
        self._cond = threading.Condition()
        self._next_seq = 1
        #: Total events ever emitted (not bounded by the buffer).
        self.emitted = 0

    def emit(self, kind: str, **payload) -> dict:
        """Append one event; returns it (with ``seq`` and ``ts`` stamped)."""
        with self._cond:
            event = {"seq": self._next_seq, "ts": round(time.time(), 3),
                     "kind": str(kind), **payload}
            self._next_seq += 1
            self._events.append(event)
            self.emitted += 1
            self._cond.notify_all()
        return event

    def events(self, since: int = 0) -> list[dict]:
        """Snapshot of buffered events with ``seq > since`` (oldest first)."""
        with self._cond:
            return [dict(e) for e in self._events if e["seq"] > since]

    def wait(self, since: int = 0, timeout: float | None = None) -> list[dict]:
        """Block until an event with ``seq > since`` exists (or timeout).

        Returns the matching events -- empty on timeout -- so a streaming
        consumer loops ``events = log.wait(last_seq, 1.0)`` and stays
        responsive to its own cancellation between waits.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                fresh = [dict(e) for e in self._events if e["seq"] > since]
                if fresh:
                    return fresh
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return []
                self._cond.wait(remaining)

    @property
    def last_seq(self) -> int:
        with self._cond:
            return self._next_seq - 1
