"""Spans, trace context propagation, and the bounded trace ring.

A *trace* is the tree of timed spans behind one request, identified by a
32-hex trace id.  The active trace travels in a :mod:`contextvars`
variable, so ``span("pipeline.train", ...)`` deep inside the pipeline
attaches to whatever request is executing — and is a near-free no-op
(one context-variable read, two clock reads) when nothing is tracing.

Crossing boundaries:

- **threads** — executors do not copy context; wrap the callable with
  :func:`bind` before submitting it.
- **HTTP** — :func:`propagation_headers` yields ``X-Trace-Id`` /
  ``X-Parent-Span`` headers for outbound requests;
  :func:`context_from_headers` recovers them server-side.
- **processes** — a worker builds a standalone :class:`Trace` from the
  ``trace`` dict in its lease, records spans locally, and ships the rows
  back with its completion; :meth:`TraceBuffer.ingest` stitches them
  into the originating trace.

:class:`TraceBuffer` retains finished traces in two bounded rings — a
*recent* ring and a *slow* ring that keeps traces whose root reached
:data:`SLOW_MS` apart from fast traffic — serving ``/trace/recent`` and
``/trace/<id>``.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.telemetry.metrics import REGISTRY

TRACE_HEADER = "X-Trace-Id"
PARENT_HEADER = "X-Parent-Span"
REQUEST_ID_HEADER = "X-Request-Id"

#: The inbound context headers as :func:`context_from_headers` looks them up.
_TRACE_KEY = TRACE_HEADER.lower()
_PARENT_KEY = PARENT_HEADER.lower()
_REQUEST_ID_KEY = REQUEST_ID_HEADER.lower()

_TRACE_ID_OK = frozenset("0123456789abcdefABCDEF-_.")

#: Spans one trace keeps; spans beyond it are counted as ``truncated``.
MAX_SPANS = 512
#: Finished traces the recent ring keeps, oldest evicted first.
RECENT_TRACES = 256
#: Finished slow traces the slow ring keeps, oldest evicted first.
SLOW_TRACES = 64
#: Root latency (ms) from which a finished trace goes to the slow ring.
SLOW_MS = 500.0


def new_trace_id() -> str:
    """A fresh trace id: 32 lowercase hex digits from ``os.urandom``.

    Ids must be unguessable, not merely unique: :meth:`TraceBuffer.start`
    joins any open or retained trace whose id a request carries, so a
    counter would let one client predict the id of another client's next
    trace and claim it first.  The kernel's generator is also fork-safe:
    a forked worker shares no state with its parent that could repeat an
    id.  Ids are not secret, though -- ``/trace/recent`` lists them.
    """
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return f"{random.getrandbits(64):016x}"


def _clean_id(value: str | None, limit: int = 64) -> str | None:
    """Accept only plausible ids from the wire (bounded, header-safe)."""
    if not value:
        return None
    value = value.strip()
    if not value or len(value) > limit or not set(value) <= _TRACE_ID_OK:
        return None
    return value


class SpanHandle:
    """One timed operation inside a trace.  ``set(**attrs)`` adds detail."""

    __slots__ = ("name", "span_id", "parent_id", "start", "duration_ms", "attrs")

    def __init__(self, name: str, parent_id: str | None, attrs: dict | None = None):
        self.name = name
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.start = time.time()
        self.duration_ms: float | None = None
        self.attrs = dict(attrs) if attrs else {}

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def to_row(self, trace_id: str) -> dict:
        return {
            "trace_id": trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration_ms": round(self.duration_ms, 3) if self.duration_ms is not None else None,
            "attrs": self.attrs,
        }


class _NoopSpan:
    """Shared stand-in yielded by ``span(...)`` when nothing is tracing."""

    __slots__ = ()
    span_id = None

    def set(self, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _Ctx:
    """A trace and the span nested ones attach to; ``with`` makes it current."""

    __slots__ = ("trace", "handle", "token")

    def __init__(self, trace: "Trace", handle: SpanHandle):
        self.trace = trace
        self.handle = handle

    def __enter__(self) -> "Trace":
        self.token = _current.set(self)
        return self.trace

    def __exit__(self, *exc) -> None:
        _current.reset(self.token)


_current: ContextVar[_Ctx | None] = ContextVar("repro_trace_ctx", default=None)


class Trace:
    """A span collector for one trace id; usable with or without a buffer."""

    __slots__ = ("trace_id", "name", "root", "spans", "truncated", "finished", "_lock")

    def __init__(self, name: str, trace_id: str | None = None,
                 parent_id: str | None = None, attrs: dict | None = None):
        self.trace_id = trace_id or new_trace_id()
        self.name = name
        self.truncated = 0
        self.finished = False
        self._lock = threading.Lock()
        self.root = SpanHandle(name, parent_id, attrs)
        self.spans: list[SpanHandle | dict] = [self.root]

    # -- span recording ----------------------------------------------------
    def begin_span(self, name: str, parent_id: str | None, attrs: dict | None) -> SpanHandle:
        handle = SpanHandle(name, parent_id, attrs)
        with self._lock:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(handle)
            else:
                self.truncated += 1
        return handle

    def add_span(self, name: str, start: float, duration_ms: float,
                 parent_id: str | None = None, **attrs) -> None:
        """Record an already-timed span (e.g. coordinator lease wait)."""
        handle = SpanHandle(name, parent_id if parent_id is not None else self.root.span_id, attrs)
        handle.start = start
        handle.duration_ms = duration_ms
        with self._lock:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(handle)
            else:
                self.truncated += 1

    def extend(self, rows: list[dict]) -> int:
        """Stitch span rows recorded in another process into this trace."""
        added = 0
        with self._lock:
            for row in rows:
                if len(self.spans) >= MAX_SPANS:
                    self.truncated += 1
                    continue
                self.spans.append(dict(row, trace_id=self.trace_id))
                added += 1
        return added

    # -- activation --------------------------------------------------------
    def active(self, handle: SpanHandle | None = None) -> _Ctx:
        """Make this trace current so nested ``span(...)`` calls attach."""
        return _Ctx(self, handle or self.root)

    def finish(self, duration_ms: float | None = None) -> None:
        if duration_ms is None:
            duration_ms = (time.time() - self.root.start) * 1e3
        self.root.duration_ms = duration_ms
        self.finished = True

    # -- export ------------------------------------------------------------
    @property
    def duration_ms(self) -> float | None:
        return self.root.duration_ms

    def span_rows(self, include_root: bool = True) -> list[dict]:
        with self._lock:
            spans = list(self.spans)
        rows = []
        for entry in spans:
            if not include_root and entry is self.root:
                continue
            rows.append(entry.to_row(self.trace_id) if isinstance(entry, SpanHandle) else entry)
        return rows

    def summary(self) -> dict:
        with self._lock:
            n_spans = len(self.spans)
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.root.start,
            "duration_ms": self.root.duration_ms,
            "spans": n_spans,
            "truncated": self.truncated,
            "slow": bool(self.root.attrs.get("slow")),
        }


class SubTrace:
    """A child view over an already-open trace.

    A sub-request that arrives carrying the id of a trace this process
    owns (e.g. a worker fetching artifacts with the grid's trace headers)
    *joins* it as a child span instead of opening a competing trace under
    the same id — which would clobber the root in the buffer and orphan
    every span stitched afterwards.
    """

    __slots__ = ("trace", "root")

    def __init__(self, trace: Trace, handle: SpanHandle):
        self.trace = trace
        self.root = handle

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    def active(self):
        return self.trace.active(self.root)

    def finish(self, duration_ms: float | None = None) -> None:
        if duration_ms is None:
            duration_ms = (time.time() - self.root.start) * 1e3
        self.root.duration_ms = duration_ms


# --------------------------------------------------------------------------
# Module-level helpers: the instrumentation surface
# --------------------------------------------------------------------------

@contextmanager
def span(name: str, metric: str | None = None, label: str | None = None, **attrs):
    """Time a block; attach to the current trace and/or a histogram.

    ``metric``/``label`` route the duration into ``REGISTRY`` (e.g.
    ``metric="phase", label="train"``) regardless of whether a trace is
    active, so latency histograms populate outside requests too.
    With no active trace and no metric this is a near-free no-op.
    """
    ctx = _current.get()
    start = time.perf_counter()
    if ctx is None:
        try:
            yield NOOP_SPAN
        finally:
            if metric is not None:
                REGISTRY.observe(metric, label or name, (time.perf_counter() - start) * 1e3)
        return
    handle = ctx.trace.begin_span(name, parent_id=ctx.handle.span_id, attrs=attrs)
    token = _current.set(_Ctx(ctx.trace, handle))
    try:
        yield handle
    except BaseException as exc:
        handle.set(error=type(exc).__name__)
        raise
    finally:
        _current.reset(token)
        duration = (time.perf_counter() - start) * 1e3
        handle.duration_ms = duration
        if metric is not None:
            REGISTRY.observe(metric, label or name, duration)


def annotate(**attrs) -> None:
    """Set attributes on the innermost active span (no-op when untraced)."""
    ctx = _current.get()
    if ctx is not None:
        ctx.handle.set(**attrs)


def current_trace_id() -> str | None:
    ctx = _current.get()
    return ctx.trace.trace_id if ctx is not None else None


def bind(fn):
    """Wrap ``fn`` to carry the current trace context into another thread."""
    ctx = _current.get()
    if ctx is None:
        return fn

    def bound(*args, **kwargs):
        token = _current.set(ctx)
        try:
            return fn(*args, **kwargs)
        finally:
            _current.reset(token)

    return bound


def propagation_headers() -> dict:
    """Outbound HTTP headers carrying the current trace context."""
    ctx = _current.get()
    if ctx is None:
        return {}
    return {TRACE_HEADER: ctx.trace.trace_id, PARENT_HEADER: ctx.handle.span_id or ""}


def context_from_headers(headers: dict) -> tuple[str | None, str | None]:
    """``(trace_id, parent_span_id)`` from inbound (lowercased) headers."""
    trace_id = _clean_id(headers.get(_TRACE_KEY)) or _clean_id(
        headers.get(_REQUEST_ID_KEY))
    return trace_id, _clean_id(headers.get(_PARENT_KEY))


def remote_context() -> dict | None:
    """The current context as a JSON-safe dict (for lease payloads)."""
    ctx = _current.get()
    if ctx is None:
        return None
    return {"trace_id": ctx.trace.trace_id, "parent_span": ctx.handle.span_id}


class _RequestScope:
    """``with buffer.request(...) as trace:`` -- see :meth:`TraceBuffer.request`."""

    __slots__ = ("buffer", "name", "trace_id", "parent_id", "attrs",
                 "trace", "active", "start")

    def __init__(self, buffer: "TraceBuffer", name: str, trace_id: str | None,
                 parent_id: str | None, attrs: dict):
        self.buffer = buffer
        self.name = name
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.attrs = attrs

    def __enter__(self) -> Trace | SubTrace:
        self.trace = trace = self.buffer.start(
            self.name, trace_id=self.trace_id, parent_id=self.parent_id, **self.attrs
        )
        self.start = time.perf_counter()
        self.active = trace.active()
        self.active.__enter__()
        return trace

    def __exit__(self, *exc) -> None:
        try:
            self.active.__exit__(*exc)
        finally:
            self.buffer.finish(self.trace, (time.perf_counter() - self.start) * 1e3)


# --------------------------------------------------------------------------
# Retention: the bounded trace ring
# --------------------------------------------------------------------------

class TraceBuffer:
    """Bounded retention of finished traces with a slow-trace keep-policy.

    Every request is traced.  A trace whose root latency reaches
    :data:`SLOW_MS` is retained in a separate ring that fast traffic cannot
    evict.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open: dict[str, Trace] = {}
        #: Each finished trace enters at most one ring, once.
        self._recent: deque[Trace] = deque()
        self._slow: deque[Trace] = deque()
        self._by_id: dict[str, Trace] = {}
        self._counters = {
            "started": 0, "joined": 0, "kept": 0, "kept_slow": 0,
            "spans_ingested": 0, "spans_dropped": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    def start(self, name: str, trace_id: str | None = None,
              parent_id: str | None = None, **attrs) -> "Trace | SubTrace":
        if trace_id:
            with self._lock:
                owner = self._open.get(trace_id) or self._by_id.get(trace_id)
                if owner is not None:
                    self._counters["joined"] += 1
            if owner is not None:
                handle = owner.begin_span(
                    name, parent_id=parent_id or owner.root.span_id,
                    attrs=dict(attrs) if attrs else None,
                )
                return SubTrace(owner, handle)
        with self._lock:
            self._counters["started"] += 1
            trace = Trace(name, trace_id=trace_id, parent_id=parent_id, attrs=attrs)
            self._open[trace.trace_id] = trace
            return trace

    def finish(self, trace: "Trace | SubTrace",
               duration_ms: float | None = None) -> None:
        trace.finish(duration_ms)
        if isinstance(trace, SubTrace):
            return   # a SubTrace's owner is retained when *it* finishes
        with self._lock:
            self._open.pop(trace.trace_id, None)
            duration = trace.duration_ms or 0.0
            if duration >= SLOW_MS:
                trace.root.set(slow=True)
                self._counters["kept_slow"] += 1
                self._keep_locked(self._slow, SLOW_TRACES, trace)
            else:
                self._counters["kept"] += 1
                self._keep_locked(self._recent, RECENT_TRACES, trace)

    def request(self, name: str, trace_id: str | None = None,
                parent_id: str | None = None, **attrs) -> "_RequestScope":
        """Trace one request end-to-end: start, activate, finish, retain."""
        return _RequestScope(self, name, trace_id, parent_id, attrs)

    def _keep_locked(self, ring: deque[Trace], capacity: int, trace: Trace) -> None:
        ring.append(trace)
        self._by_id[trace.trace_id] = trace
        while len(ring) > capacity:
            evicted = ring.popleft()
            # A later trace may have been kept under the same id (two
            # requests that opened it concurrently); it stays retrievable.
            if self._by_id.get(evicted.trace_id) is evicted:
                del self._by_id[evicted.trace_id]

    # -- stitching ---------------------------------------------------------
    def ingest(self, rows: list[dict]) -> int:
        """Attach span rows shipped from another process to their traces."""
        if not rows:
            return 0
        by_trace: dict[str, list[dict]] = {}
        for row in rows:
            if not isinstance(row, dict):
                continue
            trace_id = _clean_id(str(row.get("trace_id") or ""))
            if trace_id:
                by_trace.setdefault(trace_id, []).append(row)
        added = 0
        for trace_id, trace_rows in by_trace.items():
            with self._lock:
                trace = self._open.get(trace_id) or self._by_id.get(trace_id)
            if trace is None:
                with self._lock:
                    self._counters["spans_dropped"] += len(trace_rows)
                continue
            added += trace.extend(trace_rows)
        with self._lock:
            self._counters["spans_ingested"] += added
        return added

    def add_span(self, trace_id: str | None, name: str, start: float,
                 duration_ms: float, **attrs) -> bool:
        """Record a pre-timed span on an open trace (coordinator-side)."""
        if not trace_id:
            return False
        with self._lock:
            trace = self._open.get(trace_id) or self._by_id.get(trace_id)
        if trace is None:
            return False
        trace.add_span(name, start, duration_ms, **attrs)
        return True

    # -- retrieval ---------------------------------------------------------
    def get(self, trace_id: str) -> list[dict] | None:
        with self._lock:
            trace = self._by_id.get(trace_id) or self._open.get(trace_id)
        return trace.span_rows() if trace is not None else None

    def recent(self, limit: int = 50) -> list[dict]:
        with self._lock:
            traces = [*self._recent, *self._slow]
        ordered = sorted(traces, key=lambda t: t.root.start, reverse=True)
        return [t.summary() for t in ordered[:max(1, int(limit))]]

    def counters(self) -> dict:
        with self._lock:
            out = dict(self._counters)
            out["open"] = len(self._open)
            out["retained"] = len(self._by_id)
            out["slow_ms"] = SLOW_MS
        return out
