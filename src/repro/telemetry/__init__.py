"""Stdlib-only distributed tracing and latency telemetry.

Two halves, both zero-dependency and cheap enough to leave compiled in:

- :mod:`repro.telemetry.trace` — ``span(...)`` context managers collected
  into per-request traces with unique ids, a bounded :class:`TraceBuffer`
  ring with a slow-trace keep-policy, and W3C-ish header propagation
  (``X-Trace-Id`` / ``X-Parent-Span``) so spans recorded in another
  process stitch into the originating trace.
- :mod:`repro.telemetry.metrics` — fixed-bucket mergeable latency
  histograms with p50/p95/p99 estimates and a Prometheus text exposition
  of the whole ``engine.stats()`` counter surface.

When no trace is active a ``span(...)`` costs two clock reads and a
context-variable lookup; histogram observation is a bisect plus an
integer increment under a lock.  Nothing in here touches artifact keys
or numeric code paths, so enabling telemetry can never change
bit-identity.
"""

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS_MS,
    LatencyHistogram,
    MetricsRegistry,
    REGISTRY,
    render_prometheus,
    telemetry_snapshot,
)
from repro.telemetry.trace import (
    PARENT_HEADER,
    REQUEST_ID_HEADER,
    TRACE_HEADER,
    Trace,
    TraceBuffer,
    annotate,
    bind,
    context_from_headers,
    current_trace_id,
    new_trace_id,
    propagation_headers,
    remote_context,
    span,
)

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "LatencyHistogram",
    "MetricsRegistry",
    "PARENT_HEADER",
    "REGISTRY",
    "REQUEST_ID_HEADER",
    "TRACE_HEADER",
    "Trace",
    "TraceBuffer",
    "annotate",
    "bind",
    "context_from_headers",
    "current_trace_id",
    "new_trace_id",
    "propagation_headers",
    "remote_context",
    "render_prometheus",
    "span",
    "telemetry_snapshot",
]
