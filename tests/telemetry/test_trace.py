"""Span trees, context propagation, and the bounded trace ring."""

import concurrent.futures
import os
import re

import pytest

from repro.telemetry import trace as trace_module
from repro.telemetry.metrics import MetricsRegistry, REGISTRY
from repro.telemetry.trace import (
    NOOP_SPAN,
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


class TestSpans:
    def test_noop_without_active_trace(self):
        with span("anything") as handle:
            assert handle is NOOP_SPAN
        assert current_trace_id() is None

    def test_nesting_builds_a_tree(self):
        trace = Trace("root")
        with trace.active():
            with span("outer") as outer:
                with span("inner") as inner:
                    pass
        rows = {row["name"]: row for row in trace.span_rows()}
        assert set(rows) == {"root", "outer", "inner"}
        assert rows["outer"]["parent_id"] == rows["root"]["span_id"]
        assert rows["inner"]["parent_id"] == rows["outer"]["span_id"]
        assert rows["inner"]["duration_ms"] is not None

    def test_exception_marks_span_and_propagates(self):
        trace = Trace("root")
        with pytest.raises(RuntimeError):
            with trace.active():
                with span("failing"):
                    raise RuntimeError("boom")
        failing = next(r for r in trace.span_rows() if r["name"] == "failing")
        assert failing["attrs"]["error"] == "RuntimeError"

    def test_metric_observed_even_untraced(self):
        registry = MetricsRegistry()
        # span() always feeds the global REGISTRY; point a throwaway name at it.
        before = REGISTRY.get("phase", "unit-test-op")
        assert before is None or before.count == 0
        with span("op", metric="phase", label="unit-test-op"):
            pass
        hist = REGISTRY.get("phase", "unit-test-op")
        assert hist is not None and hist.count >= 1
        del registry

    def test_annotate_targets_innermost_span(self):
        trace = Trace("root")
        with trace.active():
            with span("child"):
                annotate(flag=True)
            annotate(at_root=1)
        rows = {row["name"]: row for row in trace.span_rows()}
        assert rows["child"]["attrs"]["flag"] is True
        assert rows["root"]["attrs"]["at_root"] == 1

    def test_max_spans_truncates_not_grows(self, monkeypatch):
        monkeypatch.setattr(trace_module, "MAX_SPANS", 4)
        trace = Trace("root")
        with trace.active():
            for _ in range(10):
                with span("s"):
                    pass
        assert len(trace.span_rows()) == 4
        assert trace.truncated == 7      # 10 attempted + root kept - 4 slots


class TestTraceIds:
    def test_ids_are_distinct_lowercase_hex(self):
        ids = [new_trace_id() for _ in range(10_000)]
        assert len(set(ids)) == len(ids)
        assert all(re.fullmatch(r"[0-9a-f]{32}", trace_id) for trace_id in ids)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_shares_no_id_with_its_parent(self):
        # A generator whose state the child inherits would mint the
        # parent's next ids in the child too.
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:                                  # the child
            status = 1
            try:
                os.close(read_end)
                ids = "\n".join(new_trace_id() for _ in range(1000))
                with os.fdopen(write_end, "w") as out:
                    out.write(ids)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        parent_ids = {new_trace_id() for _ in range(1000)}
        with os.fdopen(read_end) as source:
            child_ids = set(source.read().split("\n"))
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert len(child_ids) == len(parent_ids) == 1000
        assert not parent_ids & child_ids


class TestPropagation:
    def test_bind_carries_context_across_threads(self):
        trace = Trace("root")
        with trace.active():
            with concurrent.futures.ThreadPoolExecutor(1) as pool:
                unbound = pool.submit(current_trace_id).result()
                bound = pool.submit(bind(current_trace_id)).result()
        assert unbound is None
        assert bound == trace.trace_id

    def test_headers_roundtrip(self):
        trace = Trace("root")
        with trace.active():
            headers = propagation_headers()
        lowered = {k.lower(): v for k, v in headers.items()}
        trace_id, parent_id = context_from_headers(lowered)
        assert trace_id == trace.trace_id
        assert parent_id == trace.root.span_id

    def test_request_id_header_is_a_fallback_trace_id(self):
        trace_id, _ = context_from_headers({"x-request-id": "abc123"})
        assert trace_id == "abc123"
        # X-Trace-Id wins over X-Request-Id.
        trace_id, _ = context_from_headers(
            {"x-request-id": "abc123", "x-trace-id": "def456"}
        )
        assert trace_id == "def456"

    def test_hostile_header_values_rejected(self):
        for bad in ("x" * 65, "has space", 'quote"', "new\nline", ""):
            assert context_from_headers({"x-trace-id": bad}) == (None, None)

    def test_remote_context_shape(self):
        assert remote_context() is None
        trace = Trace("root")
        with trace.active():
            ctx = remote_context()
        assert ctx == {"trace_id": trace.trace_id, "parent_span": trace.root.span_id}


class TestTraceBuffer:
    def test_request_retains_and_serves_back(self):
        buffer = TraceBuffer()
        with buffer.request("GET /x", trace_id="a" * 32) as trace:
            with span("work"):
                pass
        assert isinstance(trace, Trace)
        rows = buffer.get("a" * 32)
        assert [r["name"] for r in rows] == ["GET /x", "work"]
        summaries = buffer.recent()
        assert summaries[0]["trace_id"] == "a" * 32
        assert summaries[0]["spans"] == 2

    def test_slow_traces_always_retained(self, monkeypatch):
        # Every request is traced; one that reaches SLOW_MS lands in the
        # slow ring, which the fast traffic after it cannot evict.
        monkeypatch.setattr(trace_module, "RECENT_TRACES", 2)
        monkeypatch.setattr(trace_module, "SLOW_MS", 50.0)
        buffer = TraceBuffer()
        buffer.finish(buffer.start("slow"), duration_ms=75.0)
        for index in range(5):
            with buffer.request(f"fast{index}"):
                pass
        summaries = buffer.recent()
        assert sorted(s["name"] for s in summaries) == ["fast3", "fast4", "slow"]
        assert [s["name"] for s in summaries if s["slow"]] == ["slow"]
        counters = buffer.counters()
        assert (counters["kept"], counters["kept_slow"]) == (5, 1)

    def test_ring_capacity_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(trace_module, "RECENT_TRACES", 3)
        buffer = TraceBuffer()
        for index in range(5):
            with buffer.request(f"r{index}"):
                pass
        names = sorted(s["name"] for s in buffer.recent())
        assert names == ["r2", "r3", "r4"]
        assert buffer.counters()["retained"] == 3

    def test_full_rings_with_a_reused_id_retain_exactly(self, monkeypatch):
        monkeypatch.setattr(trace_module, "RECENT_TRACES", 2)
        monkeypatch.setattr(trace_module, "SLOW_TRACES", 1)
        monkeypatch.setattr(trace_module, "SLOW_MS", 50.0)
        buffer = TraceBuffer()

        def finish(trace_id: str, duration_ms: float) -> None:
            buffer.finish(buffer.start(trace_id, trace_id=trace_id), duration_ms)

        finish("a", 1.0)
        finish("b", 1.0)
        finish("s", 80.0)                         # slow ring: [s]
        assert buffer.counters()["retained"] == 3
        finish("c", 1.0)                          # recent ring: [b, c]
        assert buffer.get("a") is None
        finish("a", 1.0)                          # "a" again, a new trace: [c, a]
        assert buffer.get("b") is None
        assert [row["name"] for row in buffer.get("a")] == ["a"]
        finish("t", 90.0)                         # slow ring: [t]
        assert buffer.get("s") is None
        assert buffer.counters()["retained"] == 3
        finish("d", 1.0)
        finish("e", 1.0)                          # recent ring: [d, e]
        assert buffer.get("a") is None and buffer.get("c") is None
        assert buffer.counters()["retained"] == 3
        assert sorted(s["trace_id"] for s in buffer.recent()) == ["d", "e", "t"]

    def test_ingest_stitches_remote_rows_into_open_trace(self):
        buffer = TraceBuffer()
        with buffer.request("GET /grid", trace_id="b" * 32) as trace:
            remote_rows = [
                {"trace_id": "b" * 32, "span_id": "1" * 16,
                 "parent_id": trace.root.span_id, "name": "worker.group",
                 "start": 0.0, "duration_ms": 5.0, "attrs": {}},
            ]
            assert buffer.ingest(remote_rows) == 1
        rows = buffer.get("b" * 32)
        assert [r["name"] for r in rows] == ["GET /grid", "worker.group"]
        assert buffer.counters()["spans_ingested"] == 1

    def test_subrequest_with_owned_trace_id_joins_instead_of_clobbering(self):
        # A request arriving with the id of a trace this buffer already
        # owns (e.g. a worker fetching artifacts with the grid's headers)
        # must join it as a child span — a rival trace under the same id
        # would clobber the root and orphan spans ingested afterwards.
        buffer = TraceBuffer()
        with buffer.request("GET /grid", trace_id="e" * 32) as root:
            sub = buffer.request("GET /artifacts", trace_id="e" * 32)
            with sub as subtrace:
                assert subtrace.trace_id == "e" * 32
                with span("store.get"):
                    pass
            # The root is still the one open trace under that id, so late
            # remote spans attach to it, not to a doomed rival.
            assert buffer.ingest([
                {"trace_id": "e" * 32, "span_id": "3" * 16,
                 "parent_id": root.root.span_id, "name": "worker.group",
                 "start": 0.0, "duration_ms": 5.0, "attrs": {}},
            ]) == 1
        names = [r["name"] for r in buffer.get("e" * 32)]
        assert names[0] == "GET /grid"
        assert {"GET /artifacts", "store.get", "worker.group"} <= set(names)
        counters = buffer.counters()
        assert counters["joined"] == 1
        assert counters["kept"] == 1          # one trace retained, not two

    def test_ingest_for_unknown_trace_counts_dropped(self):
        buffer = TraceBuffer()
        dropped = [{"trace_id": "c" * 32, "span_id": "2" * 16, "name": "x",
                    "start": 0.0, "duration_ms": 1.0, "attrs": {}}]
        assert buffer.ingest(dropped) == 0
        assert buffer.counters()["spans_dropped"] == 1

    def test_add_span_records_pretimed_span(self):
        buffer = TraceBuffer()
        with buffer.request("GET /grid", trace_id="d" * 32):
            assert buffer.add_span("d" * 32, "cluster.lease_wait",
                                   123.0, 42.0, worker="w1")
            assert not buffer.add_span("nope", "x", 0.0, 0.0)
        wait = next(r for r in buffer.get("d" * 32)
                    if r["name"] == "cluster.lease_wait")
        assert wait["duration_ms"] == 42.0
        assert wait["attrs"]["worker"] == "w1"
