"""Stdlib-only async HTTP JSON API over the stability service: ``repro-serve``.

Endpoints (GET query parameters and/or a JSON request body; body wins):

* ``GET /healthz`` -- liveness + the served grid configuration.
* ``GET /metrics`` -- engine + serving counters (see ``repro.engine.stats``)
  plus latency histograms (``telemetry``); ``?format=prometheus`` renders
  the same snapshot as Prometheus text exposition for scraping.
* ``GET /trace/recent``, ``GET /trace/<id>`` -- the distributed-tracing
  ring (see :mod:`repro.telemetry`): recent/slow trace summaries, and one
  trace's spans as NDJSON.  Every request opens a root span; inbound
  ``X-Trace-Id`` (or ``X-Request-Id``) joins the caller's trace, and the
  id is echoed back as ``X-Trace-Id`` on every response.
* ``GET|POST /measure?algorithm=cbow&dim=16&precision=4&seed=0`` -- the
  pairwise stability measures of one grid cell.  ``fast=true`` serves the
  quantized-first approximation with per-measure error bounds, escalating
  to the exact float64 path when any bound exceeds ``tolerance`` (default:
  the service's ``fast_tolerance``).  Responses carry an ``ETag`` derived
  from the cell's content-addressed measures key (plus the precision mode
  and tolerance), so an ``If-None-Match`` revalidation answers ``304 Not
  Modified`` *before any numerical work happens* -- the tag is computable
  from keys alone, on the event loop.  The answer is a pure function of
  its tag as well, so each server keeps the bytes of its most recently
  used computed answers (``_MEASURE_BODY_ENTRIES``) under their tags and
  writes a repeat straight from them: no thread hop, service call, store
  lookup or JSON encode (``serving.measure_body_hits`` in ``/metrics``).
* ``GET|POST /select?budget=128&criterion=eis`` -- dimension-precision
  recommendation under a memory budget (bits per word).
* ``GET|POST /grid?dims=8,16&precisions=1,32&stream=...`` -- executes a grid
  and **streams one NDJSON record per line as each cell completes**
  (chunked transfer encoding; ``ordered=false`` for arrival order;
  ``distributed=true`` leases the grid to the ``repro-worker`` fleet
  instead of executing in-process, with an optional JSON ``config`` from a
  remote submitter).  Disconnecting mid-stream cancels the computation at
  the next cell boundary.
* ``POST /cluster/lease|heartbeat|complete``, ``GET /cluster/status`` -- the
  cluster coordinator's worker-facing API (see
  :mod:`repro.cluster.coordinator`): any running instance can lease grid
  cell groups to pull-based workers.  ``GET|POST /cluster/drain`` toggles
  and reports drain mode (no new leases; in-flight work finishes), and
  ``/grid?distributed=true&run_id=...`` re-attaches to an existing run's
  record stream (e.g. one resumed from checkpoints after a restart with
  ``--resume-runs``).
* ``GET|PUT|HEAD|DELETE /artifacts/<kind>/<name>`` -- raw byte access to the
  service's artifact store, so **any running instance is a remote storage
  tier** for other nodes (see
  :class:`~repro.engine.backends.RemoteBackend`): ``GET`` serves a payload
  from any tier (encoding memory-only artifacts on the fly), ``PUT``
  replicates one in, ``HEAD`` probes existence.  Artifact names are content
  hashes, so ``GET``/``HEAD`` responses carry an ``ETag`` (the name) and
  ``Cache-Control: public, max-age=31536000, immutable``, and an
  ``If-None-Match`` hit answers ``304 Not Modified`` without a body --
  artifacts are edge-cacheable by construction.  ``POST /artifacts/batch``
  multi-gets many artifacts in one round trip: the JSON manifest
  ``{"items": [{"kind": ..., "name": ...}, ...]}`` answers a framed stream
  of one JSON header line (``{"kind", "name", "found", "bytes": N}``)
  followed by the ``N`` raw payload bytes and a newline per item (see
  :meth:`~repro.engine.backends.RemoteBackend.get_many`).
* ``POST /monitor/ingest``, ``GET /monitor/status``, ``GET /monitor/events``
  -- the online instability monitor (``--monitor``; see
  :mod:`repro.monitor`): ingest tokenised document batches, read the
  monitor's snapshot/retrain/drift state, and stream its lifecycle events
  (snapshot cut, retrain started, measures ready, drift alert) as NDJSON --
  ``since=<seq>`` replays buffered events, ``follow=true`` tails.

Built on ``asyncio.start_server`` and nothing else -- no third-party web
framework -- so the serving layer runs anywhere the reproduction runs.
Blocking numerical work happens on the service's bounded thread pool; the
event loop only parses requests, derives ``/measure`` tags and shuttles
bytes.  Connections are **keep-alive** (HTTP/1.1 semantics) so a peer's
store tier reuses one TCP connection across artifact fetches, and every
non-streaming request is bounded by a per-request timeout
(``--request-timeout``).  Request *reads* are separately bounded: headers
and body must arrive within a read timeout once the request line lands, and
concurrent connections are capped (503 beyond the cap), so slow clients
cannot pin memory or connection tasks.

Run it::

    repro-serve --port 8732                     # or python -m repro.serving.api
    curl localhost:8732/healthz
    curl -N 'localhost:8732/grid?dims=8&precisions=1,32'
    repro-serve --port 8733 --store-url http://localhost:8732   # warm peer
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import signal
import sys
import threading
import time
from collections import OrderedDict
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Awaitable, Callable
from urllib.parse import parse_qs, unquote, urlsplit

from repro.corpus.synthetic import SyntheticCorpusConfig
from repro.engine.store import ArtifactStore
from repro.linalg import KERNEL_DTYPES, SVD_METHODS, configure_default_policy
from repro.serving.service import ServiceConfig, StabilityService
from repro.telemetry.metrics import REGISTRY, render_prometheus
from repro.telemetry.trace import TRACE_HEADER, bind, context_from_headers
from repro.utils.logging import configure_logging, get_logger

logger = get_logger(__name__)

__all__ = ["StabilityAPIServer", "quick_serve_config", "main"]

_REASONS = {
    200: "OK", 304: "Not Modified", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}
#: Total header bytes per request; a fast client must not be able to buffer
#: unbounded header lines for the whole read-timeout window.
_MAX_HEADER_BYTES = 1 << 14
_MAX_BODY_BYTES = 1 << 20
#: Raw /artifacts payloads (npz embedding pairs) dwarf JSON request bodies.
_MAX_ARTIFACT_BYTES = 1 << 28
#: Computed ``/measure`` bodies one server keeps (least recently used
#: evicted first); at 0.5-1 KB a body the table stays at a few MB.
_MEASURE_BODY_ENTRIES = 4096
#: ``/artifacts/<kind>/<name>``: identifier-safe kind, hex-ish name with the
#: codec suffix -- rejects path traversal and temp-file names by construction.
_ARTIFACT_PATH = re.compile(
    r"^/artifacts/([A-Za-z0-9_\-]{1,64})/([A-Za-z0-9_\-]{1,128}\.(?:json|npz))$"
)
#: Trace id of the request being dispatched -- echoed as ``X-Trace-Id`` on
#: every response written for it (including untraced/NullTrace requests,
#: whose id still lets a client correlate logs) -- and the last status
#: written, read by the access log after the handler returns.  Both are
#: per-task, so concurrent connections never see each other's values.
_RESPONSE_TRACE: ContextVar[str | None] = ContextVar("repro_api_trace", default=None)
_LAST_STATUS: ContextVar[int] = ContextVar("repro_api_status", default=200)


class APIError(Exception):
    """Request error carrying an HTTP status (maps to a JSON error payload)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class _Request:
    method: str
    path: str
    params: dict[str, str | object]
    headers: dict[str, str] = field(default_factory=dict)
    #: Raw request body; only kept for /artifacts requests (PUT payloads).
    body: bytes = b""
    #: Whether the client may reuse this connection for further requests.
    keep_alive: bool = True


@dataclass
class _RawResponse:
    """A handler result carrying ready bytes and its own status and headers.

    Handlers normally return a plain payload dict (written as a 200 JSON
    body); ones serving Prometheus text or stored ``/measure`` bytes, or a
    conditional ``304 Not Modified`` with an empty body, return this.
    """

    status: int
    body: bytes
    content_type: str
    headers: dict[str, str] = field(default_factory=dict)


async def _read_request(
    reader: asyncio.StreamReader,
    idle_timeout: float | None = None,
    read_timeout: float | None = None,
) -> _Request | None:
    """Parse one HTTP/1.1 request (request line, headers, optional body).

    Two clocks bound the read.  ``idle_timeout`` covers only the wait for
    the request line -- the keep-alive idle gap.  ``read_timeout`` covers
    everything after it: a client must deliver its complete headers and
    body (up to 256 MB on /artifacts PUTs) within that window, so slow or
    malicious clients cannot pin buffered bytes and a connection task
    indefinitely by trickling a request.  Either expiry raises
    ``asyncio.TimeoutError`` to the caller, which closes the connection.
    JSON bodies merge into the query parameters (body wins); ``/artifacts``
    bodies stay raw bytes -- they are opaque store payloads.
    """
    line = await asyncio.wait_for(reader.readline(), timeout=idle_timeout)
    if not line:
        return None
    return await asyncio.wait_for(
        _read_request_rest(reader, line), timeout=read_timeout
    )


async def _read_request_rest(
    reader: asyncio.StreamReader, line: bytes
) -> _Request:
    """Headers and body of one request whose request line is ``line``."""
    try:
        method, target, version = line.decode("latin1").split(" ", 2)
    except ValueError as error:
        raise APIError(400, f"malformed request line: {error}") from error
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(header)
        if header_bytes > _MAX_HEADER_BYTES:
            raise APIError(431, f"request headers over {_MAX_HEADER_BYTES} bytes")
        name, _, value = header.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    path = split.path
    params: dict[str, str | object] = {
        key: values[-1] for key, values in parse_qs(split.query).items()
    }
    raw = path.startswith("/artifacts/")
    limit = _MAX_ARTIFACT_BYTES if raw else _MAX_BODY_BYTES
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise APIError(400, "malformed Content-Length header") from None
    if length < 0:
        raise APIError(400, "malformed Content-Length header")
    if length > limit:
        raise APIError(413, f"request body over {limit} bytes")
    body = await reader.readexactly(length) if length else b""
    if body and not raw:
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise APIError(400, f"request body is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise APIError(400, "JSON request body must be an object")
        params.update(payload)
        body = b""
    connection = headers.get("connection", "").lower()
    keep_alive = (
        connection == "keep-alive"
        or (version.strip().upper() == "HTTP/1.1" and connection != "close")
    )
    return _Request(
        method=method.upper(), path=path, params=params,
        headers=headers, body=body, keep_alive=keep_alive,
    )


# -- parameter coercion ---------------------------------------------------------


def _int_param(
    params: dict, name: str, default: int | None = None, *, required: bool = False
) -> int | None:
    # An explicit JSON ``null`` means the same as an absent parameter.
    if params.get(name) is None:
        if required:
            raise APIError(400, f"missing required parameter {name!r}")
        return default
    try:
        return int(params[name])
    except (TypeError, ValueError):
        raise APIError(400, f"parameter {name!r} must be an integer") from None


def _float_param(
    params: dict, name: str, default: float | None = None
) -> float | None:
    if params.get(name) is None:
        return default
    try:
        return float(params[name])
    except (TypeError, ValueError):
        raise APIError(400, f"parameter {name!r} must be a number") from None


def _bool_param(params: dict, name: str, default: bool) -> bool:
    if name not in params:
        return default
    value = params[name]
    if isinstance(value, bool):
        return value
    if str(value).lower() in ("1", "true", "yes", "on"):
        return True
    if str(value).lower() in ("0", "false", "no", "off"):
        return False
    raise APIError(400, f"parameter {name!r} must be a boolean")


def _tuple_param(params: dict, name: str, cast=int) -> tuple | None:
    """A list parameter: JSON array in a body, or comma-separated in a query."""
    if name not in params:
        return None
    value = params[name]
    if isinstance(value, str):
        value = [item for item in value.split(",") if item]
    if not isinstance(value, (list, tuple)) or not value:
        raise APIError(400, f"parameter {name!r} must be a non-empty list")
    try:
        return tuple(cast(item) for item in value)
    except (TypeError, ValueError):
        raise APIError(400, f"parameter {name!r} has non-{cast.__name__} items") from None


def _json_body(payload: dict) -> bytes:
    """The bytes of every JSON response body this server writes."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _etag_matches(if_none_match: str | None, name: str) -> bool:
    """Whether an ``If-None-Match`` header validates the entity tag ``name``.

    Accepts the wildcard ``*``, a comma-separated candidate list, quoted or
    bare tags, and weak validators (``W/"..."`` -- weak comparison is fine:
    the tag is a content hash, so equal tags mean byte-equal payloads).
    """
    if not if_none_match:
        return False
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/") or candidate.startswith("w/"):
            candidate = candidate[2:]
        candidate = candidate.strip('"')
        if candidate == "*" or candidate == name:
            return True
    return False


class StabilityAPIServer:
    """Asyncio HTTP server routing requests to a :class:`StabilityService`.

    Connections are keep-alive: after each response the server waits up to
    ``keepalive_timeout`` seconds for the next request on the same socket, so
    a peer's :class:`~repro.engine.backends.RemoteBackend` fetches hundreds of
    artifacts over one TCP connection.  Non-streaming requests are bounded by
    ``request_timeout`` seconds (``None`` disables); a timed-out request
    answers 504 and closes the connection (the underlying worker thread
    cannot be interrupted, but the socket stops waiting on it).

    Two further bounds protect the event loop from hostile or broken
    clients: once a request line arrives, the complete headers and body must
    follow within ``read_timeout`` seconds (slowloris-style trickled
    requests are dropped instead of pinning buffered bytes), and at most
    ``max_connections`` sockets are served concurrently -- excess
    connections are answered 503 and closed immediately.
    """

    def __init__(
        self,
        service: StabilityService,
        *,
        host: str = "127.0.0.1",
        port: int = 8732,
        request_timeout: float | None = 300.0,
        keepalive_timeout: float = 30.0,
        read_timeout: float | None = 60.0,
        max_connections: int | None = 128,
        access_log: bool = False,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.keepalive_timeout = keepalive_timeout
        self.read_timeout = read_timeout
        self.max_connections = max_connections
        #: One structured JSON line per request on stdout (silent by default).
        self.access_log = access_log
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        #: ETag -> (200 body, the answer's ``escalated`` field) of computed
        #: /measure answers, least recently used first.  Only the event
        #: loop touches it, so it needs no lock.
        self._measure_bodies: OrderedDict[str, tuple[bytes, bool | None]] = OrderedDict()
        self._routes: dict[str, Callable[[_Request], Awaitable[dict]]] = {
            "/healthz": self._handle_healthz,
            "/metrics": self._handle_metrics,
            "/measure": self._handle_measure,
            "/select": self._handle_select,
            "/cluster/lease": self._handle_cluster_lease,
            "/cluster/heartbeat": self._handle_cluster_heartbeat,
            "/cluster/complete": self._handle_cluster_complete,
            "/cluster/status": self._handle_cluster_status,
            "/cluster/drain": self._handle_cluster_drain,
            "/monitor/ingest": self._handle_monitor_ingest,
            "/monitor/status": self._handle_monitor_status,
        }

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("repro-serve listening on http://%s:%d", self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections would otherwise linger until their
        # timeout; cancel their handler tasks so shutdown is prompt and the
        # event loop tears down clean.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- connection handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            if (
                self.max_connections is not None
                and len(self._connections) > self.max_connections
            ):
                self._write_json(
                    writer, 503,
                    {"error": f"over {self.max_connections} concurrent connections"},
                    close=True,
                )
                await writer.drain()
                return
            # Keep-alive loop: serve requests on this socket until the client
            # closes, asks to close, streams a /grid, or goes idle too long.
            while True:
                try:
                    request = await _read_request(
                        reader, self.keepalive_timeout, self.read_timeout
                    )
                except asyncio.TimeoutError:
                    # Idle keep-alive connection, or a client too slow to
                    # deliver the request it started: drop it either way.
                    break
                except APIError as error:
                    # Framing errors leave the stream unparseable: answer, close.
                    self._write_json(
                        writer, error.status, {"error": str(error)}, close=True
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and request.path not in (
                    "/grid", "/monitor/events",
                )
                await self._dispatch(request, reader, writer, keep_alive=keep_alive)
                # A handler may force the connection shut (e.g. a 504).
                if not (keep_alive and request.keep_alive):
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception:  # pragma: no cover - last-resort guard
            logger.exception("unhandled error serving a request")
            try:
                self._write_json(writer, 500, {"error": "internal server error"}, close=True)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
        except asyncio.CancelledError:
            pass  # server shutdown; the finally block closes the socket
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _dispatch(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        keep_alive: bool = False,
    ) -> None:
        """Trace, time, and access-log one request around the real dispatch.

        Every request gets a root span in the service's trace ring (inbound
        ``X-Trace-Id``/``X-Request-Id`` joins the caller's trace) and a
        sample in the per-endpoint request-latency histogram; the trace id
        is echoed on the response.  The trace stays open for the request's
        full duration -- for a distributed ``/grid`` that is the whole
        stream, so worker spans arriving mid-run stitch into it.
        """
        trace_id, parent_id = context_from_headers(request.headers)
        started = time.perf_counter()
        _LAST_STATUS.set(200)
        with self.service.traces.request(
            f"{request.method} {request.path}",
            trace_id=trace_id, parent_id=parent_id,
            method=request.method, path=request.path,
        ) as trace:
            _RESPONSE_TRACE.set(trace.trace_id)
            try:
                await self._dispatch_inner(
                    request, reader, writer, keep_alive=keep_alive
                )
            finally:
                _RESPONSE_TRACE.set(None)
                duration_ms = (time.perf_counter() - started) * 1e3
                REGISTRY.observe("request", self._route_label(request.path), duration_ms)
                if self.access_log:
                    self._log_access(request, trace, duration_ms)

    def _route_label(self, path: str) -> str:
        """A bounded-cardinality histogram label for one request path."""
        if path.startswith("/artifacts"):
            return "/artifacts"
        if path.startswith("/trace"):
            return "/trace"
        if path in self._routes or path in ("/grid", "/monitor/events"):
            return path
        return "other"

    def _log_access(self, request: _Request, trace, duration_ms: float) -> None:
        entry = {
            "ts": round(time.time(), 3),
            "method": request.method,
            "path": request.path,
            "status": _LAST_STATUS.get(),
            "duration_ms": round(duration_ms, 3),
            "trace_id": trace.trace_id,
        }
        # Serving-path flags annotated onto the root span (coalesced with
        # another identical request, served from the quantized fast path,
        # escalated to exact, written from stored /measure bytes) surface in
        # the log line when set.
        attrs = getattr(trace.root, "attrs", None) or {}
        for flag in ("coalesced", "fast", "escalated", "cached", "error"):
            if flag in attrs:
                entry[flag] = attrs[flag]
        print(json.dumps(entry, sort_keys=True), flush=True)

    async def _dispatch_inner(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        keep_alive: bool = False,
    ) -> None:
        close = not keep_alive
        if request.path == "/trace/recent" or request.path.startswith("/trace/"):
            await self._handle_trace(request, writer, close=close)
            return
        if request.path.startswith("/artifacts/"):
            await self._handle_artifacts(request, writer, close=close)
            return
        if request.method not in ("GET", "POST"):
            self._write_json(
                writer, 405, {"error": f"method {request.method} not allowed"},
                close=close,
            )
            await writer.drain()
            return
        if request.path == "/grid":
            await self._handle_grid_stream(request, reader, writer)
            return
        if request.path == "/monitor/events":
            await self._handle_monitor_events(request, reader, writer)
            return
        handler = self._routes.get(request.path)
        if handler is None:
            self._write_json(
                writer, 404,
                {"error": f"unknown path {request.path!r}",
                 "paths": sorted(
                     [*self._routes, "/artifacts", "/grid", "/monitor/events",
                      "/trace/recent"]
                 )},
                close=close,
            )
            await writer.drain()
            return
        try:
            payload = await asyncio.wait_for(handler(request), self.request_timeout)
        except asyncio.TimeoutError:
            # The worker thread keeps running, but the client stops waiting;
            # close so a retry lands on a fresh connection.
            self._write_json(
                writer, 504,
                {"error": f"request exceeded {self.request_timeout:.0f}s"},
                close=True,
            )
            request.keep_alive = False
        except APIError as error:
            self._write_json(writer, error.status, {"error": str(error)}, close=close)
        except (ValueError, KeyError) as error:
            # Domain validation: unknown algorithm/task/criterion names raise
            # KeyError from the registries, bad values raise ValueError.
            message = error.args[0] if error.args else str(error)
            self._write_json(writer, 400, {"error": str(message)}, close=close)
        except Exception as error:  # pragma: no cover - defensive
            logger.exception("request to %s failed", request.path)
            self._write_json(
                writer, 500, {"error": f"{type(error).__name__}: {error}"}, close=close
            )
        else:
            if isinstance(payload, _RawResponse):
                self._write_response(
                    writer, payload.status, payload.body, payload.content_type,
                    close=close, extra_headers=payload.headers or None,
                )
            else:
                self._write_json(writer, 200, payload, close=close)
        await writer.drain()

    @staticmethod
    def _write_json(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        close: bool = False,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        StabilityAPIServer._write_response(
            writer, status, _json_body(payload), "application/json",
            close=close, extra_headers=extra_headers,
        )

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        *,
        close: bool = False,
        include_body: bool = True,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        _LAST_STATUS.set(status)
        headers = dict(extra_headers or {})
        trace_id = _RESPONSE_TRACE.get()
        if trace_id and TRACE_HEADER not in headers:
            headers[TRACE_HEADER] = trace_id
        extras = "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extras}"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        ).encode("latin1")
        writer.write(head + body if include_body else head)

    async def _offload(self, fn, *args):
        """Run blocking store work on the service's bounded pool, time-bounded.

        /artifacts traffic (disk reads, on-the-fly npz encoding of
        memory-only pairs) goes through the same ``max_concurrency`` pool as
        the numerical endpoints, so peer fetches cannot spawn unbounded
        default-executor threads around the service's concurrency limit.
        """
        loop = asyncio.get_running_loop()
        return await asyncio.wait_for(
            loop.run_in_executor(self.service.executor, bind(fn), *args),
            self.request_timeout,
        )

    # -- /artifacts: the store's byte-level peer API ----------------------------

    async def _handle_artifacts(
        self, request: _Request, writer: asyncio.StreamWriter, *, close: bool
    ) -> None:
        """Serve raw store payloads so peers can use this node as a tier."""
        if unquote(request.path) == "/artifacts/batch":
            await self._handle_artifacts_batch(request, writer, close=close)
            return
        match = _ARTIFACT_PATH.match(unquote(request.path))
        if match is None:
            self._write_json(
                writer, 404,
                {"error": "artifact paths look like /artifacts/<kind>/<key>.{json,npz}"},
                close=close,
            )
            await writer.drain()
            return
        kind, name = match.group(1), match.group(2)
        store = self.service.store
        # The name IS a content hash: any cached copy under it is current
        # forever, so successful reads are immutable-cacheable and a matching
        # If-None-Match validates without moving a byte.
        cache_headers = {
            "ETag": f'"{name}"',
            "Cache-Control": "public, max-age=31536000, immutable",
        }
        try:
            # Store tiers touch the disk: off the event loop, bounded.
            if request.method in ("GET", "HEAD") and _etag_matches(
                request.headers.get("if-none-match"), name
            ):
                found = await self._offload(store.contains_bytes, kind, name)
                if found:
                    self._write_response(
                        writer, 304, b"", "application/octet-stream",
                        close=close, extra_headers=cache_headers,
                    )
                else:
                    self._write_json(
                        writer, 404, {"error": f"no artifact {kind}/{name}"}, close=close
                    )
            elif request.method == "GET":
                payload = await self._offload(store.get_bytes, kind, name)
                if payload is None:
                    self._write_json(
                        writer, 404, {"error": f"no artifact {kind}/{name}"}, close=close
                    )
                else:
                    self._write_response(
                        writer, 200, payload, "application/octet-stream",
                        close=close, extra_headers=cache_headers,
                    )
            elif request.method == "HEAD":
                found = await self._offload(store.contains_bytes, kind, name)
                self._write_response(
                    writer, 200 if found else 404, b"", "application/octet-stream",
                    close=close, extra_headers=cache_headers if found else None,
                )
            elif request.method == "PUT":
                if not request.body:
                    self._write_json(
                        writer, 400, {"error": "PUT needs a request body"}, close=close
                    )
                else:
                    await self._offload(store.put_bytes, kind, name, request.body)
                    self._write_json(
                        writer, 200,
                        {"stored": f"{kind}/{name}", "bytes": len(request.body)},
                        close=close,
                    )
            elif request.method == "DELETE":
                await self._offload(store.delete_bytes, kind, name)
                self._write_json(writer, 200, {"deleted": f"{kind}/{name}"}, close=close)
            else:
                self._write_json(
                    writer, 405, {"error": f"method {request.method} not allowed"},
                    close=close,
                )
        except asyncio.TimeoutError:
            self._write_json(
                writer, 504,
                {"error": f"artifact request exceeded {self.request_timeout:.0f}s"},
                close=True,
            )
            request.keep_alive = False
        await writer.drain()

    #: Upper bound on one batch manifest; a peer warming a whole grid paginates.
    _MAX_BATCH_ITEMS = 256

    async def _handle_artifacts_batch(
        self, request: _Request, writer: asyncio.StreamWriter, *, close: bool
    ) -> None:
        """Multi-get: one round trip for many artifacts (``POST`` a manifest).

        The response is a framed byte stream, one frame per requested item in
        manifest order: a JSON header line ``{"kind", "name", "found",
        "bytes": N}`` followed by exactly ``N`` raw payload bytes and a
        trailing newline.  Missing artifacts answer ``found: false`` with
        zero payload bytes instead of failing the whole batch, so a peer can
        split its fetches into found/missing in a single pass.
        """
        if request.method != "POST":
            self._write_json(
                writer, 405, {"error": "batch fetches POST a JSON manifest"},
                close=close,
            )
            await writer.drain()
            return
        try:
            manifest = json.loads(request.body or b"")
        except json.JSONDecodeError as error:
            self._write_json(
                writer, 400, {"error": f"manifest is not valid JSON: {error}"},
                close=close,
            )
            await writer.drain()
            return
        items = manifest.get("items") if isinstance(manifest, dict) else None
        if not isinstance(items, list) or not items:
            self._write_json(
                writer, 400,
                {"error": "manifest must be {'items': [{'kind', 'name'}, ...]}"},
                close=close,
            )
            await writer.drain()
            return
        if len(items) > self._MAX_BATCH_ITEMS:
            self._write_json(
                writer, 413,
                {"error": f"batch over {self._MAX_BATCH_ITEMS} items; paginate"},
                close=close,
            )
            await writer.drain()
            return
        requested: list[tuple[str, str]] = []
        for item in items:
            kind = item.get("kind") if isinstance(item, dict) else None
            name = item.get("name") if isinstance(item, dict) else None
            # Reuse the single-artifact path grammar: same identifier-safe
            # kinds and hex-ish codec-suffixed names, no traversal by
            # construction.
            if (
                not isinstance(kind, str) or not isinstance(name, str)
                or _ARTIFACT_PATH.match(f"/artifacts/{kind}/{name}") is None
            ):
                self._write_json(
                    writer, 400,
                    {"error": f"bad batch item {item!r}: wants "
                              "{'kind': <identifier>, 'name': <key>.{json,npz}}"},
                    close=close,
                )
                await writer.drain()
                return
            requested.append((kind, name))
        store = self.service.store
        frames: list[bytes] = []
        try:
            for kind, name in requested:
                payload = await self._offload(store.get_bytes, kind, name)
                found = payload is not None
                header = json.dumps(
                    {"kind": kind, "name": name, "found": found,
                     "bytes": len(payload) if found else 0},
                    sort_keys=True,
                ).encode("utf-8")
                frames.append(header + b"\n" + (payload or b"") + b"\n")
        except asyncio.TimeoutError:
            self._write_json(
                writer, 504,
                {"error": f"batch request exceeded {self.request_timeout:.0f}s"},
                close=True,
            )
            request.keep_alive = False
            await writer.drain()
            return
        self._write_response(
            writer, 200, b"".join(frames), "application/octet-stream", close=close
        )
        await writer.drain()

    # -- plain JSON endpoints ----------------------------------------------------

    async def _handle_healthz(self, request: _Request) -> dict:
        return self.service.healthz()

    async def _handle_metrics(self, request: _Request) -> dict | _RawResponse:
        fmt = str(request.params.get("format", "json")).lower()
        if fmt in ("prometheus", "openmetrics", "text"):
            text = render_prometheus(self.service.metrics())
            return _RawResponse(
                200, text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if fmt != "json":
            raise APIError(
                400, f"unknown metrics format {fmt!r} (json or prometheus)"
            )
        return self.service.metrics()

    # -- /trace: the distributed-tracing ring -------------------------------------

    async def _handle_trace(
        self, request: _Request, writer: asyncio.StreamWriter, *, close: bool
    ) -> None:
        """Serve the trace ring: summaries, or one trace's spans as NDJSON."""
        if request.method != "GET":
            self._write_json(
                writer, 405, {"error": "trace endpoints are read-only; use GET"},
                close=close,
            )
            await writer.drain()
            return
        buffer = self.service.traces
        if request.path == "/trace/recent":
            try:
                limit = _int_param(request.params, "limit", 50) or 50
            except APIError as error:
                self._write_json(
                    writer, error.status, {"error": str(error)}, close=close
                )
                await writer.drain()
                return
            self._write_json(
                writer, 200,
                {"traces": buffer.recent(limit), "counters": buffer.counters()},
                close=close,
            )
            await writer.drain()
            return
        trace_id = unquote(request.path[len("/trace/"):])
        rows = buffer.get(trace_id) if trace_id else None
        if rows is None:
            self._write_json(
                writer, 404, {"error": f"no retained trace {trace_id!r}"},
                close=close,
            )
        else:
            body = "".join(
                json.dumps(row, sort_keys=True) + "\n" for row in rows
            ).encode("utf-8")
            self._write_response(
                writer, 200, body, "application/x-ndjson", close=close
            )
        await writer.drain()

    async def _handle_measure(self, request: _Request) -> _RawResponse:
        params = request.params
        algorithm = params.get("algorithm")
        if not algorithm:
            raise APIError(400, "missing required parameter 'algorithm'")
        algorithm = str(algorithm)
        measures = _tuple_param(params, "measures", cast=str)
        dim = _int_param(params, "dim", required=True)
        precision = _int_param(params, "precision", required=True)
        seed = _int_param(params, "seed", 0)
        fast = _bool_param(params, "fast", False)
        tolerance = _float_param(params, "tolerance")
        # The validator is a pure function of content-addressed keys,
        # memoised after a cell's first request, so it is derived right here
        # and a revalidation answers 304 before any numerical work happens.
        etag = self.service.measure_etag(
            algorithm, dim, precision, seed,
            measures=measures, fast=fast, fast_tolerance=tolerance,
        )
        headers = {"ETag": f'"{etag}"'}
        if _etag_matches(request.headers.get("if-none-match"), etag):
            return _RawResponse(304, b"", "application/json", headers)
        # The answer is a pure function of its ETag too, so a stored body is
        # written as it is: no thread hop, no service call, no JSON encode.
        stored = self._measure_bodies.get(etag)
        if stored is not None:
            self._measure_bodies.move_to_end(etag)
            body, escalated = stored
            self.service.count_measure_body_hit(escalated)
            return _RawResponse(200, body, "application/json", headers)
        # The service blocks (possibly training) and its pool waits on its
        # own submits, so the call goes to the default executor.
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(
            None,
            bind(lambda: self.service.measure(
                algorithm, dim, precision, seed,
                measures=measures, fast=fast, fast_tolerance=tolerance,
            )),
        )
        body = _json_body(payload)
        self._measure_bodies[etag] = (body, payload.get("escalated"))
        while len(self._measure_bodies) > _MEASURE_BODY_ENTRIES:
            self._measure_bodies.popitem(last=False)
        return _RawResponse(200, body, "application/json", headers)

    async def _handle_select(self, request: _Request) -> dict:
        params = request.params
        budget = _int_param(params, "budget", required=True)
        criterion = str(params.get("criterion", "eis"))
        algorithm = params.get("algorithm")
        seed = _int_param(params, "seed")      # None = the config's first seed
        dimensions = _tuple_param(params, "dims") or _tuple_param(params, "dimensions")
        precisions = _tuple_param(params, "precisions")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            bind(lambda: self.service.select(
                budget,
                criterion=criterion,
                algorithm=str(algorithm) if algorithm else None,
                seed=seed,
                dimensions=dimensions,
                precisions=precisions,
            )),
        )

    # -- /cluster: the coordinator's worker-facing API ---------------------------
    #
    # Same trust model as /artifacts: unauthenticated, so bind --host to
    # loopback or a trusted network.  Payloads are plain JSON (never pickle);
    # a hostile worker can at worst feed wrong values into a run, not execute
    # code on the coordinator.

    def _cluster_str(self, params: dict, name: str) -> str:
        value = params.get(name)
        if not value or not isinstance(value, str):
            raise APIError(400, f"missing required string parameter {name!r}")
        return value

    async def _handle_cluster_lease(self, request: _Request) -> dict:
        worker = self._cluster_str(request.params, "worker")
        return self.service.coordinator.lease(worker)

    async def _handle_cluster_heartbeat(self, request: _Request) -> dict:
        params = request.params
        return self.service.coordinator.heartbeat(
            self._cluster_str(params, "worker"), self._cluster_str(params, "lease_id")
        )

    async def _handle_cluster_complete(self, request: _Request) -> dict:
        params = request.params
        rows = params.get("records") or []
        if not isinstance(rows, list):
            raise APIError(400, "parameter 'records' must be a list of record rows")
        stats = params.get("stats")
        if stats is not None and not isinstance(stats, dict):
            raise APIError(400, "parameter 'stats' must be an object")
        spans = params.get("spans")
        if spans is not None and not isinstance(spans, list):
            raise APIError(400, "parameter 'spans' must be a list of span rows")
        error = params.get("error")
        worker = self._cluster_str(params, "worker")
        lease_id = self._cluster_str(params, "lease_id")
        run_id = self._cluster_str(params, "run_id")
        group_index = _int_param(params, "group_index", required=True)
        # Record parsing + committer pushes are O(group cells) under the
        # coordinator lock: run them on the bounded worker pool so a big
        # completion cannot stall the event loop (and every other
        # lease/heartbeat/artifact request) while it commits.
        return await self._offload(
            lambda: self.service.coordinator.complete(
                worker, lease_id, run_id, group_index,
                rows=rows, stats=stats, spans=spans,
                error=str(error) if error is not None else None,
            )
        )

    async def _handle_cluster_status(self, request: _Request) -> dict:
        run_id = request.params.get("run_id")
        if run_id:
            status = self.service.coordinator.run_status(str(run_id))
            if status is None:
                raise APIError(404, f"unknown cluster run {run_id!r}")
            return status
        return self.service.coordinator.snapshot()

    async def _handle_cluster_drain(self, request: _Request) -> dict:
        # GET reports; POST toggles (default: start draining).  ``enable``
        # lifts a drain again with enable=false.
        if request.method == "GET":
            return self.service.coordinator.drain_status()
        return self.service.coordinator.drain(
            _bool_param(request.params, "enable", True)
        )

    # -- /monitor: the online instability monitor ---------------------------------

    def _monitor(self):
        monitor = self.service.monitor
        if monitor is None:
            raise APIError(
                503, "monitor not enabled; start with repro-serve --monitor"
            )
        return monitor

    async def _handle_monitor_ingest(self, request: _Request) -> dict:
        """Ingest one tokenised document batch (POST only).

        ``documents`` is a non-empty JSON array whose items are either token
        arrays or plain strings (split on whitespace).  ``cut`` forces
        (``true``) or suppresses (``false``) the snapshot cut this batch
        would trigger per the monitor's cadence.
        """
        if request.method != "POST":
            raise APIError(405, "ingestion mutates monitor state; POST /monitor/ingest")
        monitor = self._monitor()
        raw = request.params.get("documents")
        if not isinstance(raw, list) or not raw:
            raise APIError(
                400,
                "parameter 'documents' must be a non-empty list of token "
                "lists (or strings, split on whitespace)",
            )
        documents = []
        for doc in raw:
            if isinstance(doc, str):
                doc = doc.split()
            if not isinstance(doc, list) or not doc or not all(
                isinstance(token, str) for token in doc
            ):
                raise APIError(
                    400, "each document must be a non-empty string or token list"
                )
            documents.append(doc)
        cut = request.params.get("cut")
        if cut is not None:
            cut = _bool_param(request.params, "cut", False)
        return await self._offload(lambda: monitor.ingest(documents, cut=cut))

    async def _handle_monitor_status(self, request: _Request) -> dict:
        return self._monitor().snapshot()

    async def _handle_monitor_events(
        self, request: _Request, reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Stream monitor lifecycle events as NDJSON (one event per line).

        ``since=<seq>`` starts after that sequence number (default 0: replay
        everything still buffered).  Without ``follow`` the buffered events
        are dumped and the stream ends -- the curl-friendly poll; with
        ``follow=true`` the connection tails new events until the client
        disconnects (the same EOF watchdog as ``/grid``).
        """
        monitor = self.service.monitor
        try:
            if monitor is None:
                raise APIError(
                    503, "monitor not enabled; start with repro-serve --monitor"
                )
            since = _int_param(request.params, "since", 0) or 0
            follow = _bool_param(request.params, "follow", False)
        except APIError as error:
            self._write_json(writer, error.status, {"error": str(error)})
            await writer.drain()
            return

        self._write_stream_head(writer)
        await writer.drain()

        loop = asyncio.get_running_loop()
        queue: asyncio.Queue[tuple[str, object]] = asyncio.Queue()
        cancelled = threading.Event()

        def produce() -> None:
            last = since
            try:
                while not cancelled.is_set():
                    fresh = (
                        monitor.events.wait(last, 0.5)
                        if follow
                        else monitor.events.events(last)
                    )
                    for event in fresh:
                        last = max(last, int(event["seq"]))
                        loop.call_soon_threadsafe(queue.put_nowait, ("event", event))
                    if not follow:
                        break
            finally:
                try:
                    loop.call_soon_threadsafe(queue.put_nowait, ("done", None))
                except RuntimeError:  # pragma: no cover - loop already closed
                    pass

        thread = threading.Thread(target=produce, name="monitor-events", daemon=True)
        thread.start()
        watchdog = asyncio.ensure_future(reader.read(1))

        def on_watchdog_done(task: "asyncio.Task") -> None:
            if not task.cancelled():
                task.exception()
            cancelled.set()

        watchdog.add_done_callback(on_watchdog_done)
        try:
            while True:
                kind, item = await queue.get()
                if kind == "event":
                    self._write_chunk(writer, json.dumps(item, sort_keys=True) + "\n")
                    await writer.drain()
                else:  # done
                    self._end_chunks(writer)
                    break
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            cancelled.set()
            if not watchdog.done():
                watchdog.cancel()

    # -- streaming /grid ---------------------------------------------------------

    async def _handle_grid_stream(
        self, request: _Request, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Run a grid and stream NDJSON records as cells complete.

        The blocking record generator runs on a dedicated thread feeding an
        asyncio queue; each record becomes one chunked-transfer NDJSON line
        the moment its cell finishes.  A watchdog task reads the (otherwise
        silent) connection: EOF means the client abandoned the stream, which
        cancels the grid -- the producer stops at the next record boundary,
        the record iterator is closed (releasing the service's stream slot
        and, for distributed runs, cancelling the run at the coordinator),
        and no further cells are submitted.
        """
        params = request.params
        try:
            config = params.get("config")
            if config is not None and not isinstance(config, dict):
                raise APIError(400, "parameter 'config' must be a JSON object")
            kwargs = {
                "algorithms": _tuple_param(params, "algorithms", cast=str),
                "tasks": _tuple_param(params, "tasks", cast=str),
                "dimensions": _tuple_param(params, "dims")
                or _tuple_param(params, "dimensions"),
                "precisions": _tuple_param(params, "precisions"),
                "seeds": _tuple_param(params, "seeds"),
                "with_measures": _bool_param(params, "with_measures", True),
                "ordered": _bool_param(params, "ordered", True),
                "n_workers": _int_param(params, "workers", None),
                "model_type": str(params.get("model_type", "bow")),
                "distributed": _bool_param(params, "distributed", False),
                "config": config,
                "run_id": str(params["run_id"]) if params.get("run_id") else None,
            }
            # grid_iter validates axes eagerly, so a bad request is rejected
            # with a clean 400 *before* the streaming 200 is committed.
            records = self.service.grid_iter(**kwargs)
        except APIError as error:
            self._write_json(writer, error.status, {"error": str(error)})
            await writer.drain()
            return
        except (ValueError, KeyError, TypeError) as error:
            message = error.args[0] if error.args else str(error)
            self._write_json(writer, 400, {"error": str(message)})
            await writer.drain()
            return

        self._write_stream_head(writer)
        await writer.drain()

        loop = asyncio.get_running_loop()
        queue: asyncio.Queue[tuple[str, object]] = asyncio.Queue()
        cancelled = threading.Event()

        def cancel_stream() -> None:
            """Stop the grid for this request (thread-safe, idempotent).

            Sets the flag the producer checks at every record boundary and
            closes the record iterator: the service releases the stream's
            slot, a distributed run is cancelled at the coordinator, and a
            local parallel run tears its worker pool down.  A plain
            generator refuses ``close()`` while the producer thread is
            inside it -- the boundary check covers that case.
            """
            cancelled.set()
            try:
                records.close()
            except ValueError:
                pass

        def produce() -> None:
            outcome: tuple[str, object] = ("done", None)
            try:
                try:
                    for record in records:
                        if cancelled.is_set():
                            break
                        loop.call_soon_threadsafe(
                            queue.put_nowait, ("record", record.to_row())
                        )
                finally:
                    records.close()
            except Exception as error:  # surfaced as a terminal NDJSON line
                outcome = ("error", f"{type(error).__name__}: {error}")
            try:
                loop.call_soon_threadsafe(queue.put_nowait, outcome)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

        # bind(): the producer thread must see this request's trace context
        # so a distributed run's create_run captures it into the lease.
        thread = threading.Thread(
            target=bind(produce), name="grid-stream", daemon=True
        )
        thread.start()
        # Abandoned-stream detection: /grid connections are Connection:close,
        # so the client sends nothing after its request -- a readable EOF
        # (or stray bytes) means it hung up.  Without this watch a client
        # disconnect would only surface once enough unread records
        # back-pressured a write, cells after cells burning compute for a
        # stream nobody reads.
        watchdog = asyncio.ensure_future(reader.read(1))

        def on_watchdog_done(task: "asyncio.Task") -> None:
            if not task.cancelled():
                task.exception()      # retrieve, e.g. a connection reset
            cancel_stream()           # idempotent; benign after a clean finish

        watchdog.add_done_callback(on_watchdog_done)
        try:
            while True:
                kind, item = await queue.get()
                if kind == "record":
                    self._write_chunk(writer, json.dumps(item, sort_keys=True) + "\n")
                elif kind == "error":
                    self._write_chunk(writer, json.dumps({"error": item}) + "\n")
                    self._end_chunks(writer)
                    break
                else:  # done
                    self._end_chunks(writer)
                    break
                await writer.drain()
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            cancel_stream()
        finally:
            if not watchdog.done():
                watchdog.cancel()

    @staticmethod
    def _write_stream_head(writer: asyncio.StreamWriter) -> None:
        """The committed 200 head of a chunked NDJSON stream."""
        _LAST_STATUS.set(200)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
        )
        trace_id = _RESPONSE_TRACE.get()
        if trace_id:
            head += f"{TRACE_HEADER}: {trace_id}\r\n"
        writer.write((head + "Connection: close\r\n\r\n").encode("latin1"))

    @staticmethod
    def _write_chunk(writer: asyncio.StreamWriter, text: str) -> None:
        data = text.encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin1") + data + b"\r\n")

    @staticmethod
    def _end_chunks(writer: asyncio.StreamWriter) -> None:
        writer.write(b"0\r\n\r\n")


# -- entrypoint ------------------------------------------------------------------


def quick_serve_config() -> "PipelineConfig":
    """A tiny pipeline configuration for smoke tests and CI boots."""
    from repro.instability.pipeline import PipelineConfig

    return PipelineConfig(
        corpus=SyntheticCorpusConfig(
            vocab_size=120, n_documents=60, doc_length_mean=30, seed=7
        ),
        algorithms=("svd",),
        dimensions=(4, 6),
        precisions=(1, 32),
        seeds=(0,),
        tasks=("sst2",),
        embedding_epochs=2,
        downstream_epochs=3,
        ner_epochs=2,
    )


async def _serve(args: argparse.Namespace) -> int:
    config = quick_serve_config() if args.quick else None
    store = None
    replicas = [entry for entry in (args.store_replicas or "").split(",") if entry]
    if args.cache_dir or args.store_url or replicas:
        store = ArtifactStore(
            args.cache_dir,
            shards=args.store_shards,
            remote_url=args.store_url,
            replicas=replicas or None,
            mmap=args.store_mmap,
        )
    service = StabilityService(
        config,
        store=store,
        config=ServiceConfig(
            max_concurrency=args.max_concurrency, grid_workers=args.workers,
            lease_ttl=args.lease_ttl, run_gc_age=args.run_gc_age,
            worker_ttl=args.worker_ttl,
            trace_sample=args.trace_sample, trace_slow_ms=args.slow_ms,
        ),
    )
    if args.resume_runs:
        resumed = service.coordinator.resume_runs()
        print(f"repro-serve resumed {resumed} cluster run(s) from checkpoints", flush=True)
    if args.monitor or args.monitor_distributed:
        from repro.monitor.scheduler import MonitorConfig

        thresholds: dict[str, float] = {}
        for entry in args.monitor_threshold or []:
            name, sep, value = entry.partition("=")
            if not sep or not name:
                raise SystemExit(
                    f"--monitor-threshold wants measure=value, got {entry!r}"
                )
            try:
                thresholds[name.strip()] = float(value)
            except ValueError:
                raise SystemExit(
                    f"--monitor-threshold value must be a number, got {entry!r}"
                ) from None
        service.enable_monitor(
            MonitorConfig(
                snapshot_every_batches=args.monitor_every,
                cadence_seconds=args.monitor_cadence,
                distributed=args.monitor_distributed,
                thresholds=thresholds,
                webhook_url=args.monitor_webhook,
            )
        )
        mode = "distributed" if args.monitor_distributed else "local"
        print(f"repro-serve monitor enabled ({mode} retrains)", flush=True)
    server = StabilityAPIServer(
        service, host=args.host, port=args.port,
        request_timeout=args.request_timeout if args.request_timeout > 0 else None,
        access_log=args.access_log,
    )
    await server.start()
    print(f"repro-serve listening on http://{server.host}:{server.port}", flush=True)
    if args.port_file:
        # Write-then-rename so a poller never reads a half-written file.
        port_path = Path(args.port_file)
        tmp = port_path.with_suffix(port_path.suffix + ".tmp")
        tmp.write_text(str(server.port))
        tmp.replace(port_path)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    try:
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        await asyncio.wait({serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED)
        serve_task.cancel()
    finally:
        await server.stop()
        service.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8732, help="port (0 = ephemeral)")
    parser.add_argument(
        "--port-file", default=None,
        help="write the bound port here once listening (for scripts and CI)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="process fan-out for /grid executions (0 = in-process serial)",
    )
    parser.add_argument(
        "--max-concurrency", type=int, default=4,
        help="bounded thread pool computing requests",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="disk-backed artifact store; makes the service warm across restarts",
    )
    parser.add_argument(
        "--store-shards", type=int, default=None,
        help="split the local store into N consistent-hashed shard directories",
    )
    parser.add_argument(
        "--store-url", default=None,
        help="peer repro-serve base URL used as a remote artifact-store tier "
             "(local misses are fetched from the peer's /artifacts API)",
    )
    parser.add_argument(
        "--store-mmap", action="store_true",
        help="memory-map disk-tier npz artifacts on read instead of copying "
             "them into private memory (warm reruns share page-cache pages; "
             "see store_io in /metrics)",
    )
    parser.add_argument(
        "--store-replicas", default=None,
        help="comma-separated replica targets (peer URLs and/or directories) "
             "used as one N-way replicated store tier with read-repair and "
             "hinted handoff; mutually exclusive with --store-url",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=300.0,
        help="per-request timeout in seconds for non-streaming endpoints "
             "(0 disables)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="seconds a cluster lease survives without a worker heartbeat "
             "before its cell group is re-leased",
    )
    parser.add_argument(
        "--resume-runs", action="store_true",
        help="rebuild cluster runs from store checkpoints at boot (needs a "
             "persistent --cache-dir; unfinished groups re-lease, committed "
             "records replay)",
    )
    parser.add_argument(
        "--run-gc-age", type=float, default=3600.0,
        help="seconds a finished cluster run (and its checkpoints) is kept "
             "before age GC (0 disables)",
    )
    parser.add_argument(
        "--worker-ttl", type=float, default=300.0,
        help="seconds of silence before an idle cluster worker is evicted "
             "from the status table (0 disables)",
    )
    parser.add_argument(
        "--kernel-policy", choices=SVD_METHODS, default=None,
        help="SVD kernel selection (see repro.linalg)",
    )
    parser.add_argument(
        "--dtype", choices=KERNEL_DTYPES, default=None,
        help="working precision of the measure kernels",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="serve a tiny pipeline configuration (CI smoke / demos)",
    )
    parser.add_argument(
        "--monitor", action="store_true",
        help="enable the online instability monitor "
             "(/monitor/ingest, /monitor/status, /monitor/events)",
    )
    parser.add_argument(
        "--monitor-distributed", action="store_true",
        help="lease monitor retrains to the repro-worker fleet through the "
             "cluster coordinator instead of running them in-process "
             "(implies --monitor)",
    )
    parser.add_argument(
        "--monitor-every", type=int, default=1,
        help="cut a corpus snapshot every N ingested batches",
    )
    parser.add_argument(
        "--monitor-cadence", type=float, default=0.0,
        help="also cut snapshots every N seconds when new documents arrived "
             "(0 disables the wall-clock cadence)",
    )
    parser.add_argument(
        "--monitor-threshold", action="append", default=None,
        metavar="MEASURE=VALUE",
        help="drift-alert threshold, e.g. 'eis=0.15' or 'disagreement=0.2' "
             "(repeatable; no thresholds = observe without alerting)",
    )
    parser.add_argument(
        "--monitor-webhook", default=None, metavar="URL",
        help="POST each monitor drift alert to this URL as JSON "
             "(bounded retry; delivery outcomes in /monitor/status)",
    )
    parser.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="fraction of requests traced into the /trace ring "
             "(0 disables tracing; histograms still populate)",
    )
    parser.add_argument(
        "--slow-ms", type=float, default=500.0,
        help="always retain traces whose request took at least this many "
             "milliseconds, even when sampled out (0 disables the slow ring)",
    )
    parser.add_argument(
        "--access-log", action="store_true",
        help="print one structured JSON line per request to stdout "
             "(method, path, status, duration_ms, trace id, serving flags)",
    )
    args = parser.parse_args(argv)
    if args.monitor_webhook and not (args.monitor or args.monitor_distributed):
        parser.error("--monitor-webhook requires --monitor")
    if args.store_shards is not None and args.cache_dir is None:
        parser.error("--store-shards requires --cache-dir (it shards the local store)")
    if args.store_mmap and not (args.cache_dir or args.store_url or args.store_replicas):
        parser.error("--store-mmap requires a store to map (--cache-dir or replicas)")
    if args.store_url and args.store_replicas:
        parser.error("--store-url and --store-replicas are mutually exclusive")

    configure_logging()
    if args.kernel_policy is not None or args.dtype is not None:
        configure_default_policy(svd=args.kernel_policy, dtype=args.dtype)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
