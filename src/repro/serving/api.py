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
  id is echoed back as ``X-Trace-Id`` on every response.  An id the server
  mints is 32 lowercase hex digits from ``os.urandom``: unique and
  unguessable, so no client can claim another's next trace, but not
  secret -- ``/trace/recent`` lists them.
* ``GET|POST /measure?algorithm=cbow&dim=16&precision=4&seed=0`` -- the
  pairwise stability measures of one grid cell.  Responses carry an
  ``ETag`` derived from the cell's content-addressed measures key, so an
  ``If-None-Match`` revalidation answers ``304 Not Modified`` *before any
  numerical work happens* -- the tag is computable from keys alone, on the
  event loop.  The answer is a pure function of its tag as well, so each
  server keeps the bytes of its most recently used computed answers
  (``_MEASURE_BODY_ENTRIES``) under their tags and writes a repeat straight
  from them: no thread hop, service call, store lookup or JSON encode
  (``serving.measure_body_hits`` in ``/metrics``).
* ``GET|POST /select?budget=128&criterion=eis`` -- dimension-precision
  recommendation under a memory budget (bits per word).
* ``GET|POST /grid?dims=8,16&precisions=1,32&stream=...`` -- executes a grid
  and **streams one NDJSON record per line as each cell completes**
  (chunked transfer encoding, canonical order; ``distributed=true`` leases
  the grid to the ``repro-worker`` fleet instead of executing in-process,
  with an optional JSON ``config`` from a remote submitter).  Disconnecting
  mid-stream cancels the computation at the next cell boundary.
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
  artifacts are edge-cacheable by construction.
* ``POST /monitor/ingest``, ``GET /monitor/status``, ``GET /monitor/events``
  -- the online instability monitor (``--monitor``; see
  :mod:`repro.monitor`): ingest tokenised document batches, read the
  monitor's snapshot/retrain/drift state, and stream its lifecycle events
  (snapshot cut, retrain started, measures ready, drift alert) as NDJSON --
  ``since=<seq>`` replays buffered events, ``follow=true`` tails.

The HTTP core is one :class:`asyncio.Protocol` per connection (no
third-party web framework), so the serving layer runs anywhere the
reproduction runs.  It parses requests straight from the bytes the socket
delivered.  A stored ``/measure`` body or a ``304`` revalidation is written
within that same event-loop turn -- parse, trace, histogram sample, access
log and write, with no task, executor hop or timer of its own.  That hit
path is ``_Connection._parse`` (one decode of the head; a plain
origin-form target is split by hand, anything with escapes, a ``+``, a
fragment or another form by ``urlsplit`` and ``parse_qs``), then
:meth:`StabilityAPIServer._answer_now` (the ETag from
:meth:`~repro.serving.service.StabilityService.measure_etag`, the stored
body), then ``_Exchange`` (root span, histogram sample, ``X-Trace-Id``)
around ``_Connection.respond``.  Every other request runs as one
coroutine; blocking numerical work happens on the service's bounded
thread pool, and the requests pipelined behind it on the same connection
wait their turn.  Connections are **keep-alive** (HTTP/1.1 semantics;
``Connection`` is read as a token list, and ``close`` in it wins) so a
peer's store tier reuses one TCP connection across artifact fetches, and
every non-streaming request is bounded by a per-request timeout
(``--request-timeout``).  Request *reads* are separately bounded:
headers and body must arrive within a read timeout once the request line
lands, and concurrent connections are capped (503 beyond the cap), so slow
clients cannot pin memory or connections.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Awaitable, Callable, Iterator
from urllib.parse import parse_qs, unquote, urlsplit

from repro import options
from repro.corpus.synthetic import SyntheticCorpusConfig
from repro.serving.service import ServiceConfig, StabilityService
from repro.telemetry.metrics import REGISTRY, render_prometheus
from repro.telemetry.trace import (
    TRACE_HEADER, SubTrace, Trace, bind, context_from_headers,
)
from repro.utils.logging import configure_logging, get_logger

logger = get_logger(__name__)

__all__ = ["StabilityAPIServer", "quick_serve_config", "main"]

_REASONS = {
    200: "OK", 304: "Not Modified", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large", 414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}
#: Longest request line, without its line ending.
_MAX_REQUEST_LINE = 1 << 16
#: Total header bytes per request; a fast client must not be able to buffer
#: unbounded header lines for the whole read-timeout window.
_MAX_HEADER_BYTES = 1 << 14
_MAX_BODY_BYTES = 1 << 20
#: Raw /artifacts payloads (npz embedding pairs) dwarf JSON request bodies.
_MAX_ARTIFACT_BYTES = 1 << 28
#: Bytes a connection buffers while it serves a request; beyond them it
#: stops reading the socket until it gets back to parsing.
_MAX_PIPELINED_BYTES = 1 << 17
#: Computed ``/measure`` bodies one server keeps (least recently used
#: evicted first); at 0.5-1 KB a body the table stays at a few MB.
_MEASURE_BODY_ENTRIES = 4096
#: Seconds a keep-alive connection waits for its next request line.
_KEEPALIVE_TIMEOUT = 30.0
#: Seconds the headers and body of a request may take once its line is in,
#: so a client trickling bytes cannot pin a connection and its buffer.
_READ_TIMEOUT = 60.0
#: Connections served at once; the next one is answered 503 and closed.
_MAX_CONNECTIONS = 128
#: ``/artifacts/<kind>/<name>``: identifier-safe kind, hex-ish name with the
#: codec suffix -- rejects path traversal and temp-file names by construction.
_ARTIFACT_PATH = re.compile(
    r"^/artifacts/([A-Za-z0-9_\-]{1,64})/([A-Za-z0-9_\-]{1,128}\.(?:json|npz))$"
)
#: Paths answered with a chunked NDJSON stream that ends the connection.
_STREAMS = ("/grid", "/monitor/events")


class APIError(Exception):
    """Request error carrying an HTTP status (maps to a JSON error payload)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Request:
    """One parsed request."""

    __slots__ = ("method", "path", "params", "headers", "body", "keep_alive")

    def __init__(
        self, method: str, path: str, params: dict[str, str | object],
        headers: dict[str, str], keep_alive: bool,
    ) -> None:
        self.method = method
        self.path = path
        self.params = params
        self.headers = headers
        #: Raw request body; only kept for /artifacts requests (PUT payloads).
        self.body = b""
        #: Whether the client may reuse this connection for further requests.
        self.keep_alive = keep_alive


@dataclass
class _RawResponse:
    """A handler result carrying ready bytes and its own status and headers.

    Handlers normally return a plain payload dict (written as a 200 JSON
    body); ones serving Prometheus text, NDJSON trace rows, artifact bytes
    or a ``/measure`` answer with its ETag, or a conditional ``304 Not
    Modified`` with an empty body, return this.
    """

    status: int
    body: bytes
    content_type: str
    headers: dict[str, str] = field(default_factory=dict)


#: Targets the hand split in :func:`_split_target` leaves to the stdlib:
#: escapes, '+' for a space, fragments, and the bytes ``urlsplit`` strips.
_SPECIAL_TARGET = re.compile(r"[%+#\t\r\n]")


def _split_target(target: str) -> tuple[str, dict[str, str | object]]:
    """The path and query parameters of a request target.

    A parameter given twice keeps its last value; blank values and bare
    names are dropped.  The plain origin form (one leading ``/``, nothing
    to unescape, no fragment) is split by hand, to the result
    ``urlsplit`` and ``parse_qs`` give; any other target goes to them.
    """
    if target[:1] != "/" or target[1:2] == "/" or _SPECIAL_TARGET.search(target):
        split = urlsplit(target)
        return split.path, {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
    path, _, query = target.partition("?")
    params: dict[str, str | object] = {}
    for pair in query.split("&"):
        name, _, value = pair.partition("=")
        if value:
            params[name] = value
    return path, params


def _parse_head(head: str) -> tuple[_Request, int]:
    """The request of a request head, and its body length.

    ``head`` is the request line and the header lines, decoded as latin-1,
    up to the LF that ends the last of them; a line ending in CRLF keeps
    its CR, which parsing strips.  Raises :class:`APIError` for an
    unparseable request line or ``Content-Length``, and for a body over its
    limit: 1 MB of JSON that merges into the query parameters, or 256 MB of
    raw ``/artifacts`` payload.
    """
    line, *fields = head.split("\n")
    try:
        method, target, version = line.split(" ", 2)
    except ValueError as error:
        raise APIError(400, f"malformed request line: {error}") from error
    headers: dict[str, str] = {}
    for header in fields:
        name, _, value = header.partition(":")
        headers[name.strip().lower()] = value.strip()
    path, params = _split_target(target)

    limit = _MAX_ARTIFACT_BYTES if path.startswith("/artifacts/") else _MAX_BODY_BYTES
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise APIError(400, "malformed Content-Length header") from None
    if length < 0:
        raise APIError(400, "malformed Content-Length header")
    if length > limit:
        raise APIError(413, f"request body over {limit} bytes")
    # Connection options are a comma-separated, case-insensitive token
    # list (RFC 9110 7.6.1); "close" wins over everything else.
    connection = headers.get("connection")
    tokens = {token.strip() for token in connection.lower().split(",")} if connection else ()
    keep_alive = "close" not in tokens and (
        "keep-alive" in tokens or version.strip().upper() == "HTTP/1.1"
    )
    return _Request(method.upper(), path, params, headers, keep_alive), length


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


# -- the connection --------------------------------------------------------------


class _Connection(asyncio.Protocol):
    """One client socket: requests parsed from its buffer, answered in order.

    ``data_received`` parses every complete request in the buffer.  A
    stored ``/measure`` body or a 304 is written right there (see
    :meth:`StabilityAPIServer._answer_now`); any other request runs as one
    coroutine, and the requests behind it wait in the buffer until it has
    answered.  Nothing is parsed while the transport has paused writing.

    One timer bounds the waits: :data:`_KEEPALIVE_TIMEOUT` for the request
    line of the next request, then :data:`_READ_TIMEOUT` for the headers and
    body of a request whose line has arrived -- armed once per request, so
    a client trickling bytes does not extend it.  Expiry drops the
    connection without an answer.  No read deadline runs while a request is served;
    ``request_timeout`` bounds handlers instead.
    """

    def __init__(self, server: "StabilityAPIServer") -> None:
        self.server = server
        self.loop = asyncio.get_running_loop()
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        #: A request whose head is parsed and whose body is still arriving:
        #: the request, where its body starts in the buffer, and its length.
        self.head: tuple[_Request, int, int] | None = None
        #: The coroutine serving the current request, if one is.
        self.task: asyncio.Task | None = None
        #: When the connection is dropped (loop time), or None while serving.
        self.deadline: float | None = None
        self.timer: asyncio.TimerHandle | None = None
        self.timer_at = 0.0
        #: Whether the read deadline of the request under way is armed.
        self.reading = False
        self.writing_paused = False
        self.reading_paused = False
        self.eof = False
        self.closed = False
        self.drained: asyncio.Future | None = None
        #: Cancels the NDJSON stream on this connection once the client
        #: hangs up (see :meth:`watch`).
        self.on_abandon: Callable[[], None] | None = None
        #: ``X-Trace-Id`` of the responses to the current request, and the
        #: status last written (read by the access log).
        self.trace_id: str | None = None
        self.status = 200

    # -- protocol callbacks ------------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        server = self.server
        if len(server._connections) >= _MAX_CONNECTIONS:
            self.respond_json(
                503, {"error": f"over {_MAX_CONNECTIONS} concurrent connections"},
                close=True,
            )
            transport.close()
            return
        server._connections.add(self)
        self._arm(_KEEPALIVE_TIMEOUT)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.on_abandon is not None:
            self._abandon()                  # stray bytes on a stream
        elif self.task is None and not self.writing_paused:
            self._process()
        elif len(self.buffer) > _MAX_PIPELINED_BYTES and not self.reading_paused:
            self.reading_paused = True
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self.eof = True
        if self.on_abandon is not None:
            self._abandon()
        elif self.task is None and not self.writing_paused:
            self._process()                  # closes once no request is left
        # Keep the transport open: answers still to come get written.
        return True

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed = True
        self.server._connections.discard(self)
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        self._abandon()
        self._wake()

    def pause_writing(self) -> None:
        self.writing_paused = True

    def resume_writing(self) -> None:
        self.writing_paused = False
        self._wake()
        if self.task is None:
            self._process()

    # -- requests ------------------------------------------------------------------

    def _process(self) -> None:
        """Answer the buffered requests in order, until one needs a coroutine."""
        if self.reading_paused:
            self.reading_paused = False
            self.transport.resume_reading()
        while (
            self.task is None and not self.writing_paused
            and not self.transport.is_closing()
        ):
            try:
                request = self._parse()
                if request is None:
                    if self.eof:
                        self.transport.close()
                    return
                if not self.server._answer_now(request, self):
                    self.task = self.loop.create_task(self._serve(request))
                    return
            except APIError as error:
                # Framing errors leave the stream unparseable: answer, close.
                self.respond_json(error.status, {"error": str(error)}, close=True)
                self.transport.close()
                return
            except Exception:  # pragma: no cover - last-resort guard
                self._fail()
                return
            if not request.keep_alive:
                self.transport.close()
                return
            self._arm(_KEEPALIVE_TIMEOUT)

    def _parse(self) -> _Request | None:
        """The next complete request, taken from the buffer, or None."""
        buffer = self.buffer
        if self.head is None:
            line_end = buffer.find(b"\n", 0, _MAX_REQUEST_LINE + 1)
            if line_end < 0:
                if len(buffer) > _MAX_REQUEST_LINE:
                    raise APIError(414, f"request line over {_MAX_REQUEST_LINE} bytes")
                return None
            # The blank line after the headers; like every line, it may end
            # in CRLF or a bare LF.  Past the header cap, stop looking.
            limit = line_end + _MAX_HEADER_BYTES + 3
            crlf = buffer.find(b"\n\r\n", line_end, limit)
            lf = buffer.find(b"\n\n", line_end, limit)
            end = min(crlf, lf) if crlf >= 0 and lf >= 0 else max(crlf, lf)
            if end - line_end > _MAX_HEADER_BYTES or (end < 0 and len(buffer) >= limit):
                raise APIError(431, f"request headers over {_MAX_HEADER_BYTES} bytes")
            if end < 0:
                self._reading()
                return None
            request, length = _parse_head(buffer[:end].decode("latin1"))
            start = end + (3 if end == crlf else 2)
        else:
            request, start, length = self.head
        if len(buffer) < start + length:
            self.head = (request, start, length)
            self._reading()
            return None
        body = bytes(buffer[start:start + length]) if length else b""
        del buffer[:start + length]
        self.head = None
        self.reading = False
        self.deadline = None
        if body and not request.path.startswith("/artifacts/"):
            # JSON bodies merge into the query parameters (body wins);
            # /artifacts bodies stay raw bytes -- opaque store payloads.
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as error:
                raise APIError(400, f"request body is not valid JSON: {error}") from error
            if not isinstance(payload, dict):
                raise APIError(400, "JSON request body must be an object")
            request.params.update(payload)
        else:
            request.body = body
        return request

    async def _serve(self, request: _Request) -> None:
        """Serve one request as a coroutine, then go on with the buffer."""
        try:
            await self.server._dispatch(request, self)
        except Exception:  # pragma: no cover - last-resort guard
            self._fail()
            return
        finally:
            self.task = None
        if request.keep_alive and not self.transport.is_closing():
            self._arm(_KEEPALIVE_TIMEOUT)
            self._process()
        else:
            self.transport.close()

    def _fail(self) -> None:
        logger.exception("unhandled error serving a request")
        self.respond_json(500, {"error": "internal server error"}, close=True)
        self.transport.close()

    # -- deadlines -----------------------------------------------------------------

    def _reading(self) -> None:
        """Arm the read deadline, once per request, when its line is in."""
        if not self.reading:
            self.reading = True
            self._arm(_READ_TIMEOUT)

    def _arm(self, timeout: float) -> None:
        """Drop the connection ``timeout`` seconds from now."""
        self.deadline = deadline = self.loop.time() + timeout
        # A later deadline reuses the pending timer, which re-arms itself
        # when it fires early; only an earlier one replaces it.
        if self.timer is None or deadline < self.timer_at:
            if self.timer is not None:
                self.timer.cancel()
            self.timer_at = deadline
            self.timer = self.loop.call_at(deadline, self._expire)

    def _expire(self) -> None:
        self.timer = None
        if self.deadline is None:
            return
        if self.deadline > self.timer_at:
            self.timer_at = self.deadline
            self.timer = self.loop.call_at(self.deadline, self._expire)
            return
        # An idle keep-alive connection, or a client too slow to deliver
        # the request it started: drop it either way.
        self.transport.close()

    # -- writing -------------------------------------------------------------------

    def respond(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
        *,
        close: bool = False,
    ) -> None:
        """Write one response, echoing the current request's trace id."""
        self.status = status
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if headers:
            for name, value in headers.items():
                head += f"{name}: {value}\r\n"
        if self.trace_id and not (headers and TRACE_HEADER in headers):
            head += f"{TRACE_HEADER}: {self.trace_id}\r\n"
        head += "Connection: close\r\n\r\n" if close else "Connection: keep-alive\r\n\r\n"
        self.transport.write(head.encode("latin1") + body)

    def respond_json(self, status: int, payload: dict, *, close: bool = False) -> None:
        self.respond(status, _json_body(payload), "application/json", close=close)

    def start_stream(self) -> None:
        """The committed 200 head of a chunked NDJSON stream."""
        self.status = 200
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
        )
        if self.trace_id:
            head += f"{TRACE_HEADER}: {self.trace_id}\r\n"
        self.transport.write((head + "Connection: close\r\n\r\n").encode("latin1"))

    async def drain(self) -> None:
        """Wait until the transport takes writes again; raise once it is gone."""
        if self.writing_paused and not self.closed:
            self.drained = self.loop.create_future()
            await self.drained
        if self.closed:
            raise ConnectionResetError("connection lost")

    def _wake(self) -> None:
        if self.drained is not None and not self.drained.done():
            self.drained.set_result(None)

    # -- streams -------------------------------------------------------------------

    def watch(self, cancel: Callable[[], None] | None) -> None:
        """Call ``cancel`` once the client hangs up or sends anything more.

        A stream's client sends nothing after its request, so EOF, stray
        bytes or a lost connection all mean it abandoned the stream.
        """
        self.on_abandon = cancel
        if self.buffer or self.eof or self.closed:
            self._abandon()

    def _abandon(self) -> None:
        cancel, self.on_abandon = self.on_abandon, None
        if cancel is not None:
            cancel()


class _Exchange:
    """Trace, time, and access-log one request around its answer.

    Every request gets a root span in the service's trace ring (inbound
    ``X-Trace-Id``/``X-Request-Id`` joins the caller's trace) and a sample
    in the per-endpoint request-latency histogram, timed from ``started``;
    the trace id is echoed on the response.  The trace stays open for the
    request's full duration -- for a distributed ``/grid`` that is the
    whole stream, so worker spans arriving mid-run stitch into it.
    """

    __slots__ = ("server", "request", "conn", "started", "scope", "trace")

    def __init__(
        self, server: "StabilityAPIServer", request: _Request, conn: _Connection,
        started: float,
    ) -> None:
        self.server = server
        self.request = request
        self.conn = conn
        self.started = started

    def __enter__(self) -> Trace | SubTrace:
        request = self.request
        trace_id, parent_id = context_from_headers(request.headers)
        self.conn.status = 200
        self.scope = self.server.service.traces.request(
            f"{request.method} {request.path}",
            trace_id=trace_id, parent_id=parent_id,
            method=request.method, path=request.path,
        )
        self.trace = trace = self.scope.__enter__()
        self.conn.trace_id = trace.trace_id
        return trace

    def __exit__(self, *exc) -> None:
        try:
            conn, server, request = self.conn, self.server, self.request
            conn.trace_id = None
            duration_ms = (time.perf_counter() - self.started) * 1e3
            REGISTRY.observe("request", server._route_label(request.path), duration_ms)
            if server.access_log:
                server._log_access(request, self.trace, duration_ms, conn.status)
        finally:
            self.scope.__exit__(*exc)


class StabilityAPIServer:
    """Asyncio HTTP server routing requests to a :class:`StabilityService`.

    Connections are keep-alive: after each response the server waits up to
    :data:`_KEEPALIVE_TIMEOUT` seconds for the next request on the same
    socket, so a peer's :class:`~repro.engine.backends.RemoteBackend`
    fetches hundreds of artifacts over one TCP connection.  Non-streaming
    requests are bounded by ``request_timeout`` seconds (``None`` disables);
    a timed-out request answers 504 and closes the connection (the
    underlying worker thread cannot be interrupted, but the socket stops
    waiting on it).

    Two further bounds protect the event loop from hostile or broken
    clients: once a request line arrives, the complete headers and body must
    follow within :data:`_READ_TIMEOUT` seconds (slowloris-style trickled
    requests are dropped instead of pinning buffered bytes), and at most
    :data:`_MAX_CONNECTIONS` sockets are served concurrently -- excess
    connections are answered 503 and closed immediately.
    """

    def __init__(
        self,
        service: StabilityService,
        *,
        host: str = "127.0.0.1",
        port: int = 8732,
        request_timeout: float | None = 300.0,
        access_log: bool = False,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        #: One structured JSON line per request on stdout (silent by default).
        self.access_log = access_log
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        #: ETag -> 200 body of computed /measure answers, least recently
        #: used first.  Only the event loop touches it, so it needs no lock.
        self._measure_bodies: OrderedDict[str, bytes] = OrderedDict()
        self._routes: dict[str, Callable[[_Request], Awaitable[dict | _RawResponse]]] = {
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
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("repro-serve listening on http://%s:%d", self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
        # Idle keep-alive connections would otherwise linger until their
        # timeout; close them and cancel what they serve, so shutdown is
        # prompt and the event loop tears down clean.
        tasks = [conn.task for conn in self._connections if conn.task is not None]
        for task in tasks:
            task.cancel()
        for conn in list(self._connections):
            conn.transport.close()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._connections.clear()
        # A lease grant writes its checkpoint through the store on this
        # thread, so this thread has connections to the store's peers.
        for peer in self.service.store.remote_peers():
            peer.client.release()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- dispatch ----------------------------------------------------------------

    def _answer_now(self, request: _Request, conn: _Connection) -> bool:
        """Write a stored ``/measure`` answer or a 304 in the current loop turn.

        The answer, its root span, histogram sample, trace id echo and
        access-log line are the ones :meth:`_dispatch` would produce.
        Returns False, having written nothing, for any other request --
        including a malformed ``/measure``, whose error the coroutine path
        answers under the request's trace.
        """
        if request.path != "/measure" or request.method not in ("GET", "POST"):
            return False
        started = time.perf_counter()
        try:
            etag, _ = self._measure_query(request.params)
        except Exception:
            return False
        revalidated = _etag_matches(request.headers.get("if-none-match"), etag)
        body = None if revalidated else self._measure_bodies.get(etag)
        if not revalidated and body is None:
            return False
        headers = {"ETag": f'"{etag}"'}
        with _Exchange(self, request, conn, started) as trace:
            close = not request.keep_alive
            if revalidated:
                conn.respond(304, b"", "application/json", headers, close=close)
            else:
                # The answer is a pure function of its ETag too, so a stored
                # body is written as it is: no thread hop, no service call,
                # no JSON encode.
                self._measure_bodies.move_to_end(etag)
                self.service.count_measure_body_hit()
                trace.root.set(cached=True)
                conn.respond(200, body, "application/json", headers, close=close)
        return True

    async def _dispatch(self, request: _Request, conn: _Connection) -> None:
        """Route one request to its handler and write the answer."""
        with _Exchange(self, request, conn, time.perf_counter()):
            path = request.path
            if path in _STREAMS:
                request.keep_alive = False
            close = not request.keep_alive
            if path.startswith("/trace/"):
                answer = self._handle_trace(request)
            elif path.startswith("/artifacts/"):
                answer = self._handle_artifacts(request)
            elif request.method not in ("GET", "POST"):
                conn.respond_json(
                    405, {"error": f"method {request.method} not allowed"}, close=close
                )
                return
            elif path == "/grid":
                answer = self._handle_grid_stream(request, conn)
            elif path == "/monitor/events":
                answer = self._handle_monitor_events(request, conn)
            elif path in self._routes:
                answer = self._routes[path](request)
            else:
                conn.respond_json(
                    404,
                    {"error": f"unknown path {path!r}",
                     "paths": sorted(
                         [*self._routes, "/artifacts", *_STREAMS, "/trace/recent"]
                     )},
                    close=close,
                )
                return
            if path not in _STREAMS:
                # Streams run until done or abandoned.
                answer = asyncio.wait_for(answer, self.request_timeout)
            try:
                payload = await answer
            except asyncio.TimeoutError:
                # The worker thread keeps running, but the client stops
                # waiting; close so a retry lands on a fresh connection.
                conn.respond_json(
                    504, {"error": f"request exceeded {self.request_timeout:.0f}s"},
                    close=True,
                )
                request.keep_alive = False
            except APIError as error:
                conn.respond_json(error.status, {"error": str(error)}, close=close)
            except (ValueError, KeyError) as error:
                # Domain validation: unknown algorithm/task/criterion names
                # raise KeyError from the registries, bad values ValueError.
                message = error.args[0] if error.args else str(error)
                conn.respond_json(400, {"error": str(message)}, close=close)
            except Exception as error:  # pragma: no cover - defensive
                logger.exception("request to %s failed", path)
                conn.respond_json(
                    500, {"error": f"{type(error).__name__}: {error}"}, close=close
                )
            else:
                if isinstance(payload, _RawResponse):
                    conn.respond(
                        payload.status, payload.body, payload.content_type,
                        payload.headers, close=close,
                    )
                elif payload is not None:        # a stream wrote its own answer
                    conn.respond_json(200, payload, close=close)

    def _route_label(self, path: str) -> str:
        """A bounded-cardinality histogram label for one request path."""
        if path.startswith("/artifacts"):
            return "/artifacts"
        if path.startswith("/trace"):
            return "/trace"
        if path in self._routes or path in _STREAMS:
            return path
        return "other"

    def _log_access(
        self, request: _Request, trace, duration_ms: float, status: int
    ) -> None:
        entry = {
            "ts": round(time.time(), 3),
            "method": request.method,
            "path": request.path,
            "status": status,
            "duration_ms": round(duration_ms, 3),
            "trace_id": trace.trace_id,
        }
        # Serving-path flags annotated onto the root span (coalesced with
        # another identical request, written from stored /measure bytes)
        # surface in the log line when set.
        attrs = getattr(trace.root, "attrs", None) or {}
        for flag in ("coalesced", "cached", "error"):
            if flag in attrs:
                entry[flag] = attrs[flag]
        print(json.dumps(entry, sort_keys=True), flush=True)

    async def _offload(self, fn, *args):
        """Run blocking store work on the service's bounded pool.

        /artifacts traffic (disk reads, on-the-fly npz encoding of
        memory-only pairs) goes through the same ``max_concurrency`` pool as
        the numerical endpoints, so peer fetches cannot spawn unbounded
        default-executor threads around the service's concurrency limit.
        The request timeout bounds the wait.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.service.executor, bind(fn), *args)

    # -- /artifacts: the store's byte-level peer API ----------------------------

    async def _handle_artifacts(self, request: _Request) -> dict | _RawResponse:
        """Serve raw store payloads so peers can use this node as a tier."""
        match = _ARTIFACT_PATH.match(unquote(request.path))
        if match is None:
            raise APIError(
                404, "artifact paths look like /artifacts/<kind>/<key>.{json,npz}"
            )
        kind, name = match.group(1), match.group(2)
        store = self.service.store
        # The name IS a content hash: any cached copy under it is current
        # forever, so successful reads are immutable-cacheable and a matching
        # If-None-Match validates without moving a byte.
        cache_headers = {
            "ETag": f'"{name}"',
            "Cache-Control": "public, max-age=31536000, immutable",
        }
        # Store tiers touch the disk: off the event loop.
        method = request.method
        if method in ("GET", "HEAD") and _etag_matches(
            request.headers.get("if-none-match"), name
        ):
            if not await self._offload(store.contains_bytes, kind, name):
                raise APIError(404, f"no artifact {kind}/{name}")
            return _RawResponse(304, b"", "application/octet-stream", cache_headers)
        if method == "GET":
            payload = await self._offload(store.get_bytes, kind, name)
            if payload is None:
                raise APIError(404, f"no artifact {kind}/{name}")
            return _RawResponse(200, payload, "application/octet-stream", cache_headers)
        if method == "HEAD":
            found = await self._offload(store.contains_bytes, kind, name)
            return _RawResponse(
                200 if found else 404, b"", "application/octet-stream",
                cache_headers if found else {},
            )
        if method == "PUT":
            if not request.body:
                raise APIError(400, "PUT needs a request body")
            await self._offload(store.put_bytes, kind, name, request.body)
            return {"stored": f"{kind}/{name}", "bytes": len(request.body)}
        if method == "DELETE":
            await self._offload(store.delete_bytes, kind, name)
            return {"deleted": f"{kind}/{name}"}
        raise APIError(405, f"method {method} not allowed")

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

    async def _handle_trace(self, request: _Request) -> dict | _RawResponse:
        """Serve the trace ring: summaries, or one trace's spans as NDJSON."""
        if request.method != "GET":
            raise APIError(405, "trace endpoints are read-only; use GET")
        buffer = self.service.traces
        if request.path == "/trace/recent":
            limit = _int_param(request.params, "limit", 50) or 50
            return {"traces": buffer.recent(limit), "counters": buffer.counters()}
        trace_id = unquote(request.path[len("/trace/"):])
        rows = buffer.get(trace_id) if trace_id else None
        if rows is None:
            raise APIError(404, f"no retained trace {trace_id!r}")
        body = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        return _RawResponse(200, body.encode("utf-8"), "application/x-ndjson")

    # -- /measure ----------------------------------------------------------------

    def _measure_query(self, params: dict) -> tuple[str, tuple]:
        """The ETag of a ``/measure`` request, and the arguments computing it.

        The validator is a pure function of content-addressed keys, memoised
        after a cell's first request, so it is derived on the event loop and
        a revalidation answers 304 before any numerical work happens.
        """
        algorithm = params.get("algorithm")
        if not algorithm:
            raise APIError(400, "missing required parameter 'algorithm'")
        algorithm = str(algorithm)
        measures = _tuple_param(params, "measures", cast=str)
        dim = _int_param(params, "dim", required=True)
        precision = _int_param(params, "precision", required=True)
        seed = _int_param(params, "seed", 0)
        etag = self.service.measure_etag(
            algorithm, dim, precision, seed, measures=measures
        )
        return etag, (algorithm, dim, precision, seed, measures)

    async def _handle_measure(self, request: _Request) -> _RawResponse:
        """Compute and store an answer :meth:`_answer_now` did not have."""
        etag, (algorithm, dim, precision, seed, measures) = self._measure_query(
            request.params
        )
        # The service blocks (possibly training) and its pool waits on its
        # own submits, so the call goes to the default executor.
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(
            None, bind(lambda: self.service.measure(
                algorithm, dim, precision, seed, measures=measures
            ))
        )
        body = _json_body(payload)
        self._measure_bodies[etag] = body
        while len(self._measure_bodies) > _MEASURE_BODY_ENTRIES:
            self._measure_bodies.popitem(last=False)
        return _RawResponse(200, body, "application/json", {"ETag": f'"{etag}"'})

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

    async def _handle_monitor_events(self, request: _Request, conn: _Connection) -> None:
        """Stream monitor lifecycle events as NDJSON (one event per line).

        ``since=<seq>`` starts after that sequence number (default 0: replay
        everything still buffered).  Without ``follow`` the buffered events
        are dumped and the stream ends -- the curl-friendly poll; with
        ``follow=true`` the connection tails new events until the client
        disconnects.
        """
        monitor = self._monitor()
        since = _int_param(request.params, "since", 0) or 0
        follow = _bool_param(request.params, "follow", False)
        cancelled = threading.Event()

        def events() -> Iterator[dict]:
            last = since
            while not cancelled.is_set():
                fresh = (
                    monitor.events.wait(last, 0.5) if follow
                    else monitor.events.events(last)
                )
                for event in fresh:
                    last = max(last, int(event["seq"]))
                    yield event
                if not follow:
                    return

        await self._stream_ndjson(conn, events(), lambda event: event, cancelled)

    # -- streaming /grid ---------------------------------------------------------

    async def _handle_grid_stream(self, request: _Request, conn: _Connection) -> None:
        """Run a grid and stream NDJSON records as cells complete.

        A client hanging up cancels the grid: the producer stops at the next
        record boundary, and the record iterator is closed, which releases
        the service's stream slot and, for distributed runs, cancels the run
        at the coordinator -- no further cells are submitted.
        """
        params = request.params
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
            "n_workers": _int_param(params, "workers", None),
            "model_type": str(params.get("model_type", "bow")),
            "distributed": _bool_param(params, "distributed", False),
            "config": config,
            "run_id": str(params["run_id"]) if params.get("run_id") else None,
        }
        # grid_iter validates axes eagerly, so a bad request is rejected
        # with a clean 400 *before* the streaming 200 is committed.
        try:
            records = self.service.grid_iter(**kwargs)
        except TypeError as error:           # e.g. an unknown config field
            raise APIError(400, str(error.args[0] if error.args else error)) from None
        await self._stream_ndjson(
            conn, records, lambda record: record.to_row(), threading.Event()
        )

    async def _stream_ndjson(
        self,
        conn: _Connection,
        items: Iterator,
        to_row: Callable[[object], dict],
        cancelled: threading.Event,
    ) -> None:
        """Stream ``to_row(item)`` of every item as one chunked NDJSON line.

        ``items`` blocks (cells complete, events arrive), so a thread
        iterates it and hands each line to the event loop, which writes it
        as one chunk and waits for the socket to drain.  When the client
        hangs up (see :meth:`_Connection.watch`) the stream is cancelled:
        ``cancelled`` is set, which the producer checks between items, and
        ``items`` is closed from the event loop's thread, so its ``close()``
        must be thread-safe or refuse with ``ValueError``.  A producer
        exception ends the stream with an ``{"error": ...}`` line.
        """
        loop = asyncio.get_running_loop()
        lines: asyncio.Queue[bytes | None] = asyncio.Queue()

        def cancel() -> None:
            cancelled.set()
            try:
                items.close()
            except ValueError:
                pass   # the producer is inside ``items``; it stops at the boundary

        def finish(error_line: bytes | None) -> None:
            if error_line is not None:
                lines.put_nowait(error_line)
            lines.put_nowait(None)

        def produce() -> None:
            error_line = None
            try:
                try:
                    for item in items:
                        if cancelled.is_set():
                            break
                        line = json.dumps(to_row(item), sort_keys=True) + "\n"
                        loop.call_soon_threadsafe(lines.put_nowait, line.encode("utf-8"))
                finally:
                    items.close()
            except Exception as error:       # surfaced as a terminal NDJSON line
                line = json.dumps({"error": f"{type(error).__name__}: {error}"}) + "\n"
                error_line = line.encode("utf-8")
            try:
                loop.call_soon_threadsafe(finish, error_line)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

        conn.start_stream()
        # bind(): the producer thread must see this request's trace context
        # so a distributed run's create_run captures it into the lease.
        threading.Thread(target=bind(produce), name="ndjson-stream", daemon=True).start()
        conn.watch(cancel)
        try:
            while (line := await lines.get()) is not None:
                conn.transport.write(b"%x\r\n%s\r\n" % (len(line), line))
                await conn.drain()
            conn.transport.write(b"0\r\n\r\n")            # the last chunk
        except ConnectionError:
            pass
        finally:
            conn.watch(None)
            cancel()                         # idempotent; benign after a clean finish


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
    # The store comes from the process-wide default that main() configured.
    service = StabilityService(
        quick_serve_config() if args.quick else None,
        config=ServiceConfig(
            max_concurrency=args.max_concurrency, grid_workers=args.workers,
            lease_ttl=args.lease_ttl,
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
    options.add_options(parser)
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
        "--access-log", action="store_true",
        help="print one structured JSON line per request to stdout "
             "(method, path, status, duration_ms, trace id, serving flags)",
    )
    args = parser.parse_args(argv)
    if args.monitor_webhook and not (args.monitor or args.monitor_distributed):
        parser.error("--monitor-webhook requires --monitor")
    options.check(parser, args)

    configure_logging()
    options.configure(args)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
