"""The one HTTP client between nodes: :class:`HTTPClient`.

:class:`~repro.engine.backends.RemoteBackend`,
:class:`~repro.cluster.worker.CoordinatorClient` and
:func:`~repro.cluster.client.stream_remote_grid` reach their peers through
it.  It owns the peer-URL check, one keep-alive connection per thread
(``http.client`` is not thread-safe), the trace headers, and two rules.
**Resend:** a request that got no answer goes once more on a fresh
connection, since the peer may have closed an idle keep-alive connection;
once an answer has started, a failure raises ``ConnectionError`` and
nothing is resent, since the peer may have acted on the request.
**Close:** :meth:`~HTTPClient.release` closes the calling thread's
connection, :meth:`~HTTPClient.close` the connection of every live thread.
"""

from __future__ import annotations

import http.client
import threading
import weakref
from urllib.parse import urlsplit

from repro.telemetry.trace import propagation_headers

__all__ = ["HTTPClient"]


class HTTPClient:
    """Requests to the peer at ``url`` (``what`` names it in errors), each
    thread on its own connection with socket timeout ``timeout``."""

    def __init__(self, url: str, *, what: str, timeout: float | None) -> None:
        if "://" not in url:
            url = f"http://{url}"
        split = urlsplit(url)
        if split.scheme not in ("http", "https"):
            raise ValueError(f"unsupported {what} scheme {split.scheme!r}")
        if not split.hostname:
            raise ValueError(f"{what} URL has no host: {url!r}")
        self.url = url
        self.what = what
        self.timeout = timeout
        self._factory = (
            http.client.HTTPSConnection if split.scheme == "https" else http.client.HTTPConnection
        )
        self._address = (split.hostname, split.port)
        self._base_path = split.path.rstrip("/")
        self._local = threading.local()
        # Every thread's connection, so that close() reaches them from any
        # thread.  Weak: a thread that ends without release() takes its
        # connection with it instead of leaving the socket open here.
        self._lock = threading.Lock()
        self._conns: weakref.WeakSet = weakref.WeakSet()

    def connect(self) -> http.client.HTTPConnection:
        """A new connection outside the pool; its caller closes it."""
        return self._factory(*self._address, timeout=self.timeout)

    def send(self, conn, method: str, path: str, body: bytes | None, headers: dict):
        """Send one request on ``conn``; the head of its answer."""
        headers = {**headers, **propagation_headers()}
        conn.request(method, f"{self._base_path}{path}", body=body, headers=headers)
        return conn.getresponse()

    def request(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[int, bytes]:
        """``(status, body)`` of one request on this thread's connection.

        Raises ``ConnectionError`` when the peer stays unreachable or breaks
        its answer off; the caller judges the status.
        """
        error: Exception | None = None
        for _ in (0, 1):
            conn = self._connection()
            try:
                response = self.send(conn, method, path, body, headers)
            except (OSError, http.client.HTTPException) as failure:
                # No answer: the peer may have closed an idle keep-alive
                # connection, so the request goes once more on a fresh one.
                self.release()
                error = failure
                continue
            try:
                return response.status, response.read()
            except (OSError, http.client.HTTPException) as failure:
                self.release()
                raise ConnectionError(
                    f"{self.what} {self.url} broke off its answer to {method} {path}: "
                    f"{failure}"
                ) from failure
        raise ConnectionError(f"{self.what} {self.url} unreachable: {error}")

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self.connect()
            with self._lock:
                self._conns.add(conn)
        return conn

    def release(self) -> None:
        """Close the calling thread's connection."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def close(self) -> None:
        """Close the connection of every live thread (from any thread); a
        thread's next request reconnects."""
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()
