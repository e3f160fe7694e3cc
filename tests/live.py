"""Servers for tests that talk HTTP.

* :func:`live_server` -- a :class:`StabilityAPIServer` on an ephemeral port,
  with its own event-loop thread; on exit the server stops and its loop
  closes.
* :func:`live_cluster` -- a quick-config coordinator behind a live server,
  plus two :class:`ClusterWorker`\\ s polling it.
* :class:`RawPeer` -- a socket that writes scripted HTTP answers verbatim,
  for the answers a real server never gives (cut off mid-body or
  mid-chunk).
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
import warnings

from repro.cluster import ClusterWorker
from repro.serving import ServiceConfig, StabilityService
from repro.serving.api import StabilityAPIServer, quick_serve_config


@contextlib.contextmanager
def live_server(service, **kwargs):
    """A live server on an ephemeral port, with its own event-loop thread."""
    api = StabilityAPIServer(service, port=0, **kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(api.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=30), "server failed to start"
    try:
        yield api
    finally:
        asyncio.run_coroutine_threadsafe(api.stop(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


@contextlib.contextmanager
def live_cluster(monitor=None):
    """A live quick-config coordinator plus two polling workers.

    Yields ``(api, url, workers)``; the workers are ``worker-0`` and
    ``worker-1``.  ``monitor`` is a ``MonitorConfig`` to enable on the
    coordinator's service.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        service = StabilityService(quick_serve_config(), config=ServiceConfig(lease_ttl=30))
    if monitor is not None:
        service.enable_monitor(monitor)
    with service, live_server(service) as api:
        url = f"http://127.0.0.1:{api.port}"
        workers = [
            ClusterWorker(url, worker_id=f"worker-{index}", poll_interval=0.05)
            for index in range(2)
        ]
        threads = [threading.Thread(target=worker.run, daemon=True) for worker in workers]
        for thread in threads:
            thread.start()
        try:
            yield api, url, workers
        finally:
            for worker in workers:
                worker.stop()
            for thread in threads:
                thread.join(timeout=30)


def ok(body: bytes) -> bytes:
    """A complete 200 answer carrying ``body``."""
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


def chunk(data: bytes) -> bytes:
    """``data`` as one chunk of a chunked answer."""
    return b"%x\r\n%s\r\n" % (len(data), data)


#: The head of a streamed (chunked) 200 answer.
CHUNKED_HEAD = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
#: The last chunk, which ends a chunked answer.
LAST_CHUNK = b"0\r\n\r\n"


class RawPeer:
    """An HTTP peer on a raw socket that writes scripted answers.

    The n-th request it reads gets ``answers[n]``, a pair ``(raw bytes,
    keep_open)``: with ``keep_open`` the connection waits for its next
    request, otherwise it closes once the bytes are out, which is how an
    answer breaks off.  Requests past the script get a 500.  ``requests``
    lists each request's ``(method, path)``; :meth:`wait_hangups` waits
    for connections that the client closed.
    """

    def __init__(self, answers: list[tuple[bytes, bool]]) -> None:
        self.answers = list(answers)
        self.requests: list[tuple[str, str]] = []
        self.hangups = 0
        self._changed = threading.Condition()
        self._open: set[socket.socket] = set()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def __enter__(self) -> "RawPeer":
        return self

    def __exit__(self, *exc) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)     # wakes accept()
        self._listener.close()
        self.drop_connections()
        for thread in self._threads:
            thread.join(timeout=10)

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:          # the listener closed
                return
            with self._changed:
                self._open.add(conn)
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            hung_up = self._answer(conn)
        except OSError:
            hung_up = True           # reset by the client
        with self._changed:
            if conn in self._open:   # not dropped by this side
                self._open.discard(conn)
                self.hangups += hung_up
            conn.close()
            self._changed.notify_all()

    def _answer(self, conn: socket.socket) -> bool:
        """Answer requests until one's answer closes the connection (False)
        or the client hangs up (True)."""
        with conn.makefile("rb") as reader:
            while line := reader.readline():
                length = 0
                while header := reader.readline().strip():
                    name, _, value = header.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                reader.read(length)
                method, path, _ = line.decode("latin-1").split(" ", 2)
                with self._changed:
                    self.requests.append((method, path))
                    index = len(self.requests) - 1
                raw, keep_open = (
                    self.answers[index] if index < len(self.answers)
                    else (b"HTTP/1.1 500 Script Ended\r\nContent-Length: 0\r\n\r\n", False)
                )
                conn.sendall(raw)
                if not keep_open:
                    return False
        return True

    def drop_connections(self) -> None:
        """Close every open connection from the server's side, as an idle
        timeout would."""
        with self._changed:
            for conn in self._open:
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_RDWR)
            self._open.clear()

    def wait_hangups(self, count: int, timeout: float = 10.0) -> bool:
        """Whether the client closed ``count`` connections within ``timeout``."""
        with self._changed:
            return self._changed.wait_for(lambda: self.hangups >= count, timeout)
