"""HTTP/1.1 framing of the serving core over raw sockets.

Pinned here: idle keep-alive connections close, pipelined requests answer
in order (a stored /measure answer never overtakes a request still being
served on its connection), the read deadline is armed once per request, a
stream's client sending stray bytes cancels it, bare-LF line endings parse,
``Connection`` is read as a token list, the hand split of a request target
equals ``urlsplit`` plus ``parse_qs``, an oversized body answers 413 and an
over-long request line 414, a connection whose transport paused writing
parses nothing more, and a busy connection stops reading once its buffer
passes its bound.
"""

import asyncio
import json
import select
import socket
import threading
import time
import warnings
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving import StabilityService
from repro.serving import api as api_module
from repro.serving.api import (
    StabilityAPIServer, _Connection, _parse_head, quick_serve_config,
)

from tests.serving.test_api import live_server, request

WARM = "/measure?algorithm=svd&dim=4&precision=1"
COLD = "/measure?algorithm=svd&dim=6&precision=32"


@pytest.fixture(scope="module")
def service():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        svc = StabilityService(quick_serve_config())
    yield svc
    svc.close()


def connect(api) -> socket.socket:
    return socket.create_connection(("127.0.0.1", api.port), timeout=30)


def read_responses(sock: socket.socket, count: int) -> list[tuple[int, dict, bytes]]:
    """``count`` responses off ``sock``: status, headers and body of each."""
    data, responses = b"", []
    while len(responses) < count:
        end = data.find(b"\r\n\r\n")
        length = None
        if end >= 0:
            lines = data[:end].decode("latin1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines[1:])
            length = int(headers["Content-Length"])
        if length is None or len(data) < end + 4 + length:
            chunk = sock.recv(1 << 16)
            assert chunk, f"connection closed after {len(responses)} responses"
            data += chunk
            continue
        body = data[end + 4:end + 4 + length]
        responses.append((int(lines[0].split(" ")[1]), headers, body))
        data = data[end + 4 + length:]
    return responses


def closed_by_server(sock: socket.socket, timeout: float) -> bool:
    """Whether the server closes ``sock`` within ``timeout`` seconds, unanswered."""
    readable, _, _ = select.select([sock], [], [], timeout)
    if not readable:
        return False
    try:
        return sock.recv(1024) == b""
    except ConnectionResetError:
        return True


class TestKeepAliveDeadlines:
    # The last answer comes from a coroutine (/healthz) or is written from
    # stored bytes (a repeated /measure).
    @pytest.mark.parametrize("path", ["/healthz", WARM])
    def test_an_idle_connection_is_closed_after_keepalive_timeout(
        self, service, path, monkeypatch
    ):
        monkeypatch.setattr(api_module, "_KEEPALIVE_TIMEOUT", 0.3)
        with live_server(service) as api:
            request(api, WARM)
            sock = connect(api)
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
            ((status, headers, _),) = read_responses(sock, 1)
            assert status == 200 and headers["Connection"] == "keep-alive"
            start = time.monotonic()
            assert closed_by_server(sock, timeout=10)
            assert time.monotonic() - start >= 0.2
            sock.close()

    def test_a_trickled_request_is_dropped_at_read_timeout(self, service, monkeypatch):
        # One header byte every 0.1 s keeps data arriving, but the read
        # deadline runs from the request line: it is not re-armed per chunk.
        monkeypatch.setattr(api_module, "_READ_TIMEOUT", 0.5)
        with live_server(service) as api:
            sock = connect(api)
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            start = time.monotonic()
            dropped = False
            for _ in range(100):                      # 10 s of trickling
                try:
                    sock.sendall(b"x")
                except (BrokenPipeError, ConnectionResetError):
                    dropped = True
                    break
                if closed_by_server(sock, timeout=0.1):
                    dropped = True
                    break
            elapsed = time.monotonic() - start
            sock.close()
        assert dropped
        assert 0.4 <= elapsed < 3.0


class TestPipelining:
    # The cold cell's computation warns about the tiny vocabulary.
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_three_pipelined_measures_answer_in_order(self, service, monkeypatch):
        # The cold request is held on its executor thread for a while, so a
        # stored answer written ahead of it would arrive second.
        original = service.measure

        def slow_measure(*args, **kwargs):
            time.sleep(0.3)
            return original(*args, **kwargs)

        with live_server(service) as api:
            warm_body = request(api, WARM)[1]        # stored by this server
            monkeypatch.setattr(service, "measure", slow_measure)
            sock = connect(api)
            sock.sendall(b"".join(
                f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
                for path in (WARM, COLD, WARM)
            ))
            responses = read_responses(sock, 3)
            sock.close()
        assert [status for status, _, _ in responses] == [200, 200, 200]
        assert responses[0][2] == warm_body == responses[2][2]
        answer = json.loads(responses[1][2])
        assert (answer["dim"], answer["precision"]) == (6, 32)


class TestStreamAbandonment:
    def test_stray_bytes_cancel_a_grid_stream(self, service, monkeypatch):
        # A stream's client sends nothing after its request: anything it
        # does send means it stopped reading, as a hang-up does.
        from repro.instability.grid import GridRecord

        closed = threading.Event()
        produced = []

        def slow_run_iter(**kwargs):
            try:
                for index in range(500):
                    produced.append(index)
                    yield GridRecord(
                        algorithm="svd", task="sst2", dim=4, precision=1,
                        seed=index, disagreement=0.1,
                        accuracy_a=0.9, accuracy_b=0.9, measures={},
                    )
                    time.sleep(0.02)
            finally:
                closed.set()

        monkeypatch.setattr(service.engine, "run_iter", slow_run_iter)
        with live_server(service) as api:
            sock = connect(api)
            sock.sendall(b"GET /grid?dims=4&precisions=1 HTTP/1.1\r\nHost: t\r\n\r\n")
            data = b""
            while b"algorithm" not in data:
                data += sock.recv(4096)
            sock.sendall(b"x")                       # the socket stays open
            assert closed.wait(timeout=15), "record generator was never closed"
            while chunk := sock.recv(4096):          # the stream ends, then the socket
                data += chunk
            sock.close()
        assert len(produced) < 500                   # cancelled, not finished
        assert data.endswith(b"\r\n0\r\n\r\n")


class TestLineEndings:
    def test_bare_lf_requests_are_accepted(self, service):
        with live_server(service) as api:
            body = json.dumps({"algorithm": "svd", "dim": 4, "precision": 1}).encode()
            sock = connect(api)
            sock.sendall(
                b"GET /healthz HTTP/1.1\nHost: t\n\n"
                b"POST /measure HTTP/1.1\nHost: t\r\n"
                + f"Content-Length: {len(body)}\n\n".encode() + body
            )
            (health, measure) = read_responses(sock, 2)
            sock.close()
            expected = request(api, WARM)[1]
        assert health[0] == 200 and json.loads(health[2])["status"] == "ok"
        assert measure[0] == 200 and measure[2] == expected


class TestConnectionOptions:
    # Connection is a comma-separated, case-insensitive token list (RFC
    # 9110 7.6.1): "close" anywhere in it closes, and on HTTP/1.0
    # "keep-alive" anywhere in it persists.
    @pytest.mark.parametrize("version, connection, keep_alive", [
        ("HTTP/1.1", None, True),
        ("HTTP/1.1", "keep-alive", True),
        ("HTTP/1.1", "close", False),
        ("HTTP/1.1", "close, TE", False),
        ("HTTP/1.1", "TE,Close", False),
        ("HTTP/1.0", None, False),
        ("HTTP/1.0", "TE", False),
        ("HTTP/1.0", "Keep-Alive, TE", True),
        ("HTTP/1.0", "keep-alive, close", False),
    ])
    def test_the_header_is_a_token_list(self, version, connection, keep_alive):
        head = f"GET /healthz {version}\r\nHost: t\r"
        if connection is not None:
            head += f"\nConnection: {connection}\r"
        request, _ = _parse_head(head)
        assert request.keep_alive is keep_alive

    # The last answer comes from a coroutine (/healthz) or is written from
    # stored bytes (a repeated /measure).
    @pytest.mark.parametrize("path", ["/healthz", WARM])
    def test_close_among_other_options_closes_an_http11_connection(self, service, path):
        with live_server(service) as api:
            request(api, WARM)
            sock = connect(api)
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close, TE\r\n"
                "TE: trailers\r\n\r\n".encode()
            )
            ((status, headers, _),) = read_responses(sock, 1)
            # Well inside the 30 s keep-alive timeout.
            closed = closed_by_server(sock, timeout=5)
            sock.close()
        assert status == 200 and headers["Connection"] == "close"
        assert closed

    @pytest.mark.parametrize("path", ["/healthz", WARM])
    def test_keep_alive_among_other_options_persists_an_http10_connection(
        self, service, path
    ):
        head = (
            f"GET {path} HTTP/1.0\r\nHost: t\r\nConnection: Keep-Alive, TE\r\n"
            "TE: trailers\r\n\r\n"
        ).encode()
        with live_server(service) as api:
            request(api, WARM)
            sock = connect(api)
            sock.sendall(head)
            ((first, headers, _),) = read_responses(sock, 1)
            closed = closed_by_server(sock, timeout=0.3)
            sock.sendall(head)                        # the same socket again
            ((second, _, _),) = read_responses(sock, 1)
            sock.close()
        assert first == 200 and headers["Connection"] == "keep-alive"
        assert not closed and second == 200


#: Characters of a target's path and query: unreserved and sub-delims
#: (``;`` among them), and latin-1 bytes at or above 0x80 as the server
#: decodes them.
_PLAIN = st.one_of(
    st.sampled_from("abcXYZ019-._~!$'()*,;:@/"),
    st.characters(min_codepoint=0x80, max_codepoint=0xFF),
)
#: What the hand split leaves to the stdlib: escapes (the last two are
#: invalid ones, which stay as they are), a '+' for a space, a fragment,
#: and the tab and CR ``urlsplit`` strips.
_SPECIALS = ("%41", "%2b", "%c3%a4", "%", "%zz", "+", "#", "\t", "\r")


def _targets(atoms, prefix: str = "/"):
    """Request targets whose path and query are built from ``atoms``.

    Queries mix ``name=value``, ``a=b=c``, blank values, bare names, empty
    fields and repeated names.
    """
    text = st.lists(atoms, max_size=8).map("".join)
    name = st.one_of(st.sampled_from(["dim", "seed", "a", "\xe4"]), text)
    field = st.one_of(
        st.lists(st.one_of(name, text), min_size=2, max_size=3).map("=".join),
        name.map(lambda key: key + "="),
        name,
    )
    query = st.lists(field, max_size=6).map(lambda fields: "?" + "&".join(fields))
    return st.builds(
        lambda path, query: prefix + path + query, text, st.one_of(st.just(""), query)
    )


_TARGETS = st.one_of(
    _targets(_PLAIN),                                          # the hand split
    # One kind of special character per target, so each part of the
    # guard decides some targets on its own ...
    st.sampled_from(_SPECIALS).flatmap(
        lambda special: _targets(st.one_of(_PLAIN, st.just(special)))
    ),
    # ... and targets not in plain origin form: ``//host/p?q``, ``http://h/p?q``.
    st.sampled_from(["//h/", "//a.b:8/", "http://h/", "HTTP://a.b/"]).flatmap(
        lambda prefix: _targets(_PLAIN, prefix)
    ),
)


class TestTargetSplit:
    @settings(max_examples=200, deadline=None)
    @given(target=_TARGETS)
    @example(target="/measure?algorithm=svd&dim=4&precision=1&seed=0")
    @example(target="/m;p?a=1;b=2&a=3&b=&c&=v&d=x=y&&\xe4=\xff")
    @example(target="/m?a=1&a=2&b=&c&=v&d=x=y&&e=%41+b#f")
    @example(target="/m?a=%41")
    @example(target="/m?a=b+c")
    @example(target="/m?a=b#c")
    @example(target="/m?a=b\tc")
    @example(target="/m?a=b\rc")
    @example(target="//h/m?a=1")
    @example(target="http://h/m?a=1")
    def test_the_hand_split_equals_the_stdlib(self, target):
        request, _ = _parse_head(f"GET {target} HTTP/1.1\r\nHost: t\r")
        split = urlsplit(target)
        assert request.path == split.path
        assert request.params == {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }


class TestRequestLimits:
    def test_a_json_body_over_1_mib_is_413_before_it_arrives(self, service):
        with live_server(service) as api:
            sock = connect(api)
            sock.sendall(
                b"POST /measure HTTP/1.1\r\nHost: t\r\nContent-Length: 2000000\r\n\r\n"
            )
            ((status, headers, body),) = read_responses(sock, 1)
            assert closed_by_server(sock, timeout=10)
            sock.close()
        assert status == 413
        assert headers["Connection"] == "close"
        assert json.loads(body) == {"error": f"request body over {1 << 20} bytes"}

    def test_a_request_line_over_64_kib_is_414(self, service):
        with live_server(service) as api:
            sock = connect(api)
            try:
                sock.sendall(b"GET /healthz?q=" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
            except (BrokenPipeError, ConnectionResetError):
                pass                                  # the server already answered
            ((status, headers, body),) = read_responses(sock, 1)
            assert closed_by_server(sock, timeout=10)
            sock.close()
        assert status == 414
        assert headers["Connection"] == "close"
        assert "request line" in json.loads(body)["error"]


class _Transport(asyncio.Transport):
    """Records writes and read pauses; stands in for a socket transport."""

    def __init__(self) -> None:
        super().__init__()
        self.written = b""
        self.closing = False
        self.reading = True

    def write(self, data) -> None:
        self.written += bytes(data)

    def close(self) -> None:
        self.closing = True

    def is_closing(self) -> bool:
        return self.closing

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


class TestBackPressure:
    def test_nothing_is_parsed_while_writing_is_paused(self, service):
        async def scenario() -> tuple[bytes, bytes]:
            api = StabilityAPIServer(service, port=0)
            transport = _Transport()
            conn = _Connection(api)
            conn.connection_made(transport)
            conn.pause_writing()
            conn.data_received(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            await asyncio.sleep(0.05)
            paused = transport.written
            conn.resume_writing()
            await conn.task
            return paused, transport.written

        paused, resumed = asyncio.run(scenario())
        assert paused == b""
        assert resumed.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_a_busy_connection_stops_reading_past_its_buffer_bound(self, service):
        async def scenario() -> list[bool]:
            api = StabilityAPIServer(service, port=0)
            transport = _Transport()
            conn = _Connection(api)
            conn.connection_made(transport)
            conn.pause_writing()                     # busy: nothing is parsed
            reading = []
            for _ in range(3):
                conn.data_received(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" * 2000)
                reading.append(transport.reading)
            conn.resume_writing()                    # back to parsing
            reading.append(transport.reading)
            if conn.task is not None:
                conn.task.cancel()
            return reading

        # 2000 requests are 74 KB: the second batch passes the 128 KiB bound.
        assert asyncio.run(scenario()) == [True, False, False, True]
