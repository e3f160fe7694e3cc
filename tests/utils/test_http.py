"""The one HTTP client's rules, against a raw-socket peer.

Resend: a request that got no answer goes once more on a fresh connection;
an answer that breaks off raises ``ConnectionError`` and is not resent.
Close: ``close()`` reaches every live thread's connection, and a thread that
ended leaves none behind.  The coordinator's side of the resend rule is
pinned in ``tests/cluster/test_distributed.py: TestCoordinatorClient``.
"""

import gc
import threading

import pytest

from repro.engine import RemoteBackend
from repro.utils.http import HTTPClient

from tests.live import RawPeer, ok

PATH = "/artifacts/k/a.json"
#: A 200 whose body stops 6 bytes short of its Content-Length.
BROKEN = (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhalf", False)


class TestResend:
    def test_a_get_on_a_connection_the_peer_closed_is_sent_once_more(self):
        with RawPeer([(ok(b"one"), True), (ok(b"two"), True)]) as peer:
            backend = RemoteBackend(peer.url)
            try:
                assert backend.get("k", "a.json") == b"one"
                # The peer closes the idle keep-alive connection: the next
                # GET gets no answer on it and goes again on a fresh one.
                peer.drop_connections()
                assert backend.get("k", "a.json") == b"two"
            finally:
                backend.close()
        assert peer.requests == [("GET", PATH), ("GET", PATH)]
        assert backend.stats.errors == 0

    def test_an_answer_that_breaks_off_raises_and_is_not_resent(self):
        with RawPeer([BROKEN]) as peer:
            client = HTTPClient(peer.url, what="peer", timeout=10)
            try:
                with pytest.raises(ConnectionError, match="broke off its answer to POST /x"):
                    client.request("POST", "/x", b"{}", {})
            finally:
                client.close()
        assert peer.requests == [("POST", "/x")]

    def test_a_store_get_whose_answer_breaks_off_is_a_miss_not_resent(self):
        with RawPeer([BROKEN]) as peer:
            backend = RemoteBackend(peer.url)
            try:
                assert backend.get("k", "a.json") is None
            finally:
                backend.close()
        assert peer.requests == [("GET", PATH)]
        # The peer died mid-answer: an error, and the breaker is open.
        assert backend.stats.errors == 1 and backend.breaker_open


class TestClose:
    def test_close_on_one_thread_closes_another_live_thread_s_connection(self):
        with RawPeer([(ok(b"x"), True)]) as peer:
            backend = RemoteBackend(peer.url)
            fetched, done = [], threading.Event()

            def fetch_and_wait() -> None:
                fetched.append(backend.get("k", "a.json"))
                done.wait(timeout=30)

            thread = threading.Thread(target=fetch_and_wait)
            thread.start()
            try:
                for _ in range(1000):
                    if fetched:
                        break
                    done.wait(0.01)
                assert fetched == [b"x"]
                backend.close()
                assert peer.wait_hangups(1), "the other thread's connection is open"
            finally:
                done.set()
                thread.join(timeout=30)
            assert not thread.is_alive()

    def test_a_thread_that_ended_leaves_no_connection_behind(self):
        with RawPeer([(ok(b"x"), True)]) as peer:
            client = HTTPClient(peer.url, what="peer", timeout=10)
            answers = []
            thread = threading.Thread(
                target=lambda: answers.append(client.request("GET", "/x", None, {}))
            )
            # The thread never releases its connection: the socket is freed
            # with the thread's storage, not held open by the client.
            with pytest.warns(ResourceWarning, match="unclosed"):
                thread.start()
                thread.join(timeout=30)
                assert not thread.is_alive()
                gc.collect()
                assert peer.wait_hangups(1), "the ended thread's socket is open"
            assert answers == [(200, b"x")]
            assert list(client._conns) == []
