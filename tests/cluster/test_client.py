"""``stream_remote_grid``'s failure contracts, against a raw-socket coordinator.

A grid that did not arrive whole must raise ``RuntimeError`` (the
coordinator said why) or ``ConnectionError`` (the stream broke), never end
quietly or leak another exception type.
"""

import json

import pytest

from repro.cluster import stream_remote_grid
from repro.engine import plan_grid
from repro.instability.grid import GridRecord
from repro.serving.api import quick_serve_config

from tests.live import CHUNKED_HEAD, LAST_CHUNK, RawPeer, chunk

CONFIG = quick_serve_config()
PLAN = plan_grid(CONFIG)
RECORD = GridRecord("svd", "sst2", 4, 1, 0, 0.25, 0.5, 0.75, {"eis": 0.125})


def stream(answer: bytes, received: list) -> None:
    """Stream ``PLAN`` from a coordinator that answers ``answer`` and
    closes, appending each record to ``received``."""
    with RawPeer([(answer, False)]) as peer:
        for record in stream_remote_grid(peer.url, CONFIG, PLAN):
            received.append(record)


def line(row: dict) -> bytes:
    """One NDJSON line as one chunk."""
    return chunk(json.dumps(row).encode() + b"\n")


class TestStreamFailures:
    def test_a_non_200_answer_raises_the_server_s_error(self):
        body = b'{"error": "unknown task \'pos\'"}'
        answer = b"HTTP/1.1 400 Bad Request\r\nContent-Length: %d\r\n\r\n%s" % (
            len(body), body,
        )
        with pytest.raises(RuntimeError, match=r"HTTP 400\): unknown task 'pos'"):
            stream(answer, [])

    def test_an_error_line_raises(self):
        received: list = []
        answer = (
            CHUNKED_HEAD + line(RECORD.to_row())
            + line({"error": "ClusterRunFailed: group 1 failed"}) + LAST_CHUNK
        )
        with pytest.raises(RuntimeError, match="grid failed: ClusterRunFailed: group 1"):
            stream(answer, received)
        assert received == [RECORD]

    def test_a_clean_end_short_of_the_plan_raises_connection_error(self):
        received: list = []
        answer = CHUNKED_HEAD + line(RECORD.to_row()) + LAST_CHUNK
        with pytest.raises(ConnectionError, match=f"ended early: 1/{PLAN.n_cells} records"):
            stream(answer, received)
        assert received == [RECORD]

    def test_death_mid_chunk_raises_connection_error(self):
        received: list = []
        cut = line(RECORD.to_row())
        answer = CHUNKED_HEAD + line(RECORD.to_row()) + cut[: len(cut) // 2]
        with pytest.raises(ConnectionError, match="broke off the grid stream after 1 records"):
            stream(answer, received)
        assert received == [RECORD]
