"""select-cold and serve-warm: closed-loop load on a ``repro-serve`` child.

Both workloads boot the server through :mod:`perfbench.launcher`, take
readiness from its "listening" line, and drive it over one keep-alive
connection in a closed loop: the next request goes out once the previous
answer is in, as the system's callers (``RemoteBackend`` peers, cluster
workers, scripts) each wait for theirs.  Client and server share the one
CPU the benchmark is pinned to, so a second connection would only queue
behind the first.
"""

from __future__ import annotations

import json
import queue
import random
import re
import socket
import subprocess
import sys
import threading
import time
from typing import Callable

from perfbench import stats
from perfbench.common import ROOT, Context, Deadline, Interval, Run, Tally, check_body
from perfbench.layers import layer_metrics
from perfbench.machine import peak_rss_mb

#: Server boots timed back to back for ``setup_s``; the last one takes the
#: load.  A quick-config boot is cheap, so serve-warm affords more of them.
SELECT_BOOTS = 3
WARM_BOOTS = 5
#: Requests per second of ``--seconds``.  Runs are sized by count, never by
#: duration: select-cold's memory grows with every completed /select, so
#: under a duration limit a faster build would look like a memory regression.
SELECTS_PER_S = 0.8
MEASURES_PER_S = 1200
SELECT_PATH = "/select?budget=256&algorithm=mc&seed={seed}"
#: Seed of the set-up /select; the load's seeds start above it.
RESERVED_SEED = 0
BOOT_TIMEOUT_S = 60.0
SELECT_TIMEOUT_S = 60.0
MEASURE_TIMEOUT_S = 10.0
COMMAND_TIMEOUT_S = 30.0
_LISTENING = re.compile(r"listening on http://[^\s:]+:(\d+)")

#: ``check(path, status, body)`` names what is wrong with an answer, or None.
Check = Callable[[str, int, bytes], "str | None"]


class KeepAliveClient:
    """HTTP/1.1 GETs over one keep-alive socket.

    Hand-rolled rather than ``http.client``: at warm-serving latencies, well
    under a millisecond, the standard client's parsing would be a visible
    share of the latency the benchmark reports.
    """

    def __init__(self, port: int, timeout: float, host: str = "127.0.0.1") -> None:
        self.address = (host, port)
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buffer = b""
        self.reconnect()

    def reconnect(self) -> None:
        self.close()
        self._sock = socket.create_connection(self.address, timeout=self.timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def get(self, path: str) -> tuple[int, bytes]:
        """Status and body of ``GET path``."""
        request = f"GET {path} HTTP/1.1\r\nHost: {self.address[0]}\r\n\r\n"
        self._sock.sendall(request.encode("ascii"))
        buffer = self._buffer
        while (end := buffer.find(b"\r\n\r\n")) < 0:
            buffer += self._recv()
        lines = buffer[:end].split(b"\r\n")
        buffer = buffer[end + 4:]
        status = int(lines[0][9:12])          # "HTTP/1.1 200 OK"
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(buffer) < length:
            buffer += self._recv()
        self._buffer = buffer[length:]
        return status, buffer[:length]

    def _recv(self) -> bytes:
        chunk = self._sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk


class ServerChild:
    """A ``repro-serve`` child started through the benchmark launcher."""

    def __init__(self, serve_args: list[str], *, trace: bool, ctx: Context, name: str) -> None:
        command = [sys.executable, "-m", "perfbench.launcher"]
        if trace:
            command.append("--trace")
        command += ["--", "--port", "0", *serve_args]
        self._log = open(ctx.workdir / f"{name}.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=ctx.env, text=True, bufsize=1,
            stdin=subprocess.PIPE if trace else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def expect(self, marker: str, timeout: float) -> str:
        """The next line of the child's stdout that contains ``marker``."""
        end = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, end - time.monotonic()))
            except queue.Empty:
                raise TimeoutError(f"server printed no {marker!r} in {timeout:.0f} s") from None
            if line is None:
                raise RuntimeError(f"server exited ({self.proc.wait()}) before {marker!r}")
            if marker in line:
                return line

    def wait_listening(self, timeout: float) -> int:
        """Block until the server's "listening" line; the port it bound."""
        return int(_LISTENING.search(self.expect("listening on", timeout)).group(1))

    def command(self, name: str) -> str:
        """Send a launcher command (traced children only); its answer line."""
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self.expect(f"perfbench-{name}", COMMAND_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Terminate the child and wait for it to end (idempotent)."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        self._log.close()


def drive(
    client: KeepAliveClient,
    paths: list[str],
    check: Check,
    tally: Tally,
    latencies: list[Interval],
    count: int,
    *,
    deadline: Deadline | None = None,
) -> None:
    """Send ``count`` requests back to back over one connection (a closed loop).

    Paths rotate in order.  A wrong answer, a timeout or a dropped
    connection is a failed operation; after the last two the client
    reconnects.
    """
    for index in range(count):
        if deadline is not None and deadline.expired():
            for _ in range(count - index):
                tally.record("run over its time budget")
            return
        path = paths[index % len(paths)]
        start = time.perf_counter()
        try:
            status, body = client.get(path)
        except (OSError, ValueError) as error:
            tally.record(f"{type(error).__name__} on {path.split('?')[0]}")
            try:
                client.reconnect()
            except OSError:
                for _ in range(count - index - 1):
                    tally.record("server unreachable")
                return
            continue
        latencies.append((start, time.perf_counter()))
        tally.record(check(path, status, body))


def run_select_cold(
    seed: int, seconds: float, *, trace: bool, setup_repetitions: int, ctx: Context
) -> Run:
    """Cold /select requests, each on a new seed, over one keep-alive connection."""
    count = max(stats.MIN_TAIL_SAMPLES + 1, round(seconds * SELECTS_PER_S))
    first = RESERVED_SEED + 1 + (seed % 100_000) * 1_000
    paths = [SELECT_PATH.format(seed=first + index) for index in range(count)]
    tally, setup, latencies = Tally(), [], []
    layers, attribution = {}, {}
    child = client = None
    try:
        for boot in range(setup_repetitions):
            _stop(child, client)
            child = ServerChild([], trace=trace, ctx=ctx, name=f"select-cold-{boot}")
            port = child.wait_listening(ctx.deadline.remaining(BOOT_TIMEOUT_S))
            client = KeepAliveClient(port, SELECT_TIMEOUT_S)
            # The first /select pays lazy first-call costs: set-up, not a sample.
            drive(client, [SELECT_PATH.format(seed=RESERVED_SEED)], _ok, tally, [], 1)
            setup.append((child.started, time.perf_counter()))
        health = _get_json(client, "/healthz")
        check = _SelectCheck(len(health["dimensions"]) * len(health["precisions"]))
        before = _mark(child, client) if trace else None
        start = time.perf_counter()
        drive(client, paths, check, tally, latencies, count, deadline=ctx.deadline)
        busy = [(start, time.perf_counter())]
        # The first request again, now answered from cache, must not change.
        first_body = check.bodies.get(paths[0])
        drive(client, paths[:1], lambda path, status, body: check_body(status, body, first_body),
              tally, [], 1)
        rss = child.peak_rss_mb()
        if trace:
            layers, window = _server_layers(
                child, client, before, "/select",
                _wall_p50_ms(latencies), ("service.select_ms",),
            )
            attribution = {
                "embeddings.fit_s / total /select service time":
                    layers["embeddings.fit_s"] / window["layers"]["service.select"]["seconds"],
            }
    finally:
        _stop(child, client)
    return Run(
        operation="/select", setup=setup, latencies=latencies,
        operations=count, busy=busy, peak_rss_mb=rss, tally=tally,
        layers=layers, attribution=attribution,
    )


def run_serve_warm(
    seed: int, seconds: float, *, trace: bool, setup_repetitions: int, ctx: Context
) -> Run:
    """Warm /measure requests over one keep-alive connection."""
    count = max(1000, round(seconds * MEASURES_PER_S))
    tally, setup, latencies, reference = Tally(), [], [], {}
    layers, attribution = {}, {}
    child = client = None
    try:
        for boot in range(setup_repetitions):
            _stop(child, client)
            child = ServerChild(["--quick"], trace=trace, ctx=ctx, name=f"serve-warm-{boot}")
            port = child.wait_listening(ctx.deadline.remaining(BOOT_TIMEOUT_S))
            client = KeepAliveClient(port, MEASURE_TIMEOUT_S)
            paths = _measure_paths(_get_json(client, "/healthz"), seed)
            # One warm-up per cell; every boot must answer as the first did.
            drive(client, paths, _warm_up_check(reference), tally, [], len(paths))
            setup.append((child.started, time.perf_counter()))
        before = _mark(child, client) if trace else None
        start = time.perf_counter()
        drive(
            client, paths,
            lambda path, status, body: check_body(status, body, reference.get(path)),
            tally, latencies, count, deadline=ctx.deadline,
        )
        busy = [(start, time.perf_counter())]
        rss = child.peak_rss_mb()
        if trace:
            p50_ms = _wall_p50_ms(latencies)
            layers, _ = _server_layers(
                child, client, before, "/measure", p50_ms,
                ("service.etag_ms", "service.measure_ms"),
            )
            attribution = {
                "(serving.self_ms + serving.wire_ms) / client p50":
                    (layers["serving.self_ms"] + layers["serving.wire_ms"]) / p50_ms,
            }
    finally:
        _stop(child, client)
    return Run(
        operation="/measure", setup=setup, latencies=latencies,
        operations=count, busy=busy, peak_rss_mb=rss, tally=tally,
        short_requests=True, layers=layers, attribution=attribution,
    )


def _wall_p50_ms(latencies: list[Interval]) -> float:
    return stats.nearest_rank([(end - start) * 1e3 for start, end in latencies], 0.5)


def _warm_up_check(reference: dict[str, bytes]) -> Check:
    """Check of a warm-up answer: the first boot's body per cell is the reference."""

    def check(path: str, status: int, body: bytes) -> str | None:
        if status != 200:
            return f"warm-up status {status}"
        expected = reference.setdefault(path, body)
        return None if body == expected else "warm-up body differs across boots"

    return check


def _measure_paths(health: dict, seed: int) -> list[str]:
    """One /measure per served cell, in a seeded order, on the seed's cell seed."""
    paths = [
        f"/measure?algorithm={algorithm}&dim={dim}&precision={precision}"
        f"&seed={seed % 1_000}"
        for algorithm in health["algorithms"]
        for dim in health["dimensions"]
        for precision in health["precisions"]
    ]
    random.Random(seed).shuffle(paths)
    return paths


def _ok(path: str, status: int, body: bytes) -> str | None:
    return None if status == 200 else f"status {status}"


class _SelectCheck:
    """A /select answer must rank every candidate; keeps each answer's body."""

    def __init__(self, candidates: int) -> None:
        self.candidates = candidates
        self.bodies: dict[str, bytes] = {}

    def __call__(self, path: str, status: int, body: bytes) -> str | None:
        self.bodies[path] = body
        if status != 200:
            return f"status {status}"
        try:
            answer = json.loads(body)
        except ValueError:
            return "body is not JSON"
        if answer.get("n_candidates") != self.candidates:
            return "wrong candidate count"
        return None


def _stop(child: ServerChild | None, *clients: KeepAliveClient | None) -> None:
    for client in clients:
        if client is not None:
            client.close()
    if child is not None:
        child.stop()


def _get_json(client: KeepAliveClient, path: str) -> dict:
    status, body = client.get(path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


def _mark(child: ServerChild, client: KeepAliveClient) -> dict:
    """Open the traced window; the /metrics snapshot at its start."""
    before = _get_json(client, "/metrics")
    child.command("mark")
    return before


def _server_layers(
    child: ServerChild, client: KeepAliveClient, before: dict, route: str,
    client_p50_ms: float, inside: tuple[str, ...],
) -> tuple[dict, dict]:
    """Per-layer metrics of a traced server window, and its raw layer report.

    ``inside`` names the service calls the route's handler makes; the rest
    of the server-side request time is the serving layer's own.
    """
    after = _get_json(client, "/metrics")
    report = json.loads(child.command("report").split(" ", 1)[1])
    metrics = layer_metrics(report["window"], report["boot"])
    latency = after["telemetry"]["latency"]
    request_ms = latency["request"][route]["p50_ms"]
    served = after["serving"]["requests_measure"] - before["serving"]["requests_measure"]
    coalesced = after["serving"]["coalesced_total"] - before["serving"]["coalesced_total"]
    hits = _store_total(after, "hits") - _store_total(before, "hits")
    lookups = hits + _store_total(after, "misses") - _store_total(before, "misses")
    metrics.update({
        "serving.import_s": report["import_s"],
        "serving.request_ms": request_ms,
        "serving.self_ms": stats.self_time(request_ms, *(metrics[name] for name in inside)),
        "serving.wire_ms": stats.self_time(client_p50_ms, request_ms),
        "service.ancestry_wait_ms": latency["phase"]["ancestry_wait"]["p99_ms"],
        "service.coalesced_ratio": coalesced / served if served else 0.0,
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "store.bytes_in_memory": after["store_io"]["bytes_in_memory"],
    })
    return metrics, report["window"]


def _store_total(snapshot: dict, counter: str) -> int:
    return sum(kind[counter] for kind in snapshot["store"].values())
