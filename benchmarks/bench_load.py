"""Open-loop load benchmark over the live HTTP serving layer: ``bench_load``.

Boots a real ``repro-serve`` (asyncio server, loopback TCP), warms the
grid, then drives it with an **open-loop** arrival process: requests are
scheduled at a fixed rate on the wall clock and picked up by a pool of
client connections, so server slowdowns surface as queueing delay instead
of silently throttling the offered load (closed-loop generators measure a
flattered latency the moment the server stalls).  Traffic is a mix of
warm ``GET /measure`` queries over the served cells and periodic
``GET /grid`` NDJSON streams.

Reported per endpoint, side by side:

* **client-side** p50/p99/mean from the generator's own measurements
  (scheduled arrival -> last response byte, queueing included);
* **server-side** p50/p99 from the serving layer's latency histograms
  (``/metrics`` -> ``telemetry.latency.request``), the same numbers a
  Prometheus scrape of ``/metrics?format=prometheus`` would ingest.

Two gates make this an SLO harness rather than a report:

1. the client-side warm ``/measure`` p99 must stay under ``--slo-p99-ms``
   (default 60 ms);
2. tracing must be near-free: the median warm ``/measure`` with a live
   trace collecting spans may exceed the untraced median by at most 5%
   or ``OVERHEAD_FLOOR_MS``, whichever is larger.

Both bounds are a few times what ``--quick`` measured on a shared 2-core
machine: a client p99 of 2.6-18.4 ms, and a tracing overhead of
0.006-0.009 ms on a 0.04-0.06 ms untraced median.

Usage::

    PYTHONPATH=src python benchmarks/bench_load.py --quick
    PYTHONPATH=src python benchmarks/bench_load.py --rate 80 --duration 10

Exits non-zero on any gate breach so CI can run it; results land in
``BENCH_load.json`` (compared against ``benchmarks/baselines/``).
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import statistics
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.reporting import format_table  # noqa: E402
from repro.serving.api import StabilityAPIServer, quick_serve_config  # noqa: E402
from repro.serving.service import ServiceConfig, StabilityService  # noqa: E402

from conftest import write_benchmark_results  # noqa: E402


def percentile(samples: list[float], q: float) -> float:
    """The q-quantile (0..1) of ``samples`` by nearest-rank, in input units."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


class _Server:
    """A live serving stack on an ephemeral loopback port."""

    def __init__(self, service: StabilityService) -> None:
        self.service = service
        self.api = StabilityAPIServer(service, port=0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, name="bench-serve", daemon=True)
        self.ready = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.api.start())
        self.ready.set()
        self.loop.run_forever()

    def __enter__(self) -> "_Server":
        self.thread.start()
        if not self.ready.wait(10.0):
            raise RuntimeError("server failed to start")
        return self

    def __exit__(self, *exc) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.service.close()

    @property
    def port(self) -> int:
        return self.api.port


def _get(port: int, path: str, timeout: float = 120.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _drive_open_loop(
    port: int, cells, *, rate: float, duration: float, clients: int,
    grid_every: int,
) -> dict[str, list[float]]:
    """Schedule arrivals at ``rate``/s for ``duration``s; return latencies.

    Latency is measured from the request's *scheduled* arrival time, so a
    backed-up server accrues queueing delay in the numbers even while the
    client pool is saturated -- the defining property of an open loop.
    """
    n_arrivals = max(1, int(rate * duration))
    epoch = time.perf_counter() + 0.25   # let every client thread spin up
    arrivals = [
        (epoch + index / rate,
         "/grid" if grid_every and index % grid_every == grid_every - 1
         else "/measure",
         cells[index % len(cells)])
        for index in range(n_arrivals)
    ]
    cursor = threading.Lock()
    position = 0
    latencies: dict[str, list[float]] = {"/measure": [], "/grid": []}
    errors: list[str] = []

    def client() -> None:
        nonlocal position
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)
        try:
            while True:
                with cursor:
                    index = position
                    position += 1
                if index >= len(arrivals):
                    return
                due, endpoint, cell = arrivals[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                algorithm, dim, precision, seed = cell
                if endpoint == "/measure":
                    path = (f"/measure?algorithm={algorithm}&dim={dim}"
                            f"&precision={precision}&seed={seed}")
                else:
                    path = f"/grid?dims={dim}&precisions={precision}&seeds={seed}"
                try:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    body = response.read()
                    if response.status != 200:
                        errors.append(f"{endpoint} -> HTTP {response.status}")
                        continue
                    if endpoint == "/grid" and not body.strip():
                        errors.append("/grid stream was empty")
                        continue
                except (OSError, http.client.HTTPException) as error:
                    errors.append(f"{endpoint} -> {type(error).__name__}: {error}")
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)
                    continue
                # /grid answers Connection: close; reconnect for the next one.
                if endpoint == "/grid":
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)
                with cursor:
                    latencies[endpoint].append((time.perf_counter() - due) * 1e3)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise AssertionError(f"{len(errors)} load-generator failures: {errors[:5]}")
    return latencies


#: Smallest tracing-overhead budget, in milliseconds (see the module docstring).
OVERHEAD_FLOOR_MS = 0.03


def _overhead_gate(service: StabilityService, cell) -> dict:
    """Median warm /measure latency with vs without an active trace."""
    algorithm, dim, precision, seed = cell
    iterations = 200

    def warm_once() -> float:
        start = time.perf_counter()
        service.measure(algorithm, dim, precision, seed)
        return (time.perf_counter() - start) * 1e3

    warm_once()                                   # ensure the cell is hot
    # Interleaved, so a change in machine speed hits both sides alike.
    base, traced = [], []
    for _ in range(iterations):
        base.append(warm_once())
        with service.traces.request("bench.overhead"):
            traced.append(warm_once())
    base_ms = statistics.median(base)
    traced_ms = statistics.median(traced)
    overhead_ms = traced_ms - base_ms
    budget_ms = max(0.05 * base_ms, OVERHEAD_FLOOR_MS)
    return {
        "warm_base_ms": round(base_ms, 4),
        "warm_traced_ms": round(traced_ms, 4),
        "overhead_ms": round(overhead_ms, 4),
        "overhead_budget_ms": round(budget_ms, 4),
        "iterations": iterations,
        "ok": overhead_ms <= budget_ms,
    }


def run_benchmark(args) -> int:
    config = quick_serve_config()
    service = StabilityService(config, config=ServiceConfig(max_concurrency=4))
    cells = [
        (algorithm, dim, precision, config.seeds[0])
        for algorithm in config.algorithms
        for dim in config.dimensions
        for precision in config.precisions
    ]
    rows: list[dict] = []
    summary: dict = {}
    with _Server(service) as server:
        # Warm every served cell first: the load phase measures serving, not
        # first-touch training.
        for algorithm, dim, precision, seed in cells:
            status, _ = _get(
                server.port,
                f"/measure?algorithm={algorithm}&dim={dim}"
                f"&precision={precision}&seed={seed}",
            )
            assert status == 200, f"warmup failed: HTTP {status}"

        latencies = _drive_open_loop(
            server.port, cells,
            rate=args.rate, duration=args.duration, clients=args.clients,
            grid_every=args.grid_every,
        )
        for endpoint in ("/measure", "/grid"):
            samples = latencies[endpoint]
            if not samples:
                continue
            rows.append({
                "mode": f"client {endpoint}",
                "requests": len(samples),
                "p50_ms": round(percentile(samples, 0.50), 3),
                "p99_ms": round(percentile(samples, 0.99), 3),
                "mean_ms": round(statistics.mean(samples), 3),
            })

        # Server-side: the same latencies as the serving layer's histograms
        # saw them (and as Prometheus would scrape them).
        status, body = _get(server.port, "/metrics")
        assert status == 200
        request_latency = json.loads(body)["telemetry"]["latency"].get("request", {})
        for endpoint in ("/measure", "/grid"):
            hist = request_latency.get(endpoint)
            if hist:
                rows.append({
                    "mode": f"server {endpoint}",
                    "requests": hist["count"],
                    "p50_ms": round(hist["p50_ms"], 3),
                    "p99_ms": round(hist["p99_ms"], 3),
                })

        status, prom = _get(server.port, "/metrics?format=prometheus")
        assert status == 200 and b"repro_latency_ms_bucket" in prom, (
            "Prometheus exposition missing the latency histogram family"
        )
        summary["prometheus_lines"] = len(prom.decode("utf-8").splitlines())

        gate = _overhead_gate(service, cells[0])
        rows.append({"mode": "warm /measure untraced", "p50_ms": gate["warm_base_ms"]})
        rows.append({"mode": "warm /measure traced", "p50_ms": gate["warm_traced_ms"]})
        summary.update(gate)

    client_measure = next(r for r in rows if r["mode"] == "client /measure")
    summary["measure_p99_ms"] = client_measure["p99_ms"]
    summary["slo_p99_ms"] = args.slo_p99_ms
    summary["requests"] = sum(r.get("requests", 0) for r in rows if r["mode"].startswith("client"))

    print(format_table(rows, title="bench_load: open-loop serving latency"))
    failures = []
    if not summary["ok"]:
        failures.append(
            f"telemetry overhead {summary['overhead_ms']:.3f}ms exceeds "
            f"budget {summary['overhead_budget_ms']:.3f}ms "
            f"(untraced {summary['warm_base_ms']:.3f}ms, "
            f"traced {summary['warm_traced_ms']:.3f}ms)"
        )
    if args.slo_p99_ms and client_measure["p99_ms"] > args.slo_p99_ms:
        failures.append(
            f"/measure client p99 {client_measure['p99_ms']:.1f}ms breaches "
            f"the {args.slo_p99_ms:.0f}ms SLO"
        )
    summary["slo_ok"] = not failures

    path = write_benchmark_results("load", summary=summary, rows=rows,
                                   output=args.output)
    print(f"results -> {path}")
    if failures:
        for failure in failures:
            print(f"SLO GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("all SLO gates passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short run for CI (lower rate, shorter duration)")
    parser.add_argument("--rate", type=float, default=60.0,
                        help="offered load in requests/second (open loop)")
    parser.add_argument("--duration", type=float, default=6.0,
                        help="seconds of offered load")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client connections draining arrivals")
    parser.add_argument("--grid-every", type=int, default=20,
                        help="every Nth arrival is a /grid stream (0 = none)")
    parser.add_argument("--slo-p99-ms", type=float, default=60.0,
                        help="client-side warm /measure p99 SLO gate (0 = off)")
    parser.add_argument("--output", default=None,
                        help="envelope path (default BENCH_load.json)")
    args = parser.parse_args(argv)
    if args.quick:
        args.rate = min(args.rate, 40.0)
        args.duration = min(args.duration, 3.0)
        args.clients = min(args.clients, 6)
    if args.rate <= 0 or args.duration <= 0 or args.clients < 1:
        parser.error("--rate/--duration must be > 0 and --clients >= 1")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
