"""Benchmark the artifact-store backends: memory vs disk vs remote.

Times raw ``put``/``get`` latency per backend for a small (JSON-sized) and a
large (decomposition-sized) payload, against:

1. ``memory``  -- in-process LRU byte cache;
2. ``disk``    -- durable atomic writes under one directory tree;
3. ``remote``  -- a live in-process ``repro-serve`` peer over HTTP
   keep-alive (skipped with ``--no-remote``).

Every backend must round-trip payloads verbatim, and the memory tier must
beat the remote tier on reads by a wide margin (the reason the tier stack
puts memory on top) -- the script exits non-zero otherwise, so CI can smoke
it.

Usage::

    PYTHONPATH=src python benchmarks/bench_store_backends.py --quick
    PYTHONPATH=src python benchmarks/bench_store_backends.py --ops 500
"""

from __future__ import annotations

import argparse
import asyncio
import statistics
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.analysis.reporting import format_table  # noqa: E402
from repro.engine.backends import (  # noqa: E402
    DiskBackend,
    MemoryBackend,
    RemoteBackend,
)

from conftest import write_benchmark_results  # noqa: E402


def _time_ops(fn, names: list[str]) -> list[float]:
    latencies = []
    for name in names:
        start = time.perf_counter()
        fn(name)
        latencies.append(time.perf_counter() - start)
    return latencies


def _boot_remote_peer(cache_dir: Path):
    """A live repro-serve instance (quick config) to use as a store peer."""
    from repro.engine.store import ArtifactStore
    from repro.serving import StabilityService
    from repro.serving.api import StabilityAPIServer, quick_serve_config

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        service = StabilityService(
            quick_serve_config(), store=ArtifactStore(cache_dir)
        )
    api = StabilityAPIServer(service, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(api.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("remote peer failed to start")

    def shutdown() -> None:
        asyncio.run_coroutine_threadsafe(api.stop(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        service.close()

    return f"http://127.0.0.1:{api.port}", shutdown


def run_benchmark(quick: bool, n_ops: int, with_remote: bool):
    n_ops = max(n_ops, 8)
    rng = np.random.default_rng(0)
    payloads = {
        "small": b'{"eis": 0.5, "pip": 1.25}',
        "large": rng.standard_normal(4096 if quick else 65536).tobytes(),
    }

    workdir = Path(tempfile.mkdtemp(prefix="bench-store-"))
    backends = {
        "memory": MemoryBackend(),
        "disk": DiskBackend(workdir / "disk"),
    }
    shutdown = None
    if with_remote:
        url, shutdown = _boot_remote_peer(workdir / "peer-cache")
        backends["remote"] = RemoteBackend(url)

    rows, timings = [], {}
    try:
        for payload_name, payload in payloads.items():
            names = [f"bench-{payload_name}-{i}.json" for i in range(n_ops)]
            for backend_name, backend in backends.items():
                puts = _time_ops(
                    lambda name: backend.put("bench", name, payload), names
                )
                gets = _time_ops(lambda name: backend.get("bench", name), names)
                # Correctness first: every backend round-trips verbatim.
                for name in names[:4]:
                    got = backend.get("bench", name)
                    assert got == payload, (
                        f"{backend_name} corrupted {name}: "
                        f"{len(got or b'')} != {len(payload)} bytes"
                    )
                put_us = 1e6 * statistics.mean(puts)
                get_us = 1e6 * statistics.mean(gets)
                timings[(backend_name, payload_name)] = (put_us, get_us)
                rows.append({
                    "backend": backend_name,
                    "payload": f"{payload_name} ({len(payload)}B)",
                    "put_us": round(put_us, 1),
                    "get_us": round(get_us, 1),
                    "ops": n_ops,
                })
    finally:
        if shutdown is not None:
            shutdown()

    # The invariant the tier stack is built on: memory reads are orders of
    # magnitude cheaper than a peer round-trip, so promoting remote hits into
    # upper tiers pays for itself after one reuse.
    if with_remote:
        for payload_name in payloads:
            memory_get = timings[("memory", payload_name)][1]
            remote_get = timings[("remote", payload_name)][1]
            assert memory_get * 5 < remote_get, (
                f"memory tier not clearly faster than remote on {payload_name}: "
                f"{memory_get:.1f}us vs {remote_get:.1f}us"
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small payloads, few ops")
    parser.add_argument("--ops", type=int, default=None, help="operations per backend")
    parser.add_argument("--no-remote", action="store_true", help="skip the HTTP peer")
    parser.add_argument("--output", default=None, help="write results JSON here")
    args = parser.parse_args(argv)

    n_ops = args.ops if args.ops is not None else (32 if args.quick else 200)
    rows = run_benchmark(args.quick, n_ops, not args.no_remote)
    print(format_table(rows, title="artifact-store backend latency"))
    results = write_benchmark_results("store", rows=rows, output=args.output)
    print(f"results -> {results}")
    print("store backend invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
