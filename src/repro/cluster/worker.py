"""Pull-based cluster worker: the ``repro-worker`` entrypoint.

A worker polls a coordinator (any ``repro-serve`` instance) for leases over
plain stdlib HTTP, executes each leased
:class:`~repro.engine.scheduler.CellGroup` through a warm local
:class:`~repro.instability.pipeline.InstabilityPipeline`, and pushes the
resulting :class:`~repro.instability.grid.GridRecord`\\ s back.  Three
properties make the fleet safe and fast:

* **the coordinator is a store tier** -- each worker's
  :class:`~repro.engine.store.ArtifactStore` mounts the coordinator's
  ``/artifacts`` API as its remote tier, so trained pairs, anchor
  decompositions and measure values are computed once cluster-wide and
  fetched everywhere else; every push has landed on the coordinator before
  the store call that made it returns, so by the time a group is reported
  complete its dependants find their ancestors;
* **heartbeats** -- a background thread renews the lease while a group
  executes; if the worker dies, the lease expires and the coordinator
  re-leases the group (at-least-once is safe: results are deterministic and
  content-addressed);
* **warm pipelines** -- pipelines are cached per config hash, so every lease
  of the same run (and every warm rerun) reuses the corpus, datasets and
  store of the first.

Run it::

    repro-worker http://coordinator:8732            # or python -m repro.cluster.worker
    repro-worker http://coordinator:8732 --cache-dir /data/cache --max-idle 60
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import socket
import sys
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro import options
from repro.cluster.coordinator import group_from_wire
from repro.cluster.client import open_json_connection
from repro.engine.scheduler import evaluate_group
from repro.engine.store import ArtifactStore, config_hash
from repro.telemetry.trace import Trace, propagation_headers
from repro.utils.io import to_jsonable
from repro.utils.logging import configure_logging, get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instability.pipeline import InstabilityPipeline

logger = get_logger(__name__)

__all__ = ["ClusterWorker", "CoordinatorClient", "main"]

#: Socket timeout of one ``/cluster/*`` request, in seconds.
CLIENT_TIMEOUT = 30.0
#: Warm pipelines a worker keeps (least recently used evicted first), so a
#: long-lived worker serving many configurations does not pin a corpus,
#: datasets and store per configuration forever.
MAX_PIPELINES = 4
#: Cap, in seconds, on the backoff after consecutive ``ConnectionError``
#: polls.
BACKOFF_MAX = 30.0
#: Seconds to wait for the heartbeat thread after a group finishes, before
#: and after aborting the client's connections.
HEARTBEAT_JOIN_TIMEOUT = 5.0


class CoordinatorClient:
    """Minimal JSON-over-HTTP client for the ``/cluster/*`` endpoints."""

    def __init__(self, url: str) -> None:
        self.url = url
        self._local = threading.local()
        # Every open connection, across all threads.  Connections are
        # per-thread (http.client is not thread-safe) but abort() must reach
        # them from *outside* their owning thread -- e.g. the worker closing
        # a heartbeat thread's socket so its blocked send fails fast.
        self._conns_lock = threading.Lock()
        self._conns: set = set()

    def abort(self) -> None:
        """Close every open connection, unblocking threads stuck in I/O.

        Safe to call from any thread: ``http.client`` transparently reopens
        a closed connection on the next request, so surviving threads just
        pay one reconnect.
        """
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - best effort
                pass

    def release(self) -> None:
        """Close the calling thread's connection.

        A thread that is done with the client calls this; otherwise its
        connection would stay open in ``_conns`` after the thread ends.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._drop(conn)

    def _drop(self, conn) -> None:
        try:
            conn.close()
        except OSError:  # pragma: no cover - best effort
            pass
        with self._conns_lock:
            self._conns.discard(conn)
        self._local.conn = None

    def _post(self, path: str, payload: dict) -> dict:
        """POST one JSON payload; reconnects once on a stale keep-alive.

        Only a POST that got no answer is sent again.  Once an answer
        arrived the coordinator has handled the request, so a non-200
        status or an undecodable body raises ``ConnectionError`` (the type
        the worker's backoff catches) without a second POST.
        """
        body = json.dumps(to_jsonable(payload)).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        headers.update(propagation_headers())
        last_error: Exception | None = None
        for _ in (0, 1):
            conn = getattr(self._local, "conn", None)
            if conn is None:
                conn, base = open_json_connection(self.url, CLIENT_TIMEOUT)
                self._local.conn = conn
                self._local.base = base
                with self._conns_lock:
                    self._conns.add(conn)
            try:
                conn.request(
                    "POST", f"{self._local.base}{path}", body=body, headers=headers
                )
                response = conn.getresponse()
            except (OSError, http.client.HTTPException) as error:
                # No answer arrived -- typically the coordinator closed an
                # idle keep-alive connection: send once more on a fresh one.
                self._drop(conn)
                last_error = error
                continue
            try:
                data = response.read()
            except (OSError, http.client.HTTPException) as error:
                self._drop(conn)
                raise ConnectionError(
                    f"coordinator broke off its answer on {path}: {error}"
                ) from error
            if response.status != 200:
                raise ConnectionError(
                    f"coordinator answered HTTP {response.status} on {path}: "
                    f"{data.decode('utf-8', 'replace')[:200]}"
                )
            try:
                return json.loads(data)
            except ValueError as error:
                raise ConnectionError(
                    f"coordinator answered {path} with undecodable JSON: {error}"
                ) from error
        raise ConnectionError(f"coordinator {self.url} unreachable: {last_error}")

    def lease(self, worker: str) -> dict:
        return self._post("/cluster/lease", {"worker": worker})

    def heartbeat(self, worker: str, lease_id: str) -> dict:
        return self._post("/cluster/heartbeat", {"worker": worker, "lease_id": lease_id})

    def complete(
        self,
        worker: str,
        lease_id: str,
        run_id: str,
        group_index: int,
        rows: list[dict],
        stats: dict | None = None,
        error: str | None = None,
        spans: list[dict] | None = None,
    ) -> dict:
        payload = {
            "worker": worker,
            "lease_id": lease_id,
            "run_id": run_id,
            "group_index": group_index,
            "records": rows,
            "stats": stats,
            "error": error,
        }
        if spans:
            payload["spans"] = spans
        return self._post("/cluster/complete", payload)


class ClusterWorker:
    """Lease-execute-report loop against one coordinator.

    Parameters
    ----------
    coordinator_url:
        Base URL of the coordinator (``repro-serve``); also mounted as the
        worker store's remote tier.
    worker_id:
        Stable identity reported with every request (defaults to host-pid).
    cache_dir:
        Optional local disk tier under the remote tier; gives the worker
        warm restarts in addition to the cluster-wide store.
    store_replicas:
        Replica targets (peer URLs and/or directories) mounted as one
        N-way replicated store tier **instead of** the coordinator tier:
        the storage fabric is then separate from the control plane, and the
        fleet survives the loss of any single replica (reads fall through
        to the survivors, missed writes queue as hints).
    poll_interval:
        Sleep between lease polls when the coordinator has no work, jittered
        by a uniform 50-100% factor (also the backoff floor).
    max_idle:
        Stop after this many consecutive idle seconds (``None`` = run until
        :meth:`stop`); how CI and tests bound a worker's lifetime.
    client:
        Injectable transport (tests drive the worker against an in-process
        coordinator without sockets).
    rng:
        Injectable ``random.Random`` for the jitter (deterministic tests).
    """

    def __init__(
        self,
        coordinator_url: str,
        *,
        worker_id: str | None = None,
        cache_dir: str | None = None,
        store_replicas: "list[str] | None" = None,
        poll_interval: float = 0.5,
        max_idle: float | None = None,
        client: CoordinatorClient | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.coordinator_url = coordinator_url
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.cache_dir = cache_dir
        self.store_replicas = list(store_replicas) if store_replicas else None
        self.poll_interval = float(poll_interval)
        self.max_idle = max_idle
        self._rng = rng or random.Random()
        #: Span rows shipped back with completions of traced leases.
        self.spans_shipped = 0
        #: Consecutive ConnectionError polls, driving the backoff exponent.
        self._failures = 0
        self.client = client or CoordinatorClient(coordinator_url)
        self._pipelines: "OrderedDict[str, InstabilityPipeline]" = OrderedDict()
        self._stop = threading.Event()
        self.groups_executed = 0
        self.cells_executed = 0
        #: Cumulative pipeline counters of evicted pipelines, so the stats
        #: reported to the coordinator never go backwards.
        self._retired = {
            "corpus_build_count": 0,
            "embedding_train_count": 0,
            "downstream_train_count": 0,
        }
        #: Same, for evicted stores' replication-health counters.
        self._retired_store = {
            "store_repairs": 0,
            "store_hints_queued": 0,
            "store_hints_drained": 0,
            "store_hints_dropped": 0,
        }

    # -- pipeline cache --------------------------------------------------------

    def _pipeline_for(self, config_payload: dict) -> "InstabilityPipeline":
        """The warm pipeline executing this config (built once per config)."""
        from repro.instability.pipeline import InstabilityPipeline, PipelineConfig

        key = config_hash(config_payload)
        pipeline = self._pipelines.get(key)
        if pipeline is not None:
            self._pipelines.move_to_end(key)
        else:
            config = PipelineConfig.from_jsonable(config_payload)
            store = ArtifactStore(
                self.cache_dir,
                # A replica fabric replaces the coordinator-as-store-tier:
                # storage then lives on its own peers, decoupled from the
                # control plane and replicated against single-peer loss.
                remote_url=None if self.store_replicas else self.coordinator_url,
                replicas=self.store_replicas,
            )
            pipeline = InstabilityPipeline(config, store=store)
            self._pipelines[key] = pipeline
            self._evict_stale_pipelines(keep=key)
            logger.info(
                "worker %s built pipeline for config %s", self.worker_id, key
            )
        return pipeline

    def _evict_stale_pipelines(self, keep: str) -> None:
        """LRU-bound the pipeline cache, keeping evicted pipelines' counters."""
        while len(self._pipelines) > MAX_PIPELINES:
            old_key, old = next(iter(self._pipelines.items()))
            if old_key == keep:  # pragma: no cover - MAX_PIPELINES >= 1
                break
            del self._pipelines[old_key]
            for name in self._retired:
                self._retired[name] += getattr(old, name)
            for name, value in old.store.replica_counters().items():
                key = f"store_{name}"
                if key in self._retired_store:
                    self._retired_store[key] += value
            logger.info("worker %s evicted pipeline %s", self.worker_id, old_key)

    def stats(self) -> dict:
        """Counters reported to the coordinator with every completion.

        Includes the store's replication-health counters (``store_repairs``,
        ``store_hints_*``) so the coordinator's ``/metrics`` shows a fleet's
        degraded-storage activity without scraping every worker.
        """
        totals = {
            "groups_executed": self.groups_executed,
            "cells_executed": self.cells_executed,
            "spans_shipped": self.spans_shipped,
            **self._retired,
            **self._retired_store,
        }
        for pipeline in self._pipelines.values():
            totals["corpus_build_count"] += pipeline.corpus_build_count
            totals["embedding_train_count"] += pipeline.embedding_train_count
            totals["downstream_train_count"] += pipeline.downstream_train_count
            for name, value in pipeline.store.replica_counters().items():
                key = f"store_{name}"
                if key in totals:
                    totals[key] += value
        return totals

    # -- execution -------------------------------------------------------------

    def _lease_trace(self, lease: dict) -> Trace | None:
        """Span collector for a traced lease (``None`` for an untraced one).

        The coordinator forwards the submitting request's trace context in
        the lease; spans recorded here under :meth:`Trace.active` carry that
        trace id, so shipping them back with the completion stitches this
        worker's execution into the cluster-wide trace.
        """
        context = lease.get("trace")
        if not isinstance(context, dict) or not context.get("trace_id"):
            return None
        return Trace(
            "worker.group",
            trace_id=str(context["trace_id"]),
            parent_id=str(context.get("parent_span") or "") or None,
            attrs={
                "worker": self.worker_id,
                "run_id": lease.get("run_id"),
                "group_index": lease.get("group_index"),
            },
        )

    def _heartbeat_loop(self, lease: dict, done: threading.Event) -> None:
        interval = max(float(lease.get("ttl", 60.0)) / 3.0, 0.05)
        try:
            while not done.wait(interval):
                try:
                    answer = self.client.heartbeat(self.worker_id, lease["lease_id"])
                except ConnectionError as error:  # keep computing; complete() retries
                    logger.warning("heartbeat failed: %s", error)
                    continue
                if answer.get("status") != "ok":
                    logger.warning(
                        "lease %s no longer ours (%s); finishing the group anyway -- "
                        "a late result is still accepted if nobody beat us to it",
                        lease["lease_id"], answer.get("status"),
                    )
                    return
        finally:
            # The thread ends with its lease; its connection goes with it.
            self.client.release()

    def _execute_lease(self, lease: dict) -> None:
        group = group_from_wire(lease["group"])
        trace = self._lease_trace(lease)
        done = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(lease, done),
            name=f"heartbeat-{lease['lease_id']}", daemon=True,
        )
        beat.start()
        rows: list[dict] = []
        error: str | None = None
        try:
            pipeline = self._pipeline_for(lease["config"])
            if trace is not None:
                with trace.active():
                    records = evaluate_group(pipeline, group)
            else:
                records = evaluate_group(pipeline, group)
            rows = [to_jsonable(record.to_row()) for record in records]
        except Exception as failure:  # reported, the coordinator decides retry/fail
            logger.exception("group execution failed")
            error = f"{type(failure).__name__}: {failure}"
        finally:
            done.set()
            beat.join(timeout=HEARTBEAT_JOIN_TIMEOUT)
            if beat.is_alive():
                # The thread is stuck in a slow HTTP send; ignoring it would
                # let a zombie heartbeat outlive this lease and beat against
                # the next one's log context.  Abort the client's connections
                # (the blocked send fails immediately, the loop sees done and
                # exits) and give the join one more bounded chance.
                abort = getattr(self.client, "abort", None)
                if abort is not None:
                    abort()
                beat.join(timeout=HEARTBEAT_JOIN_TIMEOUT)
                if beat.is_alive():
                    logger.warning(
                        "heartbeat thread of lease %s still alive after abort; "
                        "abandoning it (daemon)", lease["lease_id"],
                    )
        if error is None:
            self.groups_executed += 1
            self.cells_executed += len(rows)
        spans: list[dict] | None = None
        if trace is not None:
            trace.finish()
            spans = trace.span_rows()
            self.spans_shipped += len(spans)
        answer = self.client.complete(
            self.worker_id, lease["lease_id"], lease["run_id"],
            lease["group_index"], rows, stats=self.stats(), error=error,
            spans=spans,
        )
        logger.info(
            "group %d of %s -> %s (%d records)",
            lease["group_index"], lease["run_id"], answer.get("status"), len(rows),
        )

    # -- main loop -------------------------------------------------------------

    def step(self) -> bool:
        """One poll: execute a lease if one is available; True when work ran."""
        worked, _ = self._poll()
        return worked

    def _poll(self) -> tuple[bool, float]:
        """One poll returning (work ran, seconds to sleep before the next).

        A successful poll -- lease executed, or a clean idle/wait/drain
        answer -- resets the failure backoff; the idle sleep is then the
        jittered ``poll_interval``.  A ``ConnectionError`` escalates the
        failure backoff instead.  Exceptions propagate to :meth:`run`.
        """
        answer = self.client.lease(self.worker_id)
        self._failures = 0
        if answer.get("status") == "lease":
            self._execute_lease(answer)
            return True, 0.0
        return False, self._idle_delay()

    def _backoff_delay(self, failures: int) -> float:
        """Exponential backoff with jitter for ``failures`` consecutive errors.

        Each failure doubles the sleep from ``poll_interval`` up to
        :data:`BACKOFF_MAX`, jittered by a uniform 50-100% factor so a fleet
        that lost its coordinator together does not rejoin as a thundering
        herd; one success resets the sequence.
        """
        base = max(self.poll_interval, 0.05)
        delay = min(BACKOFF_MAX, base * (2.0 ** max(failures - 1, 0)))
        return delay * (0.5 + 0.5 * self._rng.random())

    def _idle_delay(self) -> float:
        """Sleep after an idle/wait/drain answer: the jittered poll interval."""
        return self.poll_interval * (0.5 + 0.5 * self._rng.random())

    def _sleep(self, seconds: float) -> None:
        """Interruptible sleep (a single point tests can observe/neutralise)."""
        if seconds > 0:
            self._stop.wait(seconds)

    def run(self) -> None:
        """Poll until :meth:`stop` (or ``max_idle`` seconds without work).

        On the way out the calling thread closes the connections it opened:
        its client's and those of each cached pipeline's remote store tiers.
        """
        try:
            self._run()
        finally:
            self.client.release()
            for pipeline in self._pipelines.values():
                for peer in pipeline.store.remote_peers():
                    peer.close()

    def _run(self) -> None:
        idle_since: float | None = None
        while not self._stop.is_set():
            try:
                worked, delay = self._poll()
            except ConnectionError as error:
                self._failures += 1
                delay = self._backoff_delay(self._failures)
                logger.warning(
                    "coordinator unreachable (%d in a row, next poll in %.2fs): %s",
                    self._failures, delay, error,
                )
                worked = False
            if worked:
                idle_since = None
                continue
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if self.max_idle is not None and now - idle_since >= self.max_idle:
                logger.info(
                    "worker %s idle for %.0fs; exiting", self.worker_id, self.max_idle
                )
                return
            self._sleep(delay)

    def stop(self) -> None:
        self._stop.set()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "coordinator",
        help="coordinator base URL (a repro-serve instance, e.g. http://host:8732)",
    )
    parser.add_argument(
        "--worker-id", default=None, help="stable worker identity (default host-pid)"
    )
    options.add_options(parser, ("--cache-dir", "--store-replicas"))
    parser.add_argument(
        "--poll-interval", type=float, default=0.5,
        help="seconds between lease polls when idle",
    )
    parser.add_argument(
        "--max-idle", type=float, default=None,
        help="exit after this many consecutive idle seconds (default: run forever)",
    )
    args = parser.parse_args(argv)
    configure_logging()
    worker = ClusterWorker(
        args.coordinator,
        worker_id=args.worker_id,
        cache_dir=args.cache_dir,
        store_replicas=options.store_replicas(args),
        poll_interval=args.poll_interval,
        max_idle=args.max_idle,
    )
    print(f"repro-worker {worker.worker_id} polling {args.coordinator}", flush=True)
    try:
        worker.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
