"""Rolling retrains: the monitor's snapshot-cut -> cluster-retrain loop.

:class:`InstabilityMonitor` is the online-monitoring subsystem's facade.  It
owns the :class:`~repro.monitor.ingest.CorpusIngestor` (growing vocabulary +
co-occurrence deltas), cuts content-addressed corpus snapshots into the
service's :class:`~repro.engine.store.ArtifactStore`, and -- on every new
snapshot (or a configurable wall-clock cadence) -- schedules a **rolling
retrain** of the embedding grid over the (previous, current) snapshot pair.

Retrains are ordinary grid runs: the snapshot keys ride in
``PipelineConfig.snapshot_pair``, so the run is rebuilt from JSON alone
and dispatches through the existing execution fabric unchanged --
``distributed=True`` leases it to the ``repro-worker`` fleet through the
service's :class:`~repro.cluster.coordinator.ClusterCoordinator` (leases,
ancestry gating, replication, crash-safety all apply), and the local mode
runs the same plan through a :class:`~repro.engine.scheduler.GridEngine`.
Either way the records are bit-identical to an equivalent batch grid run,
and because every artifact is content-addressed in the shared store, a
**warm re-evaluation of an already-measured version pair trains nothing**
(the aggregated :class:`~repro.monitor.drift.DriftReport` itself is cached
as a ``monitor-report`` artifact, so the grid is not even re-dispatched).

Retrains run on one background worker thread: ingestion answers
immediately, retrains for successive snapshots queue and execute in order,
and :meth:`InstabilityMonitor.wait_idle` blocks until the queue drains.
"""

from __future__ import annotations

import dataclasses
import json
import math
import queue
import threading
import urllib.request
from collections import deque
from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.corpus.snapshots import store_snapshot
from repro.engine.store import config_hash
from repro.monitor.drift import HISTORY, DriftEvaluator, DriftReport
from repro.monitor.events import MonitorEventLog
from repro.monitor.ingest import CorpusIngestor
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instability.grid import GridRecord
    from repro.serving.service import StabilityService

logger = get_logger(__name__)

__all__ = ["MonitorConfig", "InstabilityMonitor"]

#: Store kind of cached per-version-pair drift reports.
REPORT_KIND = "monitor-report"
#: Delivery retries of a drift-alert webhook after its first attempt, with
#: a short backoff between them.
WEBHOOK_RETRIES = 2
#: Socket timeout of one webhook attempt, in seconds.
WEBHOOK_TIMEOUT = 5.0


@dataclasses.dataclass(frozen=True)
class MonitorConfig:
    """Knobs of the online instability monitor (``repro-serve``'s flags)."""

    #: Cut a snapshot every N ingested batches (callers can force/suppress a
    #: cut per request with the ingest endpoint's ``cut`` parameter).
    snapshot_every_batches: int = 1
    #: Also cut snapshots on a wall-clock cadence (seconds; 0 disables).  A
    #: cadence tick only cuts when new documents arrived since the last cut.
    cadence_seconds: float = 0.0
    #: Lease retrains to the ``repro-worker`` fleet through the service's
    #: cluster coordinator instead of executing in-process.
    distributed: bool = False
    #: Drift-alert thresholds: measure name (or ``"disagreement"``) -> bound.
    #: Empty means observe without alerting.
    thresholds: Mapping[str, float] = dataclasses.field(default_factory=dict)
    #: POST each ``drift_alert`` event to this URL as JSON (``None`` = off).
    webhook_url: str | None = None

    def __post_init__(self) -> None:
        if self.snapshot_every_batches < 1:
            raise ValueError("snapshot_every_batches must be >= 1")
        if self.cadence_seconds < 0:
            raise ValueError("cadence_seconds must be >= 0")
        for name, bound in dict(self.thresholds).items():
            if not isinstance(bound, (int, float)) or math.isnan(float(bound)):
                raise ValueError(f"threshold {name!r} must be a number, got {bound!r}")


class InstabilityMonitor:
    """Online instability monitoring over an evolving corpus.

    Parameters
    ----------
    service:
        The :class:`~repro.serving.service.StabilityService` whose store,
        pipeline configuration and cluster coordinator the monitor rides on.
    config:
        :class:`MonitorConfig`.
    """

    def __init__(
        self, service: "StabilityService", config: MonitorConfig | None = None
    ) -> None:
        self.service = service
        self.config = config or MonitorConfig()
        self.ingestor = CorpusIngestor()
        self.drift = DriftEvaluator(self.config.thresholds)
        self.events = MonitorEventLog()
        self._versions: deque[dict] = deque(maxlen=HISTORY)
        self._lock = threading.Lock()
        #: Serialises snapshot cuts from freeze to version number, so a
        #: version never holds an older corpus than the one before it.  Not
        #: ``_lock``: the store write happens under it.
        self._cut_lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._pending = 0
        self._version = 0
        self._last_key: str | None = None
        self._batches_since_cut = 0
        self._new_since_cut = False
        self._counters = {
            "batches_ingested": 0,
            "documents_ingested": 0,
            "tokens_ingested": 0,
            "snapshots_cut": 0,
            "snapshots_skipped": 0,
            "snapshots_failed": 0,
            "retrains_dispatched": 0,
            "retrains_completed": 0,
            "retrains_failed": 0,
            "retrain_records": 0,
            "reports_warm": 0,
            "drift_alerts": 0,
            "local_embedding_trainings": 0,
            "webhook_delivered": 0,
            "webhook_failed": 0,
        }
        self._closed = threading.Event()
        self._queue: "queue.Queue[tuple | None]" = queue.Queue()
        self._worker = threading.Thread(
            target=self._retrain_loop, name="monitor-retrain", daemon=True
        )
        self._worker.start()
        self._cadence: threading.Thread | None = None
        if self.config.cadence_seconds > 0:
            self._cadence = threading.Thread(
                target=self._cadence_loop, name="monitor-cadence", daemon=True
            )
            self._cadence.start()

    # -- lifecycle -------------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Stop the retrain worker and cadence threads (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._queue.put(None)
        for thread in (self._worker, self._cadence):
            if thread is not None:
                thread.join(timeout)

    def __enter__(self) -> "InstabilityMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no retrain is queued or running; False on timeout."""
        with self._idle:
            return self._idle.wait_for(lambda: self._pending == 0, timeout)

    # -- ingestion + snapshot cutting --------------------------------------------

    def ingest(self, documents, *, cut: bool | None = None) -> dict:
        """Merge a document batch; maybe cut a snapshot and schedule a retrain.

        ``cut`` forces (``True``) or suppresses (``False``) the snapshot cut
        this batch would otherwise trigger per ``snapshot_every_batches``.
        Returns ingest stats plus the cut outcome.
        """
        batch_stats = self.ingestor.add_batch(documents)
        with self._lock:
            self._counters["batches_ingested"] += 1
            self._counters["documents_ingested"] += batch_stats["batch_documents"]
            self._counters["tokens_ingested"] += batch_stats["batch_tokens"]
            self._batches_since_cut += 1
            self._new_since_cut = True
            due = self._batches_since_cut >= self.config.snapshot_every_batches
        should_cut = due if cut is None else bool(cut)
        outcome: dict = {"ingested": batch_stats, "snapshot": None, "version": None}
        if should_cut:
            cut_result = self.cut_snapshot()
            outcome.update(cut_result)
        outcome["monitor_version"] = self.version
        return outcome

    def cut_snapshot(self) -> dict:
        """Freeze the ingested corpus into a content-addressed snapshot.

        An unchanged corpus hashes to the previous key and is skipped (no
        new version, no retrain).  A new key becomes version ``v+1``, and
        when a previous version exists a retrain over ``(key_v, key_v+1)``
        is scheduled.  Cuts run one at a time, and a version's counts are
        those of the corpus it froze.
        """
        with self._cut_lock:
            corpus = self.ingestor.snapshot_corpus()
            key = store_snapshot(self.service.store, corpus)
            stats = {
                "documents": len(corpus.documents),
                "tokens": corpus.num_tokens,
                "vocab_size": len(corpus.word_list),
            }
            with self._lock:
                self._batches_since_cut = 0
                self._new_since_cut = False
                if key == self._last_key:
                    self._counters["snapshots_skipped"] += 1
                    return {"snapshot": key, "version": self._version, "cut": False}
                previous_key, previous_version = self._last_key, self._version
                self._version += 1
                version = self._version
                self._last_key = key
                self._counters["snapshots_cut"] += 1
                self._versions.append({"version": version, "snapshot": key, **stats})
            self.events.emit("snapshot_cut", version=version, snapshot=key, **stats)
            logger.info(
                "monitor snapshot v%d cut: %s (%d documents, %d tokens, %d words)",
                version, key, stats["documents"], stats["tokens"], stats["vocab_size"],
            )
            if previous_key is not None:
                self._schedule_retrain(previous_version, previous_key, version, key)
        return {"snapshot": key, "version": version, "cut": True}

    # -- retrains ------------------------------------------------------------------

    def _schedule_retrain(
        self, base_version: int, base_key: str, version: int, key: str
    ) -> None:
        with self._idle:
            self._pending += 1
            self._counters["retrains_dispatched"] += 1
        self._queue.put((base_version, base_key, version, key))

    def _retrain_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._run_job(job)

    def _run_job(self, job: tuple) -> None:
        base_version, base_key, version, key = job
        try:
            self.evaluate_pair(base_version, base_key, version, key)
        except Exception:
            logger.exception(
                "monitor retrain v%d -> v%d failed", base_version, version
            )
            with self._lock:
                self._counters["retrains_failed"] += 1
        finally:
            with self._idle:
                self._pending -= 1
                self._idle.notify_all()

    def retrain_config(self, base_key: str, key: str):
        """The retrain's pipeline config: the service's, re-pointed at the pair."""
        return dataclasses.replace(
            self.service.pipeline.config, snapshot_pair=(base_key, key)
        )

    def _report_key(self, config) -> str:
        from repro.cluster.coordinator import config_wire_payload

        # "bow" is the retrain grid's model type (GridEngine's default),
        # kept in the key so stored reports stay warm.  A report holds
        # downstream disagreement, so it carries the downstream key's dtype.
        return config_hash(
            {"kind": REPORT_KIND, "config": config_wire_payload(config), "model_type": "bow",
             "dtype": "float32"}
        )

    def evaluate_pair(
        self, base_version: int, base_key: str, version: int, key: str
    ) -> DriftReport:
        """Retrain over one snapshot pair and aggregate its drift report.

        The report is cached content-addressed (``monitor-report``): an
        already-measured pair answers from the store without dispatching a
        grid at all.
        """
        config = self.retrain_config(base_key, key)
        report_key = self._report_key(config)
        cached = self.service.store.get_json(REPORT_KIND, report_key)
        if cached is not None:
            report = DriftReport.from_jsonable(cached)
            self.drift.record(report)
            with self._lock:
                self._counters["reports_warm"] += 1
            self._emit_report(report, warm=True)
            return report
        records = self._execute_retrain(config, base_version, version)
        report = self.drift.evaluate(
            records,
            base_version=base_version,
            version=version,
            snapshot_pair=(base_key, key),
        )
        self.service.store.put_json(REPORT_KIND, report_key, report.to_jsonable())
        with self._lock:
            self._counters["retrains_completed"] += 1
            self._counters["retrain_records"] += len(records)
        self._emit_report(report, warm=False)
        return report

    def _execute_retrain(
        self, config, base_version: int, version: int
    ) -> "list[GridRecord]":
        if self.config.distributed:
            from repro.cluster.coordinator import config_wire_payload
            from repro.engine.scheduler import plan_grid

            plan = plan_grid(config, with_measures=True)
            run_id = self.service.coordinator.create_run(
                plan, config_wire_payload(config)
            )
            self.events.emit(
                "retrain_started",
                base_version=base_version,
                version=version,
                snapshot_pair=list(config.snapshot_pair),
                distributed=True,
                run_id=run_id,
            )
            return list(self.service.coordinator.records(run_id, stop=self._closed))
        from repro.engine.scheduler import GridEngine
        from repro.instability.pipeline import InstabilityPipeline

        self.events.emit(
            "retrain_started",
            base_version=base_version,
            version=version,
            snapshot_pair=list(config.snapshot_pair),
            distributed=False,
        )
        pipeline = InstabilityPipeline(config, store=self.service.store)
        # coordinator_url="" pins local execution even when a process-wide
        # default coordinator is configured -- the distributed path above is
        # the monitor's only route to the fleet.
        engine = GridEngine(pipeline, coordinator_url="")
        records = engine.run(with_measures=True)
        with self._lock:
            self._counters["local_embedding_trainings"] += pipeline.embedding_train_count
        return records

    def _emit_report(self, report: DriftReport, *, warm: bool) -> None:
        self.events.emit(
            "measures_ready",
            base_version=report.base_version,
            version=report.version,
            snapshot_pair=list(report.snapshot_pair),
            cells=report.cells,
            measures=dict(report.measures),
            disagreement=(
                None if math.isnan(report.disagreement) else report.disagreement
            ),
            warm=warm,
        )
        if report.alerts:
            with self._lock:
                self._counters["drift_alerts"] += len(report.alerts)
            alert_payload = {
                "base_version": report.base_version,
                "version": report.version,
                "snapshot_pair": list(report.snapshot_pair),
                "alerts": [dict(a) for a in report.alerts],
            }
            self.events.emit("drift_alert", **alert_payload)
            logger.warning(
                "drift alert v%d -> v%d: %s",
                report.base_version, report.version, report.alerts,
            )
            self._deliver_webhook(dict(alert_payload, event="drift_alert"))

    def _deliver_webhook(self, payload: dict) -> None:
        """POST one drift alert to the configured webhook, bounded retries.

        Runs on the retrain worker thread, never on a request path.  A 2xx
        answer counts as delivered; anything else retries
        :data:`WEBHOOK_RETRIES` times with a short backoff, then counts as
        failed.  Delivery failures never fail the retrain.
        """
        url = self.config.webhook_url
        if not url:
            return
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        outcome = "no attempt"
        for attempt in range(WEBHOOK_RETRIES + 1):
            if attempt and self._closed.wait(0.2 * attempt):
                break
            try:
                status = self._webhook_post(url, body)
            except Exception as error:
                outcome = f"{type(error).__name__}: {error}"
                continue
            if 200 <= status < 300:
                with self._lock:
                    self._counters["webhook_delivered"] += 1
                return
            outcome = f"HTTP {status}"
        with self._lock:
            self._counters["webhook_failed"] += 1
        logger.warning("drift-alert webhook %s failed: %s", url, outcome)

    def _webhook_post(self, url: str, body: bytes) -> int:
        """One POST attempt; overridable in tests.  Returns the HTTP status."""
        request = urllib.request.Request(
            url, data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(  # noqa: S310 - operator-supplied URL
            request, timeout=WEBHOOK_TIMEOUT
        ) as response:
            response.read()
            return int(response.status)

    # -- cadence -------------------------------------------------------------------

    def _cadence_loop(self) -> None:
        while not self._closed.wait(self.config.cadence_seconds):
            self._cadence_tick()

    def _cadence_tick(self) -> None:
        """Cut when documents arrived since the last cut; count a failed cut."""
        with self._lock:
            due = self._new_since_cut
        if due:
            try:
                self.cut_snapshot()
            except Exception:
                logger.exception("cadence snapshot cut failed")
                with self._lock:
                    self._counters["snapshots_failed"] += 1

    # -- observability ---------------------------------------------------------------

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def counters(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            counters["pending_retrains"] = self._pending
        return counters

    def snapshot(self) -> dict:
        """JSON-able monitor state for ``/monitor/status``, ``/metrics`` and
        ``repro.engine.stats()``."""
        with self._lock:
            versions = [dict(v) for v in self._versions]
            version = self._version
            last_key = self._last_key
        last = self.drift.last_report
        return {
            "version": version,
            "last_snapshot": last_key,
            "versions": versions,
            "ingest": self.ingestor.stats(),
            "counters": self.counters(),
            "thresholds": dict(self.drift.thresholds),
            "webhook": self.config.webhook_url,
            "distributed": self.config.distributed,
            "cadence_seconds": self.config.cadence_seconds,
            "snapshot_every_batches": self.config.snapshot_every_batches,
            "last_report": None if last is None else last.to_jsonable(),
            "events_emitted": self.events.emitted,
            "last_event_seq": self.events.last_seq,
        }
