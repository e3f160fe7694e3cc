"""One counter surface for the whole engine: ``repro.engine.stats()``.

The engine's observability used to be scattered attribute reads: store
counters via ``store.stat(kind)``, pipeline build/train counters, and the
scheduler's warm-up telemetry via ``engine.last_warmup`` (how many trained
pairs the last parallel run's workers started with).  :func:`stats`
collects all of them into one plain, JSON-able dict so the serving layer's
``/metrics`` endpoint, the benchmarks, and the tests read the same snapshot
the same way.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.engine.store import ArtifactStore
from repro.telemetry.metrics import telemetry_snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.engine.scheduler import GridEngine
    from repro.instability.pipeline import InstabilityPipeline
    from repro.monitor.scheduler import InstabilityMonitor

__all__ = ["stats"]


def stats(
    source: "GridEngine | InstabilityPipeline | ArtifactStore | None" = None,
    *,
    store: ArtifactStore | None = None,
    pipeline: "InstabilityPipeline | None" = None,
    engine: "GridEngine | None" = None,
    coordinator: "ClusterCoordinator | None" = None,
    monitor: "InstabilityMonitor | None" = None,
) -> dict:
    """Aggregate engine counters into one JSON-able snapshot.

    ``source`` is a convenience positional: pass a :class:`GridEngine`, an
    :class:`~repro.instability.pipeline.InstabilityPipeline` or a bare
    :class:`~repro.engine.store.ArtifactStore` and the related components are
    resolved from it (an engine implies its pipeline and store; a pipeline
    implies its store).  Keyword arguments override or extend the resolution;
    ``coordinator`` adds a cluster section (leases issued/expired/reassigned,
    checkpoint writes and failures, resume counters, drain state, per-worker
    throughput plus the monotonic ``fleet`` aggregates that survive
    idle-worker eviction); ``monitor`` adds the online instability monitor's
    snapshot (versions, ingest and retrain counters, last drift report).

    The snapshot always contains the keys ``store``, ``pipeline``,
    ``warmup``, ``cluster``, ``monitor`` and ``telemetry`` (empty/None when
    the component is absent; ``telemetry`` summarises the process-wide
    latency histograms), so consumers can index without existence checks.
    """
    if source is not None:
        if isinstance(source, ArtifactStore):
            store = store or source
        elif hasattr(source, "pipeline"):      # GridEngine
            engine = engine or source
        else:                                   # InstabilityPipeline
            pipeline = pipeline or source
    if engine is not None:
        pipeline = pipeline or engine.pipeline
    if pipeline is not None:
        store = store or pipeline.store

    snapshot: dict = {
        "store": {},
        "pipeline": {},
        "warmup": None,
        "cluster": None,
        "monitor": None,
        "telemetry": telemetry_snapshot(),
    }
    if store is not None:
        snapshot["store"] = {
            kind: asdict(stat) for kind, stat in sorted(store.stats.items())
        }
        snapshot["store_persistent"] = store.persistent
        snapshot["store_io"] = {"bytes_in_memory": store.bytes_in_memory()}
        snapshot["store_tiers"] = store.tier_stats()
        snapshot["store_replicas"] = store.replica_counters()
        snapshot["store_peers"] = store.peer_health()
    if pipeline is not None:
        snapshot["pipeline"] = {
            "corpus_build_count": pipeline.corpus_build_count,
            "embedding_train_count": pipeline.embedding_train_count,
            "downstream_train_count": pipeline.downstream_train_count,
        }
    if engine is not None:
        snapshot["warmup"] = engine.last_warmup
    if coordinator is not None:
        snapshot["cluster"] = coordinator.snapshot()
    if monitor is not None:
        snapshot["monitor"] = monitor.snapshot()
    return snapshot
