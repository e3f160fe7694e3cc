"""Long-lived stability-query service over the grid-execution engine.

A :class:`StabilityService` owns one warm
:class:`~repro.instability.pipeline.InstabilityPipeline` (and thus one
:class:`~repro.engine.store.ArtifactStore`) and a bounded thread pool, and
answers the operational questions the paper's measures exist for:

* :meth:`measure` -- the pairwise stability measures of one (algorithm,
  dimension, precision, seed) cell;
* :meth:`select` -- the dimension-precision combination to ship under a
  memory budget, ranked by a selection criterion (EIS by default, the
  paper's rule of thumb);
* :meth:`grid_iter` -- a streaming grid execution yielding records as cells
  complete (the engine's :meth:`~repro.engine.scheduler.GridEngine.run_iter`);
* :meth:`metrics` / :meth:`healthz` -- observability.

Three serving-specific behaviours sit between the HTTP layer and the engine:

**Request coalescing (single-flight).**  Concurrent requests for the same
artifact key -- the same content hash the store caches under -- share one
computation: the first request submits it, the rest await the same future.
``coalesced_total`` counts the requests that piggybacked.

**Ancestry-aware batching.**  Distinct measure requests sharing an
(algorithm, seed) ancestry serialise on a per-ancestry lock, so the shared
anchor decomposition and measure suite are built exactly once and every
follower hits them in cache; requests of unrelated ancestries run
concurrently up to ``max_concurrency``.

**Bounded concurrency.**  All computation runs on a ``max_concurrency``-sized
thread pool; the asyncio HTTP layer stays responsive no matter how heavy the
numerical work gets.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.cluster.coordinator import ClusterCoordinator, config_wire_payload
from repro.compression.memory import bits_per_word
from repro.engine import ArtifactStore, GridEngine, plan_grid
from repro.engine import stats as engine_stats
from repro.instability.grid import GridRecord
from repro.measures.base import MEASURES
from repro.selection.budget import recommend_under_budget
from repro.selection.criteria import (
    HIGH_PRECISION,
    LOW_PRECISION,
    SelectionCriterion,
    measure_criterion,
)
from repro.telemetry.trace import TraceBuffer, annotate, bind, remote_context, span
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instability.pipeline import InstabilityPipeline, PipelineConfig
    from repro.monitor.scheduler import InstabilityMonitor, MonitorConfig

logger = get_logger(__name__)

__all__ = ["ServiceConfig", "StabilityService"]

#: Criteria the /select endpoint resolves by name, besides the measure names
#: themselves ("eis", "1-knn", "pip", "1-eigenspace-overlap",
#: "semantic-displacement").
_NAIVE_CRITERIA = {c.name: c for c in (HIGH_PRECISION, LOW_PRECISION)}


@dataclass(frozen=True)
class ServiceConfig:
    """Serving-layer knobs (the pipeline keeps its own configuration)."""

    #: Threads computing requests concurrently (and the single-flight pool).
    max_concurrency: int = 4
    #: Process fan-out for /grid executions; 0 = in-process serial.
    grid_workers: int = 0
    #: Seconds a cluster lease survives without a heartbeat (see
    #: :class:`~repro.cluster.coordinator.ClusterCoordinator`).
    lease_ttl: float = 60.0

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {self.max_concurrency}")
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl}")


class StabilityService:
    """Warm, concurrent, coalescing front-end to the instability pipeline.

    Parameters
    ----------
    pipeline:
        An :class:`~repro.instability.pipeline.InstabilityPipeline`, a
        :class:`~repro.instability.pipeline.PipelineConfig`, or ``None``
        (default configuration).  The pipeline is built once at start-up --
        corpus generated, vocabulary fixed -- and everything else is computed
        lazily per request and cached in the store.
    store:
        Artifact store handed to a pipeline the service constructs itself;
        pass a disk-backed store to make the service warm across restarts.
    config:
        Serving-layer knobs (:class:`ServiceConfig`).
    """

    def __init__(
        self,
        pipeline: "InstabilityPipeline | PipelineConfig | None" = None,
        *,
        store: ArtifactStore | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.engine = GridEngine(
            pipeline, store=store, n_workers=self.config.grid_workers
        )
        self.pipeline = self.engine.pipeline
        self.started_at = time.time()
        #: Bounded ring of finished request traces (serving /trace/*); also
        #: the stitch point for spans shipped back by cluster workers.  Every
        #: request is traced; one of 500 ms or more lands in the slow ring.
        self.traces = TraceBuffer()
        #: Every repro-serve instance is also a cluster coordinator: grids
        #: submitted with ``distributed=true`` are leased to the
        #: ``repro-worker`` fleet instead of executed in-process.  It shares
        #: the service's artifact store, so run checkpoints live next to the
        #: artifacts they describe -- a disk-backed store makes runs survive
        #: a coordinator restart (``repro-serve --resume-runs``).
        self.coordinator = ClusterCoordinator(
            default_config=config_wire_payload(self.pipeline.config),
            lease_ttl=self.config.lease_ttl,
            store=self.pipeline.store,
            trace_sink=self.traces,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency, thread_name_prefix="stability"
        )
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self._ancestry_locks: dict[tuple[str, int], threading.Lock] = {}
        self._counters = {
            "requests_measure": 0,
            "requests_select": 0,
            "requests_grid": 0,
            "coalesced_total": 0,
            "records_streamed": 0,
            "grids_inflight": 0,
            "grids_cancelled": 0,
            "measure_body_hits": 0,
        }
        self._closed = False
        #: Online instability monitor; ``None`` until :meth:`enable_monitor`.
        self.monitor: "InstabilityMonitor | None" = None
        logger.info(
            "stability service ready: %d-word vocabulary, %d-way concurrency",
            len(self.pipeline.vocab), self.config.max_concurrency,
        )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut the monitor and worker pool down (idempotent)."""
        if not self._closed:
            self._closed = True
            if self.monitor is not None:
                self.monitor.close()
            self._executor.shutdown(wait=True, cancel_futures=True)

    def enable_monitor(
        self, config: "MonitorConfig | None" = None
    ) -> "InstabilityMonitor":
        """Attach (or return) the online instability monitor.

        The monitor rides this service's store, pipeline configuration and
        cluster coordinator; calling again returns the existing instance
        (``config`` must then be omitted or it is an error).
        """
        from repro.monitor.scheduler import InstabilityMonitor

        if self.monitor is not None:
            if config is not None and config != self.monitor.config:
                raise ValueError("monitor already enabled with a different config")
            return self.monitor
        self.monitor = InstabilityMonitor(self, config)
        return self.monitor

    def __enter__(self) -> "StabilityService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def store(self) -> ArtifactStore:
        """The artifact store backing this service (shared with the engine)."""
        return self.pipeline.store

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The bounded worker pool; all blocking service work belongs on it."""
        return self._executor

    # -- internals -------------------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] += delta

    def _ancestry_lock(self, algorithm: str, seed: int) -> threading.Lock:
        with self._lock:
            return self._ancestry_locks.setdefault(
                (algorithm, int(seed)), threading.Lock()
            )

    def _single_flight(self, key: str, fn: Callable[[], dict]) -> dict:
        """Run ``fn`` once per in-flight ``key``; identical requests share it."""
        coalesced = False
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                self._counters["coalesced_total"] += 1
                coalesced = True
            else:
                # bind(): the leader's pipeline/store spans attach to the
                # trace of the request that submitted the computation.
                future = self._executor.submit(self._run_tracked, key, bind(fn))
                self._inflight[key] = future
        if coalesced:
            annotate(coalesced=True)
            with span("service.coalesce_wait", metric="phase", label="coalesce_wait",
                      key=key):
                return future.result()
        return future.result()

    def _run_tracked(self, key: str, fn: Callable[[], dict]) -> dict:
        try:
            return fn()
        finally:
            with self._lock:
                self._inflight.pop(key, None)

    # -- queries ---------------------------------------------------------------

    def measure(
        self,
        algorithm: str,
        dim: int,
        precision: int,
        seed: int = 0,
        *,
        measures: tuple[str, ...] | None = None,
    ) -> dict:
        """Pairwise stability measures of one grid cell (coalesced, cached).

        A repeated query against a warm store is pure cache: zero trainings,
        zero decompositions (pinned in the serving tests).
        """
        self._count("requests_measure")
        dim, precision, seed = int(dim), int(precision), int(seed)
        key = self.pipeline.measures_key(
            algorithm, dim, precision, seed, measures=measures
        )

        def compute() -> dict:
            # Ancestry-aware batching: requests sharing the (algorithm, seed)
            # anchor pair serialise here, so the anchor decomposition and the
            # measure suite are built once and every follower hits the cache.
            lock = self._ancestry_lock(algorithm, seed)
            with span("service.ancestry_wait", metric="phase",
                      label="ancestry_wait", algorithm=algorithm, seed=seed):
                lock.acquire()
            try:
                values = self.pipeline.compute_measures(
                    algorithm, dim, precision, seed, measures=measures
                )
            finally:
                lock.release()
            return values

        values = self._single_flight(key, compute)
        return {
            "algorithm": algorithm,
            "dim": dim,
            "precision": precision,
            "seed": seed,
            "memory_bits_per_word": bits_per_word(dim, precision),
            "artifact_key": key,
            "measures": values,
        }

    def measure_etag(
        self,
        algorithm: str,
        dim: int,
        precision: int,
        seed: int = 0,
        *,
        measures: tuple[str, ...] | None = None,
    ) -> str:
        """Deterministic validator of a :meth:`measure` response, pre-compute.

        A measure response is a pure function of its content-addressed
        artifact key, so the tag is computable *without* computing the
        measures, which is what lets the HTTP layer answer ``If-None-Match``
        revalidations with ``304`` before any numerical work happens.  The
        ``:exact`` suffix stays so that validators clients hold keep matching.
        """
        key = self.pipeline.measures_key(
            algorithm, int(dim), int(precision), int(seed), measures=measures
        )
        return f"{key}:exact"

    def count_measure_body_hit(self) -> None:
        """Account for a :meth:`measure` answer the HTTP layer served from bytes.

        Counters read as they did when :meth:`measure` computed the answer,
        plus ``measure_body_hits``.  The HTTP layer marks the request's root
        span ``cached=True`` itself.
        """
        with self._lock:
            self._counters["requests_measure"] += 1
            self._counters["measure_body_hits"] += 1

    def select(
        self,
        budget: int,
        *,
        criterion: str = "eis",
        algorithm: str | None = None,
        seed: int | None = None,
        dimensions: tuple[int, ...] | None = None,
        precisions: tuple[int, ...] | None = None,
    ) -> dict:
        """Dimension-precision recommendation under a memory budget.

        Implements the paper's selection rule operationally: evaluate every
        candidate (dimension, precision) combination's stability measures
        (cached, coalesced) and return the one the criterion ranks most
        stable among those fitting ``budget`` bits per word.  ``criterion``
        is a measure name (default ``"eis"``, the paper's rule of thumb) or a
        naive baseline (``"high-precision"``, ``"low-precision"``).
        """
        self._count("requests_select")
        cfg = self.pipeline.config
        algorithm = algorithm or cfg.algorithms[0]
        seed = int(cfg.seeds[0] if seed is None else seed)
        dimensions = tuple(int(d) for d in (dimensions or cfg.dimensions))
        precisions = tuple(int(p) for p in (precisions or cfg.precisions))
        budget = int(budget)
        chosen_criterion = self._resolve_criterion(criterion)

        candidates = []
        for dim in dimensions:
            for precision in precisions:
                needs_measures = criterion not in _NAIVE_CRITERIA
                measures = (
                    self.measure(algorithm, dim, precision, seed)["measures"]
                    if needs_measures
                    else {}
                )
                candidates.append(
                    GridRecord(
                        algorithm=algorithm,
                        task="-",          # selection is task-free: measures only
                        dim=dim,
                        precision=precision,
                        seed=seed,
                        disagreement=float("nan"),
                        accuracy_a=float("nan"),
                        accuracy_b=float("nan"),
                        measures=measures,
                    )
                )
        selected = recommend_under_budget(candidates, budget, chosen_criterion)
        return {
            "budget_bits_per_word": budget,
            "criterion": chosen_criterion.name,
            "algorithm": algorithm,
            "seed": seed,
            "selected": {
                "dim": selected.dim,
                "precision": selected.precision,
                "memory_bits_per_word": selected.memory,
                "score": _finite_or_none(chosen_criterion(selected)),
            },
            "n_candidates": len(candidates),
            "n_feasible": sum(1 for c in candidates if c.memory <= budget),
        }

    def _resolve_criterion(self, name: str) -> SelectionCriterion:
        if name in _NAIVE_CRITERIA:
            return _NAIVE_CRITERIA[name]
        if name == "oracle":
            raise ValueError(
                "the oracle criterion requires downstream training; stream the "
                "grid via /grid and rank records offline instead"
            )
        measure_names = set(MEASURES.names())
        if name not in measure_names:
            raise ValueError(
                f"unknown selection criterion {name!r}; known: "
                f"{sorted(measure_names | set(_NAIVE_CRITERIA))}"
            )
        return measure_criterion(name)

    def grid_iter(
        self,
        *,
        algorithms: tuple[str, ...] | None = None,
        tasks: tuple[str, ...] | None = None,
        dimensions: tuple[int, ...] | None = None,
        precisions: tuple[int, ...] | None = None,
        seeds: tuple[int, ...] | None = None,
        with_measures: bool = True,
        n_workers: int | None = None,
        model_type: str = "bow",
        distributed: bool = False,
        config: dict | None = None,
        run_id: str | None = None,
    ) -> Iterator[GridRecord]:
        """Stream grid records in canonical order (see ``GridEngine.run_iter``).

        Axes are validated *eagerly* (unknown algorithm/task names, duplicate
        axis values) so callers -- the HTTP layer in particular -- can reject
        a bad request before committing to a streaming response; only the
        record production itself is lazy.

        With ``distributed=True`` the grid is not executed in-process: it is
        registered with this instance's cluster coordinator and leased to
        ``repro-worker`` processes, and the returned iterator blocks until
        workers deliver each record (in canonical order).  ``config``
        optionally carries a JSON pipeline configuration from a remote
        submitter (``GridEngine --coordinator``); axes left unset then
        default to *that* configuration.  The iterator's ``close()`` is
        thread-safe and cancels the underlying run, so an abandoned stream
        stops consuming the cluster.

        ``run_id`` *attaches* to an existing distributed run instead of
        submitting a new one -- the stream replays the run's records from
        the beginning (canonical order) and follows it to completion.  How
        a consumer picks a resumed run back up after a coordinator restart;
        detaching from an attached stream does **not** cancel the run.
        """
        if run_id is not None:
            if not distributed:
                raise ValueError("'run_id' requires distributed=true")
            if self.coordinator.run_status(run_id) is None:
                raise KeyError(f"unknown cluster run {run_id!r}")
            self._count("requests_grid")
            stop = threading.Event()
            return _CancellableStream(
                self._stream_cluster(run_id, stop=stop, cancel_on_exit=False),
                cancel=stop.set,
            )
        run_config = self.pipeline.config
        config_payload = None
        if config is not None:
            from repro.instability.pipeline import PipelineConfig

            if not isinstance(config, dict):
                raise ValueError("'config' must be a JSON object")
            if not distributed:
                raise ValueError("a custom 'config' requires distributed=true")
            run_config = PipelineConfig.from_jsonable(config)   # validates fields
            config_payload = config_wire_payload(run_config)

        cfg = run_config
        algorithms = tuple(algorithms or cfg.algorithms)
        tasks = tuple(tasks or cfg.tasks)
        dimensions = tuple(int(d) for d in (dimensions or cfg.dimensions))
        precisions = tuple(int(p) for p in (precisions or cfg.precisions))
        seeds = tuple(int(s) for s in (seeds or cfg.seeds))
        self._validate_axes(algorithms, tasks, dimensions, precisions, seeds)
        self._count("requests_grid")
        if distributed:
            plan = plan_grid(
                run_config,
                algorithms=algorithms, tasks=tasks, dimensions=dimensions,
                precisions=precisions, seeds=seeds,
                with_measures=with_measures, model_type=model_type,
            )
            run_id = self.coordinator.create_run(
                plan, config_payload, trace=remote_context()
            )
            return _CancellableStream(
                self._stream_cluster(run_id),
                cancel=lambda: self._cancel_cluster_run(run_id),
            )
        return self._stream_records(
            algorithms, tasks, dimensions, precisions, seeds,
            with_measures, n_workers, model_type,
        )

    @staticmethod
    def _validate_axes(algorithms, tasks, dimensions, precisions, seeds) -> None:
        from repro.embeddings.base import EMBEDDING_ALGORITHMS
        from repro.instability.pipeline import NER_TASK_NAME, SENTIMENT_TASK_NAMES

        for algorithm in algorithms:
            if algorithm not in EMBEDDING_ALGORITHMS:
                raise KeyError(
                    f"unknown embedding algorithm {algorithm!r}; "
                    f"known: {EMBEDDING_ALGORITHMS.names()}"
                )
        for task in tasks:
            if task not in SENTIMENT_TASK_NAMES and task != NER_TASK_NAME:
                raise KeyError(f"unknown task {task!r}")
        for axis_name, axis in (
            ("algorithms", algorithms), ("tasks", tasks), ("dimensions", dimensions),
            ("precisions", precisions), ("seeds", seeds),
        ):
            if len(set(axis)) != len(axis):
                raise ValueError(f"duplicate values in {axis_name}: {axis}")

    def _stream_records(
        self, algorithms, tasks, dimensions, precisions, seeds,
        with_measures, n_workers, model_type="bow",
    ) -> Iterator[GridRecord]:
        iterator = self.engine.run_iter(
            algorithms=algorithms,
            tasks=tasks,
            dimensions=dimensions,
            precisions=precisions,
            seeds=seeds,
            with_measures=with_measures,
            n_workers=n_workers,
            model_type=model_type,
        )
        self._count("grids_inflight")
        try:
            for record in iterator:
                self._count("records_streamed")
                yield record
        except GeneratorExit:
            # Abandoned stream (client disconnected): close the engine
            # iterator so it stops submitting cells -- under parallel
            # execution this tears the worker pool down mid-grid.
            self._count("grids_cancelled")
            iterator.close()
            raise
        finally:
            self._count("grids_inflight", -1)

    def _stream_cluster(
        self,
        run_id: str,
        *,
        stop: threading.Event | None = None,
        cancel_on_exit: bool = True,
    ) -> Iterator[GridRecord]:
        self._count("grids_inflight")
        try:
            for record in self.coordinator.records(run_id, stop=stop):
                self._count("records_streamed")
                yield record
        except GeneratorExit:
            # An attached stream (cancel_on_exit=False) only detaches: the
            # run belongs to its original submitter, not to this reader.
            if cancel_on_exit:
                self._cancel_cluster_run(run_id)
            elif stop is not None:
                stop.set()
            raise
        finally:
            self._count("grids_inflight", -1)

    def _cancel_cluster_run(self, run_id: str) -> None:
        if self.coordinator.cancel(run_id):
            self._count("grids_cancelled")

    # -- observability ---------------------------------------------------------

    def healthz(self) -> dict:
        """Liveness payload: cheap, touches no numerical state.

        ``store_peers`` lists every remote storage peer with its circuit
        breaker state; ``degraded`` is true while any breaker is open, so a
        load balancer can route around storage-degraded instances without
        parsing the full ``/metrics`` snapshot.
        """
        peers = self.pipeline.store.peer_health()
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "vocab_words": len(self.pipeline.vocab),
            "algorithms": list(self.pipeline.config.algorithms),
            "dimensions": list(self.pipeline.config.dimensions),
            "precisions": list(self.pipeline.config.precisions),
            "seeds": list(self.pipeline.config.seeds),
            "tasks": list(self.pipeline.config.tasks),
            "store_persistent": self.pipeline.store.persistent,
            "store_tiers": [tier.name for tier in self.pipeline.store.tiers],
            "store_peers": peers,
            "degraded": any(peer["breaker_open"] for peer in peers),
            "cluster_workers": len(self.coordinator.snapshot()["workers"]),
        }

    def metrics(self) -> dict:
        """Counter snapshot: engine stats plus the serving-layer counters."""
        snapshot = engine_stats(
            engine=self.engine,
            coordinator=self.coordinator,
            monitor=self.monitor,
        )
        with self._lock:
            serving = dict(self._counters)
            serving["inflight_now"] = len(self._inflight)
        snapshot["serving"] = serving
        snapshot["telemetry"]["traces"] = self.traces.counters()
        return snapshot


class _CancellableStream:
    """A record iterator whose ``close()`` is safe from another thread.

    A plain generator refuses ``close()`` while its frame is executing --
    exactly the state a distributed stream is in when it blocks waiting for
    worker results and the HTTP layer notices the client is gone.  This
    wrapper routes ``close()`` through a thread-safe ``cancel`` callback
    first (the coordinator wakes and ends the underlying generator), then
    best-effort closes the generator itself.
    """

    def __init__(self, iterator: Iterator[GridRecord], cancel: Callable[[], None]) -> None:
        self._iterator = iterator
        self._cancel = cancel

    def __iter__(self) -> "_CancellableStream":
        return self

    def __next__(self) -> GridRecord:
        return next(self._iterator)

    def close(self) -> None:
        self._cancel()
        try:
            self._iterator.close()
        except ValueError:
            # The producer thread is inside __next__; the cancel above makes
            # it return, and the generator's finally blocks run there.
            pass


def _finite_or_none(value: float) -> float | None:
    return float(value) if np.isfinite(value) else None
