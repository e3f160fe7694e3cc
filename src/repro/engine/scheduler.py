"""Grid scheduler: ancestry-aware ordering and parallel fan-out of grid cells.

One instability-grid cell is an (algorithm, dimension, precision, seed, task)
combination, but cells are far from independent: every precision and every
task of the same (algorithm, dimension, seed) reuses one full-precision
embedding pair, and every dimension of the same (algorithm, seed) shares the
anchor pair that defines the EIS measure.  The scheduler therefore:

1. collapses the grid into :class:`CellGroup`\\ s -- one per (algorithm,
   dimension, seed) -- so all dependent work runs next to its shared ancestor;
2. topologically orders groups so ancestors come first (the anchor-dimension
   group of each (algorithm, seed) runs before the groups that consume its
   embeddings as EIS anchors);
3. fans independent groups out over ``multiprocessing`` workers, or runs them
   serially -- the two paths are bit-identical because every artifact is a
   deterministic function of its configuration;
4. reassembles records in the canonical axis-product order, so callers see
   the same ordering regardless of execution strategy.

Within a group, :func:`evaluate_group` evaluates every cell through one
:meth:`~repro.instability.pipeline.InstabilityPipeline.evaluate_many` call:
the downstream models still to train are bucketed by task and training
config, and each bucket -- the 2 x |precisions| models of a task -- trains
as one lockstep stack instead of model by model.

Worker processes rebuild the pipeline from its configuration.  Handing the
engine a disk-backed :class:`~repro.engine.store.ArtifactStore` lets workers
share trained artifacts across processes and across runs.

Workers are **warm-started**: the pool initializer receives the parent's
already-generated corpus pair and every trained embedding pair the parent
store holds in its memory tier as plain arguments.  Under the ``fork`` start
method the workers share the parent's objects and nothing is copied; under
``spawn`` the pool pickles them.  Either way the corpus is built once per run
instead of once per worker (pinned by ``pipeline.corpus_build_count``), and
warm reruns fan out without retraining even without a disk tier.

Results can be consumed two ways: the batch :meth:`GridEngine.run` (records
reassembled in canonical axis-product order) and the streaming
:meth:`GridEngine.run_iter`, which yields records as workers complete them;
``run`` is a thin wrapper over the ordered-commit streaming path (see
:mod:`repro.engine.streaming`).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.engine.store import ArtifactStore
from repro.engine.streaming import canonical_cell_keys, commit_in_order
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # imported lazily at runtime to avoid import cycles
    from repro.corpus.synthetic import CorpusPair
    from repro.embeddings.base import Embedding
    from repro.instability.grid import GridRecord
    from repro.instability.pipeline import InstabilityPipeline, PipelineConfig

logger = get_logger(__name__)

__all__ = ["CellGroup", "GridEngine", "GridPlan", "evaluate_group", "plan_grid", "plan_groups"]


@dataclass(frozen=True)
class CellGroup:
    """All grid cells sharing one full-precision embedding pair.

    The (algorithm, dim, seed) triple identifies the trained pair; the group
    carries every dependent precision and task so a single worker evaluates
    them together, hitting the pair in cache and quantizing it once per
    precision.
    """

    algorithm: str
    dim: int
    seed: int
    precisions: tuple[int, ...]
    tasks: tuple[str, ...]
    with_measures: bool = False
    model_type: str = "bow"

    @property
    def n_cells(self) -> int:
        return len(self.precisions) * len(self.tasks)


def plan_groups(
    algorithms: tuple[str, ...],
    dimensions: tuple[int, ...],
    precisions: tuple[int, ...],
    seeds: tuple[int, ...],
    tasks: tuple[str, ...],
    *,
    anchor_dim: int | None = None,
    with_measures: bool = False,
    model_type: str = "bow",
) -> list["CellGroup"]:
    """Collapse grid axes into cell groups, topologically ordered by ancestry.

    When measures are requested, every group of an (algorithm, seed) depends
    on that pair's anchor-dimension embeddings; scheduling the anchor group
    first means a serial run (or a warm store) trains the shared ancestor
    exactly once before its dependants need it.
    """
    groups = [
        CellGroup(
            algorithm=a, dim=d, seed=s,
            precisions=tuple(precisions), tasks=tuple(tasks),
            with_measures=with_measures, model_type=model_type,
        )
        for a, d, s in itertools.product(algorithms, dimensions, seeds)
    ]
    if with_measures and anchor_dim is not None:
        groups.sort(key=lambda g: (g.algorithm, g.seed, g.dim != anchor_dim))
    return groups


@dataclass(frozen=True)
class GridPlan:
    """One grid execution, fully resolved: axes plus the ordered group plan.

    The plan is the part of an execution that is independent of *where* the
    cells run: the local scheduler fans ``groups`` out over processes, and
    the cluster coordinator (:mod:`repro.cluster.coordinator`) hands the very
    same groups out as leases to remote workers.  Both paths commit records
    against :meth:`cell_keys`, which is why they are bit-identical.
    """

    algorithms: tuple[str, ...]
    dimensions: tuple[int, ...]
    precisions: tuple[int, ...]
    seeds: tuple[int, ...]
    tasks: tuple[str, ...]
    with_measures: bool
    model_type: str
    anchor_dim: int | None
    groups: tuple[CellGroup, ...]

    @property
    def n_cells(self) -> int:
        return sum(group.n_cells for group in self.groups)

    def cell_keys(self) -> list:
        """Every cell key in the canonical axis-product order (commit order)."""
        return canonical_cell_keys(
            self.algorithms, self.dimensions, self.precisions, self.seeds, self.tasks
        )


def plan_grid(
    config: "PipelineConfig",
    *,
    algorithms: tuple[str, ...] | None = None,
    tasks: tuple[str, ...] | None = None,
    dimensions: tuple[int, ...] | None = None,
    precisions: tuple[int, ...] | None = None,
    seeds: tuple[int, ...] | None = None,
    with_measures: bool = False,
    model_type: str = "bow",
) -> GridPlan:
    """Resolve grid axes against a pipeline config and plan the cell groups.

    Any axis left as ``None`` defaults to the configuration; the group order
    is the ancestry-aware order of :func:`plan_groups` (anchor groups first).
    """
    algorithms = tuple(algorithms or config.algorithms)
    tasks = tuple(tasks or config.tasks)
    dimensions = tuple(int(d) for d in (dimensions or config.dimensions))
    precisions = tuple(int(p) for p in (precisions or config.precisions))
    seeds = tuple(int(s) for s in (seeds or config.seeds))
    anchor_dim = config.resolved_anchor_dim
    groups = plan_groups(
        algorithms, dimensions, precisions, seeds, tasks,
        anchor_dim=anchor_dim, with_measures=with_measures, model_type=model_type,
    )
    return GridPlan(
        algorithms=algorithms,
        dimensions=dimensions,
        precisions=precisions,
        seeds=seeds,
        tasks=tasks,
        with_measures=with_measures,
        model_type=model_type,
        anchor_dim=anchor_dim,
        groups=tuple(groups),
    )


def evaluate_group(pipeline: "InstabilityPipeline", group: CellGroup) -> list["GridRecord"]:
    """Evaluate every cell of one group against a pipeline.

    The group's downstream models go through one
    :meth:`~repro.instability.pipeline.InstabilityPipeline.evaluate_many`
    call, so every model of a task that still needs training trains in one
    lockstep stack; records come back in (precision, task) order.  Measures
    and models share one quantized-pair memo, so each precision is quantized
    at most once per group (and not at all when both are stored).
    """
    from repro.instability.grid import GridRecord

    pairs: dict = {}
    measures = {
        precision: (
            pipeline.compute_measures(
                group.algorithm, group.dim, precision, group.seed, pairs=pairs
            )
            if group.with_measures
            else {}
        )
        for precision in group.precisions
    }
    cells = [
        (task, group.algorithm, group.dim, precision, group.seed)
        for precision in group.precisions
        for task in group.tasks
    ]
    results = pipeline.evaluate_many(cells, model_type=group.model_type, pairs=pairs)
    return [
        GridRecord(
            algorithm=group.algorithm,
            task=task,
            dim=group.dim,
            precision=precision,
            seed=group.seed,
            disagreement=result.disagreement,
            accuracy_a=result.accuracy_a,
            accuracy_b=result.accuracy_b,
            measures=measures[precision],
        )
        for (task, _, _, precision, _), result in zip(cells, results)
    ]


# -- multiprocessing workers ----------------------------------------------------

_WORKER_PIPELINE: "InstabilityPipeline | None" = None


def _init_worker(
    config: "PipelineConfig",
    store_spec,
    corpus_pair: "CorpusPair | None",
    pairs: "Mapping[str, tuple[Embedding, Embedding]]",
) -> None:
    """Build the per-process pipeline once; groups then reuse its caches.

    ``store_spec`` is the parent store's :meth:`ArtifactStore.spec` (or a bare
    root path, or ``None``); each worker rebuilds the same tier stack -- disk,
    replicas, remote peers -- so artifacts written by any process land where
    every other process looks for them.  ``corpus_pair`` is the parent's
    already-generated corpus pair, so the worker generates none.  ``pairs``
    maps store keys to the trained embedding pairs the parent store held in
    its memory tier; they preload the worker store so warm reruns skip
    retraining.  Under ``fork`` both are the parent's own objects, under
    ``spawn`` pickled copies.
    """
    global _WORKER_PIPELINE
    from repro.instability.pipeline import InstabilityPipeline

    _WORKER_PIPELINE = InstabilityPipeline(
        config, store=ArtifactStore.from_spec(store_spec), warm_corpus_pair=corpus_pair
    )
    for key, pair in pairs.items():
        _WORKER_PIPELINE.store.preload("embedding_pair", key, pair)


def _evaluate_group_in_worker(group: CellGroup) -> list["GridRecord"]:
    assert _WORKER_PIPELINE is not None, "worker initializer did not run"
    return evaluate_group(_WORKER_PIPELINE, group)


class GridEngine:
    """Cached, optionally parallel executor of the instability grid.

    Parameters
    ----------
    pipeline:
        An :class:`~repro.instability.pipeline.InstabilityPipeline`, a
        :class:`~repro.instability.pipeline.PipelineConfig`, or ``None``
        (default configuration).
    store:
        Artifact store handed to a pipeline the engine constructs itself
        (ignored when a ready pipeline is passed -- it already owns one).
    n_workers:
        Default process fan-out for :meth:`run`; ``0`` or ``1`` means serial.
    coordinator_url:
        Base URL of a cluster coordinator (a ``repro-serve`` instance).  When
        set -- explicitly or process-wide via
        :func:`repro.cluster.configure_default_coordinator` -- grid runs are
        shipped to the coordinator and executed by its ``repro-worker`` fleet
        instead of locally; the record stream stays bit-identical.
    """

    def __init__(
        self,
        pipeline: "InstabilityPipeline | PipelineConfig | None" = None,
        *,
        store: ArtifactStore | None = None,
        n_workers: int = 0,
        coordinator_url: str | None = None,
    ) -> None:
        from repro.instability.pipeline import InstabilityPipeline, PipelineConfig

        if pipeline is None:
            pipeline = InstabilityPipeline(store=store)
        elif isinstance(pipeline, PipelineConfig):
            pipeline = InstabilityPipeline(pipeline, store=store)
        self.pipeline: "InstabilityPipeline" = pipeline
        self.n_workers = int(n_workers)
        self.coordinator_url = coordinator_url
        #: Warm-up telemetry of the most recent parallel run: how many
        #: trained embedding pairs the workers started with.
        self.last_warmup: dict | None = None

    @property
    def store(self) -> ArtifactStore:
        return self.pipeline.store

    def run(
        self,
        *,
        algorithms: tuple[str, ...] | None = None,
        tasks: tuple[str, ...] | None = None,
        dimensions: tuple[int, ...] | None = None,
        precisions: tuple[int, ...] | None = None,
        seeds: tuple[int, ...] | None = None,
        with_measures: bool = False,
        model_type: str = "bow",
        n_workers: int | None = None,
    ) -> list["GridRecord"]:
        """Evaluate every grid combination and return records in product order.

        Any axis left as ``None`` defaults to the pipeline configuration.
        ``n_workers`` overrides the engine default for this run only.  This is
        the batch view of :meth:`run_iter`: the list is bit-identical to what
        the pre-streaming serial path produced.
        """
        return list(
            self.run_iter(
                algorithms=algorithms,
                tasks=tasks,
                dimensions=dimensions,
                precisions=precisions,
                seeds=seeds,
                with_measures=with_measures,
                model_type=model_type,
                n_workers=n_workers,
            )
        )

    def run_iter(
        self,
        *,
        algorithms: tuple[str, ...] | None = None,
        tasks: tuple[str, ...] | None = None,
        dimensions: tuple[int, ...] | None = None,
        precisions: tuple[int, ...] | None = None,
        seeds: tuple[int, ...] | None = None,
        with_measures: bool = False,
        model_type: str = "bow",
        n_workers: int | None = None,
    ) -> Iterator["GridRecord"]:
        """Stream grid records as their cells complete, in canonical order.

        Records are released in the canonical axis-product order through an
        ordered commit -- completions arriving early are buffered, so the
        stream is bit-identical to :meth:`run` regardless of worker
        scheduling.
        """
        plan = plan_grid(
            self.pipeline.config,
            algorithms=algorithms, tasks=tasks, dimensions=dimensions,
            precisions=precisions, seeds=seeds,
            with_measures=with_measures, model_type=model_type,
        )
        workers = self.n_workers if n_workers is None else int(n_workers)

        coordinator = self.coordinator_url
        if coordinator is None:
            from repro.cluster.client import default_coordinator_url

            coordinator = default_coordinator_url()
        if coordinator:
            yield from self._iter_distributed(coordinator, plan)
            return

        groups = list(plan.groups)
        if workers > 1 and len(groups) > 1:
            batches = self._iter_parallel(groups, min(workers, len(groups)))
        else:
            batches = (evaluate_group(self.pipeline, group) for group in groups)

        count = 0
        for record in commit_in_order(batches, plan.cell_keys()):
            count += 1
            yield record
        logger.info(
            "grid done: %d records from %d groups (%s)",
            count, len(groups), f"{workers} workers" if workers > 1 else "serial",
        )

    def _iter_distributed(self, coordinator: str, plan: GridPlan) -> Iterator["GridRecord"]:
        """Ship the plan to a cluster coordinator and stream its records back.

        The coordinator leases the plan's groups to ``repro-worker`` processes
        and commits their results through the same ordered-commit path as the
        local scheduler, so the yielded stream is bit-identical to a local
        ``run()``; the coordinator's artifact store makes warm reruns train
        nothing cluster-wide.
        """
        from repro.cluster.client import stream_remote_grid

        count = 0
        for record in stream_remote_grid(coordinator, self.pipeline.config, plan):
            count += 1
            yield record
        logger.info(
            "distributed grid done: %d records from %d groups via %s",
            count, len(plan.groups), coordinator,
        )

    def _iter_parallel(
        self, groups: list[CellGroup], workers: int
    ) -> Iterator[list["GridRecord"]]:
        """Fan groups out over processes, yielding each group's records as it
        completes; falls back to serial on pool start failure."""
        method = "fork" if "fork" in get_all_start_methods() else None
        ctx = get_context(method)
        # Warm-up: workers start from the parent's corpus pair and from every
        # trained pair its memory tier holds, instead of regenerating the
        # corpus and retraining pairs the parent already has.  ``fork`` never
        # pickles initializer arguments, so the workers share these objects.
        pairs = self.store.memory_entries("embedding_pair")
        self.last_warmup = {"pairs_shipped": len(pairs)}
        try:
            pool = ctx.Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(
                    self.pipeline.config, self.store.spec(),
                    self.pipeline.corpus_pair, pairs,
                ),
            )
        except (OSError, RuntimeError) as error:  # pragma: no cover - env dependent
            # Only pool *start-up* failures trigger the serial fallback; an
            # exception raised by a worker task is a real error and propagates.
            warnings.warn(
                f"parallel grid execution unavailable ({error}); running serially",
                UserWarning,
                stacklevel=3,
            )
            self.last_warmup = None
            for group in groups:
                yield evaluate_group(self.pipeline, group)
            return
        with pool:
            # ``imap_unordered``: each group's records surface the moment
            # its worker finishes; the ordered committer restores the
            # canonical sequence downstream.
            yield from pool.imap_unordered(
                _evaluate_group_in_worker, groups, chunksize=1
            )
