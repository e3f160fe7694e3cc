"""Cluster coordinator: leases grid cell-groups to pull-based workers.

The coordinator is the server half of the distributed grid-execution
subsystem.  It decomposes a grid into the scheduler's ancestry-aware
:class:`~repro.engine.scheduler.CellGroup`\\ s (one
:class:`~repro.engine.scheduler.GridPlan` per run), hands groups out as
**leases** with a heartbeat-extended expiry, and commits the records workers
push back through the engine's
:class:`~repro.engine.streaming.OrderedCommitter` -- so a distributed run
streams records in the canonical axis-product order, bit-identical to a
serial :meth:`GridEngine.run`.

Scheduling rules:

* **anchor groups first** -- groups are leased in plan order, which puts the
  anchor-dimension group of each (algorithm, seed) ancestry ahead of the
  groups that consume its embeddings as EIS anchors;
* **ancestry gating** -- while a measure-bearing run's ancestry has no
  completed group, only its first pending group is leasable.  The first
  group trains the shared anchor pair and pushes it into the coordinator's
  artifact store (workers mount the coordinator as a remote store tier);
  gating the siblings until that push lands is what makes every trained
  pair unique cluster-wide instead of redundantly retrained per worker;
* **at-least-once execution** -- a lease that misses its heartbeat expires
  and the group returns to the pending pool.  Re-execution is safe because
  every artifact and record is a deterministic function of its
  configuration: whichever result arrives first is committed, later
  arrivals are counted (``duplicate_results``) and dropped;
* **one live lease per group** -- a group is leased again only once its
  lease is gone (completed, failed or expired), so a slow worker is never
  raced by a second copy of the same training.

Crash safety: when constructed with an :class:`ArtifactStore`, the
coordinator checkpoints every run's durable state (plan wire form, config
payload, group states/attempts, committed rows) as ``cluster-run`` JSON
artifacts on each state transition, and :meth:`resume_runs` rebuilds the
lease tables from those checkpoints after a restart -- committed records
replay through a fresh :class:`OrderedCommitter` so a resumed stream stays
bit-identical, and only unfinished groups re-lease.

The coordinator holds plain thread-safe state and speaks no HTTP itself;
the serving layer mounts it as the ``/cluster/*`` endpoints (same
unauthenticated trust model as ``/artifacts``).  ``clock`` injects a
monotonic time source so lease expiry is testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterator

from repro.engine.scheduler import CellGroup, GridPlan
from repro.engine.streaming import OrderedCommitter, cell_key
from repro.utils.io import to_jsonable
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.store import ArtifactStore
    from repro.instability.grid import GridRecord
    from repro.instability.pipeline import PipelineConfig
    from repro.telemetry.trace import TraceBuffer

logger = get_logger(__name__)

__all__ = [
    "ClusterCoordinator",
    "ClusterRunFailed",
    "config_wire_payload",
    "group_from_wire",
    "group_wire_payload",
    "plan_from_wire",
    "plan_wire_payload",
]

#: Group states in a run's lease table.
_PENDING, _LEASED, _DONE = "pending", "leased", "done"

#: Count backstop on finished-run retention (age GC is the primary policy).
_MAX_FINISHED_RUNS = 64

#: Lease attempts per group before a reported execution error fails the run
#: (expiries consume attempts too).
MAX_ATTEMPTS = 3

#: Seconds a finished run (and its checkpoints) is kept, once no record
#: stream is attached, before age GC collects it.
RUN_GC_AGE = 3600.0

#: Seconds of silence after which a worker holding no lease leaves the
#: status table; its counters retire into monotonic fleet aggregates.
WORKER_TTL = 300.0

#: Artifact kind of coordinator checkpoints (stored via the JSON codec).
CHECKPOINT_KIND = "cluster-run"

#: Store key of the checkpoint index (the list of checkpointed run ids).
_INDEX_KEY = "runs-index"


class ClusterRunFailed(RuntimeError):
    """A run's group exhausted its attempts; raised to the record consumer."""


def config_wire_payload(config: "PipelineConfig") -> dict:
    """The JSON wire form of a pipeline config (rebuilt by
    :meth:`~repro.instability.pipeline.PipelineConfig.from_jsonable`)."""
    return to_jsonable(config)


def group_wire_payload(group: CellGroup) -> dict:
    """The JSON wire form of one cell group (a lease's work description)."""
    return {
        "algorithm": group.algorithm,
        "dim": group.dim,
        "seed": group.seed,
        "precisions": list(group.precisions),
        "tasks": list(group.tasks),
        "with_measures": group.with_measures,
        "model_type": group.model_type,
    }


def group_from_wire(payload: dict) -> CellGroup:
    """Rebuild a :class:`CellGroup` from :func:`group_wire_payload`."""
    return CellGroup(
        algorithm=str(payload["algorithm"]),
        dim=int(payload["dim"]),
        seed=int(payload["seed"]),
        precisions=tuple(int(p) for p in payload["precisions"]),
        tasks=tuple(str(t) for t in payload["tasks"]),
        with_measures=bool(payload.get("with_measures", False)),
        model_type=str(payload.get("model_type", "bow")),
    )


def plan_wire_payload(plan: GridPlan) -> dict:
    """The JSON wire form of a full grid plan (a run checkpoint's work spec)."""
    return {
        "algorithms": list(plan.algorithms),
        "dimensions": list(plan.dimensions),
        "precisions": list(plan.precisions),
        "seeds": list(plan.seeds),
        "tasks": list(plan.tasks),
        "with_measures": plan.with_measures,
        "model_type": plan.model_type,
        "anchor_dim": plan.anchor_dim,
        "groups": [group_wire_payload(group) for group in plan.groups],
    }


def plan_from_wire(payload: dict) -> GridPlan:
    """Rebuild a :class:`GridPlan` from :func:`plan_wire_payload`."""
    anchor = payload.get("anchor_dim")
    return GridPlan(
        algorithms=tuple(str(a) for a in payload["algorithms"]),
        dimensions=tuple(int(d) for d in payload["dimensions"]),
        precisions=tuple(int(p) for p in payload["precisions"]),
        seeds=tuple(int(s) for s in payload["seeds"]),
        tasks=tuple(str(t) for t in payload["tasks"]),
        with_measures=bool(payload.get("with_measures", False)),
        model_type=str(payload.get("model_type", "bow")),
        anchor_dim=None if anchor is None else int(anchor),
        groups=tuple(group_from_wire(g) for g in payload["groups"]),
    )


class _ClusterRun:
    """Lease table and ordered-commit state of one submitted grid."""

    def __init__(
        self, run_id: str, plan: GridPlan, config_payload: dict, created_at: float = 0.0,
        trace: dict | None = None,
    ) -> None:
        self.run_id = run_id
        self.plan = plan
        self.config_payload = config_payload
        self.committer = OrderedCommitter(plan.cell_keys())
        #: Records released by the committer, in canonical order; consumers
        #: (the /grid NDJSON stream) read a growing prefix of this list.
        self.ready: list["GridRecord"] = []
        self.states = [_PENDING] * len(plan.groups)
        self.attempts = [0] * len(plan.groups)
        #: Trace context of the submitting request (``{"trace_id", "parent_span"}``
        #: or ``None``); rides in every lease so worker spans stitch into the
        #: submitter's trace.  Ephemeral: not checkpointed.
        self.trace = trace
        #: When each group last became leasable, feeding the per-group
        #: ``cluster.lease_wait`` span.
        self.pending_since = [created_at] * len(plan.groups)
        self.cancelled = False
        self.completed = False
        self.failure: str | None = None
        self.created_at = created_at
        self.finished_at: float | None = None
        #: Attached record streams; a run with consumers is never GC'd.
        self.consumers = 0
        #: True once the finished run's ready list was released to save
        #: memory -- the records remain recoverable from the checkpoint.
        self.ready_dropped = False

    @property
    def active(self) -> bool:
        return not (self.completed or self.cancelled or self.failure)

    def done_count(self) -> int:
        return sum(1 for state in self.states if state is _DONE)

    def summary(self) -> dict:
        return {
            "groups": len(self.states),
            "done": self.done_count(),
            "leased": sum(1 for s in self.states if s is _LEASED),
            "pending": sum(1 for s in self.states if s is _PENDING),
            "cells": self.plan.n_cells,
            "committed": self.committer.committed,
            "remaining": self.committer.remaining,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "failure": self.failure,
        }


class _Lease:
    def __init__(
        self, lease_id: str, run_id: str, group_index: int, worker: str, expires_at: float
    ) -> None:
        self.lease_id = lease_id
        self.run_id = run_id
        self.group_index = group_index
        self.worker = worker
        self.expires_at = expires_at


class ClusterCoordinator:
    """Thread-safe lease/commit state machine behind the ``/cluster/*`` API.

    Parameters
    ----------
    default_config:
        Wire payload (see :func:`config_wire_payload`) handed to workers for
        runs submitted without an explicit config -- normally the hosting
        service's own pipeline configuration.
    lease_ttl:
        Seconds a lease stays valid without a heartbeat; an expired lease
        returns its group to the pending pool.
    store:
        Optional :class:`ArtifactStore` for run checkpoints.  With a
        persistent store, :meth:`resume_runs` can rebuild every run after a
        coordinator restart; without one, checkpointing is disabled.  A
        checkpoint the store refuses is logged and counted
        (``checkpoint_failures``), never raised.
    clock:
        Monotonic time source (injectable for the lease-lifecycle tests).
    """

    def __init__(
        self,
        *,
        default_config: dict | None = None,
        lease_ttl: float = 60.0,
        store: "ArtifactStore | None" = None,
        clock=time.monotonic,
        trace_sink: "TraceBuffer | None" = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self.default_config = default_config or {}
        self.lease_ttl = float(lease_ttl)
        self.store = store
        self._clock = clock
        #: Optional :class:`~repro.telemetry.trace.TraceBuffer` that receives
        #: coordinator-side spans (lease wait) and worker-shipped span rows,
        #: stitching distributed runs into their submitter's trace.
        self.trace_sink = trace_sink
        self._cond = threading.Condition()
        self._runs: "OrderedDict[str, _ClusterRun]" = OrderedDict()
        self._leases: dict[str, _Lease] = {}
        self._serial = 0
        self._draining = False
        self._workers: dict[str, dict] = {}
        #: Monotonic aggregates of evicted workers, so fleet-level totals in
        #: the snapshot never shrink when the worker table is pruned (same
        #: retired-counter pattern as the worker's pipeline cache).
        self._retired_workers = {
            "workers_evicted": 0,
            "leases": 0,
            "groups_completed": 0,
            "cells_completed": 0,
            "failures": 0,
        }
        self.counters = {
            "runs_created": 0,
            "runs_completed": 0,
            "runs_cancelled": 0,
            "runs_failed": 0,
            "runs_resumed": 0,
            "runs_gced": 0,
            "leases_issued": 0,
            "leases_expired": 0,
            "leases_reassigned": 0,
            "duplicate_results": 0,
            "late_results": 0,
            "group_failures": 0,
            "records_committed": 0,
            "records_replayed": 0,
            "cells_completed": 0,
            "checkpoints_written": 0,
            "checkpoint_failures": 0,
            "ready_records_dropped": 0,
            "workers_evicted": 0,
            "drains_started": 0,
        }

    # -- run lifecycle ---------------------------------------------------------

    def create_run(
        self,
        plan: GridPlan,
        config_payload: dict | None = None,
        trace: dict | None = None,
    ) -> str:
        """Register a grid for distributed execution; returns its run id.

        ``trace`` optionally carries the submitting request's trace context
        (``{"trace_id": ..., "parent_span": ...}``); it rides in every lease
        of the run so worker-side spans stitch into that trace.
        """
        if trace is not None:
            trace_id = trace.get("trace_id") if isinstance(trace, dict) else None
            trace = {
                "trace_id": str(trace_id),
                "parent_span": str(trace.get("parent_span") or ""),
            } if trace_id else None
        with self._cond:
            run_id = f"run-{self._next_serial_locked():04d}"
            run = _ClusterRun(
                run_id, plan, config_payload or self.default_config, self._clock(),
                trace=trace,
            )
            self._runs[run_id] = run
            self.counters["runs_created"] += 1
            self._gc_finished_locked(self._clock())
            self._checkpoint_run_locked(run)
            self._checkpoint_index_locked()
            self._cond.notify_all()
        logger.info(
            "cluster run %s created: %d groups, %d cells",
            run_id, len(plan.groups), plan.n_cells,
        )
        return run_id

    def cancel(self, run_id: str) -> bool:
        """Stop leasing a run's groups; outstanding results are dropped."""
        with self._cond:
            run = self._runs.get(run_id)
            if run is None or not run.active:
                return False
            run.cancelled = True
            run.finished_at = self._clock()
            self._checkpoint_run_locked(run)
            self._cond.notify_all()
            self.counters["runs_cancelled"] += 1
        logger.info("cluster run %s cancelled", run_id)
        return True

    def run_status(self, run_id: str) -> dict | None:
        with self._cond:
            run = self._runs.get(run_id)
            return None if run is None else {"run_id": run_id, **run.summary()}

    def resume_runs(self) -> int:
        """Rebuild runs from store checkpoints after a coordinator restart.

        Every checkpointed run in the index comes back: committed groups
        replay their rows through a fresh :class:`OrderedCommitter` (so the
        resumed stream is bit-identical and the records are immediately
        consumable), unfinished groups return to the pending pool with
        their attempt counts intact, and finished runs resume for status
        queries until age GC collects them.  Returns the number of runs
        resumed; safe to call with no store or no checkpoints (returns 0).
        A checkpoint read that raises is logged and counted in
        ``checkpoint_failures``: an unreadable index resumes nothing, an
        unreadable run is skipped, and a done group whose rows are
        unreadable returns to pending.
        """
        from repro.instability.grid import GridRecord

        if self.store is None:
            return 0
        try:
            index = self.store.get_json(CHECKPOINT_KIND, _INDEX_KEY)
        except Exception as err:
            with self._cond:
                self.counters["checkpoint_failures"] += 1
            logger.warning("could not read the cluster-run checkpoint index: %s", err)
            return 0
        if not index:
            return 0
        resumed = 0
        with self._cond:
            now = self._clock()
            for run_id in index.get("runs", []):
                if run_id in self._runs:
                    continue
                try:
                    meta = self.store.get_json(CHECKPOINT_KIND, run_id)
                except Exception as err:
                    self.counters["checkpoint_failures"] += 1
                    logger.warning("checkpoint of %s unreadable: %s", run_id, err)
                    continue
                if not meta:
                    continue
                try:
                    run = self._rebuild_run_locked(run_id, meta, now, GridRecord)
                except (KeyError, ValueError, TypeError) as err:
                    logger.warning("checkpoint of %s malformed, skipping: %s", run_id, err)
                    continue
                self._runs[run_id] = run
                self.counters["runs_resumed"] += 1
                resumed += 1
                try:
                    serial = int(run_id.rsplit("-", 1)[1])
                except (IndexError, ValueError):
                    serial = 0
                self._serial = max(self._serial, serial)
                logger.info(
                    "cluster run %s resumed from checkpoint: %d/%d groups done, "
                    "%d records replayed",
                    run_id, run.done_count(), len(run.states), len(run.ready),
                )
            if resumed:
                self._cond.notify_all()
        return resumed

    def _rebuild_run_locked(
        self, run_id: str, meta: dict, now: float, record_cls
    ) -> _ClusterRun:
        plan = plan_from_wire(meta["plan"])
        run = _ClusterRun(run_id, plan, dict(meta.get("config") or {}), now)
        attempts = meta.get("attempts") or []
        for index, count in enumerate(attempts[: len(run.attempts)]):
            run.attempts[index] = int(count)
        states = meta.get("states") or []
        for index, state in enumerate(states[: len(run.states)]):
            if state != _DONE:
                continue
            rows_payload = None
            try:
                rows_payload = self.store.get_json(
                    CHECKPOINT_KIND, _group_key(run_id, index)
                )
            except Exception as err:
                self.counters["checkpoint_failures"] += 1
                logger.warning(
                    "rows checkpoint of %s group %d unreadable: %s", run_id, index, err
                )
            if not rows_payload or "rows" not in rows_payload:
                # The meta checkpoint said done but the rows are gone: the
                # group falls back to pending and simply re-executes (the
                # artifacts are still warm, so the re-run is cheap).
                logger.warning(
                    "rows of %s group %d missing; group returns to pending",
                    run_id, index,
                )
                continue
            records = [record_cls.from_row(row) for row in rows_payload["rows"]]
            for record in records:
                run.ready.extend(run.committer.push(record))
            run.states[index] = _DONE
            self.counters["records_replayed"] += len(records)
        run.cancelled = bool(meta.get("cancelled", False))
        run.failure = meta.get("failure")
        run.completed = bool(meta.get("completed", False)) and all(
            state is _DONE for state in run.states
        )
        if not run.active:
            run.finished_at = now
        return run

    # -- drain -----------------------------------------------------------------

    def drain(self, draining: bool = True) -> dict:
        """Toggle drain mode: stop issuing leases, let in-flight work finish.

        Heartbeats and completions are still accepted while draining, so
        every outstanding lease can land its result; only *new* leases are
        refused (workers get ``{"status": "drain"}`` and back off).  Returns
        the same payload as :meth:`drain_status`.
        """
        with self._cond:
            draining = bool(draining)
            if draining and not self._draining:
                self.counters["drains_started"] += 1
                logger.info("cluster coordinator draining: no new leases")
            elif not draining and self._draining:
                logger.info("cluster coordinator drain lifted")
            self._draining = draining
            self._cond.notify_all()
            return self._drain_status_locked()

    def drain_status(self) -> dict:
        with self._cond:
            self._sweep_locked(self._clock())
            return self._drain_status_locked()

    def _drain_status_locked(self) -> dict:
        return {
            "draining": self._draining,
            "leases_outstanding": len(self._leases),
            "runs_active": sum(1 for run in self._runs.values() if run.active),
            "drained": self._draining and not self._leases,
        }

    # -- worker-facing API (the /cluster/* endpoints) --------------------------

    def lease(self, worker: str) -> dict:
        """Hand the next available group to ``worker``.

        Returns a ``{"status": "lease", ...}`` payload carrying the group,
        the run's pipeline config and the TTL; ``{"status": "wait"}`` when
        runs exist but every eligible group is leased or ancestry-gated;
        ``{"status": "drain"}`` while draining; and ``{"status": "idle"}``
        when there is nothing to execute at all.
        """
        worker = str(worker)
        with self._cond:
            now = self._clock()
            self._sweep_locked(now)
            self._touch_worker_locked(worker, now)
            if self._draining:
                return {"status": "drain"}
            any_active = False
            for run in self._runs.values():
                if not run.active:
                    continue
                any_active = True
                index = self._next_available_locked(run)
                if index is None:
                    continue
                lease_id = f"{run.run_id}-lease-{self._next_serial_locked():04d}"
                run.states[index] = _LEASED
                run.attempts[index] += 1
                if run.attempts[index] > 1:
                    self.counters["leases_reassigned"] += 1
                self._leases[lease_id] = _Lease(
                    lease_id, run.run_id, index, worker, now + self.lease_ttl
                )
                self.counters["leases_issued"] += 1
                self._workers[worker]["leases"] += 1
                self._checkpoint_run_locked(run)
                self._record_lease_wait_locked(run, index, worker, now)
                answer = {
                    "status": "lease",
                    "lease_id": lease_id,
                    "run_id": run.run_id,
                    "group_index": index,
                    "group": group_wire_payload(run.plan.groups[index]),
                    "config": run.config_payload,
                    "ttl": self.lease_ttl,
                }
                if run.trace is not None:
                    answer["trace"] = run.trace
                return answer
            return {"status": "wait" if any_active else "idle"}

    def heartbeat(self, worker: str, lease_id: str) -> dict:
        """Extend a lease; ``{"status": "gone"}`` tells the worker it expired."""
        with self._cond:
            now = self._clock()
            self._sweep_locked(now)
            self._touch_worker_locked(str(worker), now)
            lease = self._leases.get(lease_id)
            if lease is None or lease.worker != worker:
                return {"status": "gone"}
            lease.expires_at = now + self.lease_ttl
            return {"status": "ok", "ttl": self.lease_ttl}

    def complete(
        self,
        worker: str,
        lease_id: str,
        run_id: str,
        group_index: int,
        rows: list[dict] | None = None,
        stats: dict | None = None,
        error: str | None = None,
        spans: list[dict] | None = None,
    ) -> dict:
        """Accept one group's results (or its failure report) from a worker.

        ``spans`` optionally carries telemetry span rows recorded by the
        worker while executing the lease; accepted results feed them into
        the coordinator's trace sink, stitching the distributed execution
        into the submitting request's trace.

        Identified by ``(run_id, group_index)`` rather than the lease alone,
        so a result that outlived its lease -- the worker stalled past the
        TTL but did finish -- is still accepted if the group is not done yet
        (``late_results``); a group that *is* done counts a duplicate and the
        payload is dropped.  Both are safe: results are content-addressed
        and deterministic, so every copy is identical.
        """
        from repro.instability.grid import GridRecord

        worker = str(worker)
        with self._cond:
            now = self._clock()
            self._sweep_locked(now)
            self._touch_worker_locked(worker, now)
            lease = self._leases.get(lease_id)
            if lease is not None and lease.worker == worker:
                # Popping a lease must never strand its group: return it to
                # the pending pool immediately (still under the lock), and
                # let the success path below re-mark it done.
                del self._leases[lease_id]
                owner = self._runs.get(lease.run_id)
                if owner is not None:
                    self._release_group_locked(owner, lease.group_index)
                    self._cond.notify_all()
            else:
                # A lease id the caller does not own stays where it is: a
                # buggy or hostile worker quoting someone else's lease must
                # not pop it out from under the real owner (that would leave
                # the owner's group _LEASED with no lease to ever expire).
                lease = None
            if stats is not None:
                self._workers[worker]["reported"] = dict(stats)
            run = self._runs.get(run_id)
            if run is None:
                return {"status": "unknown-run"}
            index = int(group_index)
            if not 0 <= index < len(run.states):
                return {"status": "rejected", "error": f"no group {index}"}
            if run.states[index] is _DONE:
                self.counters["duplicate_results"] += 1
                return {"status": "duplicate"}
            if not run.active:
                return {"status": "cancelled"}
            own_lease = (
                lease is not None
                and lease.run_id == run_id
                and lease.group_index == index
            )
            if error is not None:
                self._workers[worker]["failures"] += 1
                if not own_lease:
                    # A failure report from an expired/reassigned lease must
                    # not reset a group another worker is actively computing,
                    # nor consume the run's failure budget -- the current
                    # owner is authoritative.
                    return {"status": "stale"}
                self.counters["group_failures"] += 1
                if run.attempts[index] >= MAX_ATTEMPTS:
                    run.failure = (
                        f"group {index} failed after {run.attempts[index]} attempts: {error}"
                    )
                    run.finished_at = now
                    self.counters["runs_failed"] += 1
                    self._checkpoint_run_locked(run)
                    self._cond.notify_all()
                    return {"status": "failed"}
                # The group already went back to pending when the lease was
                # popped above; just wake waiting workers.
                self._cond.notify_all()
                return {"status": "retry"}
            group = run.plan.groups[index]
            rows = rows or []
            rejection = None
            records: list["GridRecord"] = []
            if len(rows) != group.n_cells:
                rejection = f"group {index} expects {group.n_cells} records, got {len(rows)}"
            else:
                try:
                    records = [GridRecord.from_row(row) for row in rows]
                except (KeyError, ValueError, TypeError) as bad:
                    rejection = f"malformed record row: {bad}"
            if rejection is None:
                # Validate the whole batch against the group's cells BEFORE
                # touching the committer: a partial push would poison every
                # retry of this group ("pushed twice").
                expected_keys = {
                    (group.algorithm, group.dim, precision, group.seed, task)
                    for precision in group.precisions
                    for task in group.tasks
                }
                keys = [cell_key(record) for record in records]
                if len(set(keys)) != len(keys) or set(keys) != expected_keys:
                    rejection = f"records do not match the cells of group {index}"
            if rejection is not None:
                # The group already went back to pending when the lease was
                # popped above, so a rejection cannot strand it.
                return {"status": "rejected", "error": rejection}
            released: list["GridRecord"] = []
            for record in records:
                released.extend(run.committer.push(record))
            run.ready.extend(released)
            run.states[index] = _DONE
            self.counters["records_committed"] += len(records)
            self.counters["cells_completed"] += len(records)
            stats_row = self._workers[worker]
            stats_row["groups_completed"] += 1
            stats_row["cells_completed"] += len(records)
            if not own_lease:
                self.counters["late_results"] += 1
            if all(state is _DONE for state in run.states):
                run.completed = True
                run.finished_at = now
                self.counters["runs_completed"] += 1
                logger.info("cluster run %s complete (%d cells)", run_id, run.plan.n_cells)
            self._checkpoint_group_locked(run, index, rows)
            self._checkpoint_run_locked(run)
            self._cond.notify_all()
            if spans and self.trace_sink is not None and isinstance(spans, list):
                self.trace_sink.ingest(spans)
            return {"status": "ok", "accepted": len(records)}

    # -- record consumption (the /grid NDJSON stream) --------------------------

    def records(
        self,
        run_id: str,
        *,
        poll_interval: float = 0.5,
        stop: threading.Event | None = None,
    ) -> Iterator["GridRecord"]:
        """Yield a run's records in canonical order as workers commit them.

        Blocks while the run is in progress (waking every ``poll_interval``
        to sweep expired leases, so a crashed worker cannot stall a stream
        whose other workers have all gone quiet).  Raises
        :class:`ClusterRunFailed` when the run fails; ends silently when the
        run is cancelled (the consumer initiated it) or ``stop`` is set (a
        detaching consumer that does *not* want to cancel the run).  While
        a stream is attached the run is pinned against GC; when the last
        consumer of a finished run detaches, the in-memory ``ready`` list
        is released (the records stay recoverable from the checkpoint).
        """
        with self._cond:
            run = self._runs.get(run_id)
            if run is None:
                raise KeyError(f"unknown cluster run {run_id!r}")
            if run.ready_dropped:
                raise KeyError(
                    f"records of finished run {run_id!r} were already released"
                )
            run.consumers += 1
        emitted = 0
        try:
            while True:
                with self._cond:
                    while (
                        emitted >= len(run.ready)
                        and run.active
                        and not (stop is not None and stop.is_set())
                    ):
                        self._sweep_locked(self._clock())
                        self._cond.wait(poll_interval)
                    batch = run.ready[emitted:]
                    failure = run.failure
                    finished = not run.active
                    stopped = stop is not None and stop.is_set()
                for record in batch:
                    emitted += 1
                    yield record
                if batch:
                    continue
                if stopped:
                    return
                if failure:
                    raise ClusterRunFailed(failure)
                if finished:
                    return
        finally:
            with self._cond:
                run.consumers -= 1
                if run.consumers == 0 and not run.active and not run.ready_dropped:
                    run.ready_dropped = True
                    self.counters["ready_records_dropped"] += len(run.ready)
                    run.ready = []

    # -- observability ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able counter/state snapshot for ``repro.engine.stats()``."""
        with self._cond:
            now = self._clock()
            workers = {}
            for name, row in self._workers.items():
                active = max(now - row["first_seen"], 1e-9)
                workers[name] = {
                    "leases": row["leases"],
                    "groups_completed": row["groups_completed"],
                    "cells_completed": row["cells_completed"],
                    "failures": row["failures"],
                    "seconds_active": round(active, 3),
                    "cells_per_second": round(row["cells_completed"] / active, 4),
                    "reported": row["reported"],
                }
            retired = dict(self._retired_workers)
            fleet = {
                "workers_live": len(workers),
                "workers_evicted": retired["workers_evicted"],
            }
            for field in ("leases", "groups_completed", "cells_completed", "failures"):
                fleet[field] = retired[field] + sum(w[field] for w in workers.values())
            return {
                "counters": dict(self.counters),
                "lease_ttl": self.lease_ttl,
                "draining": self._draining,
                "runs_active": sum(1 for run in self._runs.values() if run.active),
                "leases_outstanding": len(self._leases),
                "workers": workers,
                "retired_workers": retired,
                "fleet": fleet,
                "runs": {run_id: run.summary() for run_id, run in self._runs.items()},
            }

    # -- internals (all hold self._cond) ---------------------------------------

    def _next_serial_locked(self) -> int:
        self._serial += 1
        return self._serial

    def _touch_worker_locked(self, worker: str, now: float) -> None:
        row = self._workers.get(worker)
        if row is None:
            row = self._workers[worker] = {
                "leases": 0,
                "groups_completed": 0,
                "cells_completed": 0,
                "failures": 0,
                "first_seen": now,
                "reported": None,
            }
        row["last_seen"] = now

    def _release_group_locked(self, run: _ClusterRun, index: int) -> None:
        """Return a group whose only lease is gone to the pending pool."""
        if run.states[index] is _LEASED:
            run.states[index] = _PENDING
            run.pending_since[index] = self._clock()

    def _record_lease_wait_locked(
        self, run: _ClusterRun, index: int, worker: str, now: float
    ) -> None:
        """Span the time the group spent leasable before this grant."""
        if run.trace is None or self.trace_sink is None:
            return
        wait_s = max(now - run.pending_since[index], 0.0)
        self.trace_sink.add_span(
            run.trace["trace_id"], "cluster.lease_wait",
            time.time() - wait_s, wait_s * 1e3,
            run_id=run.run_id, group_index=index, worker=worker,
        )

    def _sweep_locked(self, now: float) -> None:
        """One housekeeping pass: expiries, worker eviction, finished-run GC."""
        self._expire_leases_locked(now)
        self._evict_idle_workers_locked(now)
        self._gc_finished_locked(now)

    def _expire_leases_locked(self, now: float) -> None:
        expired = [l for l in self._leases.values() if l.expires_at <= now]
        for lease in expired:
            del self._leases[lease.lease_id]
            self.counters["leases_expired"] += 1
            run = self._runs.get(lease.run_id)
            if run is not None:
                self._release_group_locked(run, lease.group_index)
                self._checkpoint_run_locked(run)
            logger.warning(
                "lease %s (worker %s, group %d of %s) expired; group returned "
                "to the pending pool",
                lease.lease_id, lease.worker, lease.group_index, lease.run_id,
            )
        if expired:
            self._cond.notify_all()

    def _evict_idle_workers_locked(self, now: float) -> None:
        held = {lease.worker for lease in self._leases.values()}
        idle = [
            name
            for name, row in self._workers.items()
            if name not in held and now - row["last_seen"] >= WORKER_TTL
        ]
        for name in idle:
            row = self._workers.pop(name)
            retired = self._retired_workers
            retired["workers_evicted"] += 1
            for field in ("leases", "groups_completed", "cells_completed", "failures"):
                retired[field] += row[field]
            self.counters["workers_evicted"] += 1
            logger.info(
                "worker %s idle for %.0fs, evicted from the status table",
                name, now - row["last_seen"],
            )

    def _next_available_locked(self, run: _ClusterRun) -> int | None:
        """The first leasable group index of a run, honouring ancestry gates."""
        if not run.plan.with_measures:
            for index, state in enumerate(run.states):
                if state is _PENDING:
                    return index
            return None
        groups = run.plan.groups
        done = {
            (groups[i].algorithm, groups[i].seed)
            for i, state in enumerate(run.states) if state is _DONE
        }
        busy = {
            (groups[i].algorithm, groups[i].seed)
            for i, state in enumerate(run.states) if state is _LEASED
        }
        claimed: set = set()
        for index, state in enumerate(run.states):
            if state is not _PENDING:
                continue
            ancestry = (groups[index].algorithm, groups[index].seed)
            if ancestry in done:
                return index
            # No group of this ancestry has completed yet: admit only the
            # first pending group (the anchor bearer, by plan order), and
            # only while no sibling is already leased.
            if ancestry not in busy and ancestry not in claimed:
                return index
            claimed.add(ancestry)
        return None

    def _gc_finished_locked(self, now: float) -> None:
        """Age-based GC of finished runs and their checkpoints.

        A finished run lingers for ``RUN_GC_AGE`` seconds so late status
        queries and re-attaching streams still find it, then both the
        in-memory state and the store checkpoints go.  Runs with attached
        consumers are pinned.  ``_MAX_FINISHED_RUNS`` stays as a count
        backstop against burst submission on a quiet coordinator.
        """
        removed = False
        collectable = [
            (run_id, run)
            for run_id, run in self._runs.items()
            if not run.active and run.consumers == 0
        ]
        for run_id, run in collectable:
            finished_at = run.finished_at if run.finished_at is not None else run.created_at
            if now - finished_at >= RUN_GC_AGE:
                del self._runs[run_id]
                self._delete_checkpoints_locked(run)
                self.counters["runs_gced"] += 1
                removed = True
                logger.info("cluster run %s GC'd after %.0fs", run_id, now - finished_at)
        remaining = [
            run_id
            for run_id, run in self._runs.items()
            if not run.active and run.consumers == 0
        ]
        while len(remaining) > _MAX_FINISHED_RUNS:
            run_id = remaining.pop(0)
            run = self._runs.pop(run_id)
            self._delete_checkpoints_locked(run)
            self.counters["runs_gced"] += 1
            removed = True
        if removed:
            self._checkpoint_index_locked()

    # -- checkpointing (all hold self._cond; never raises) ---------------------
    #
    # A store that refuses a checkpoint (a full disk behind --cache-dir) must
    # not take leasing down, but it does end resumability: every refusal is
    # logged and counted in ``checkpoint_failures``.

    def _put_checkpoint_locked(self, key: str, payload: dict) -> None:
        try:
            self.store.put_json(CHECKPOINT_KIND, key, payload)
        except Exception as err:
            self.counters["checkpoint_failures"] += 1
            logger.warning("checkpoint %s/%s failed: %s", CHECKPOINT_KIND, key, err)
        else:
            self.counters["checkpoints_written"] += 1

    def _checkpoint_index_locked(self) -> None:
        if self.store is not None:
            self._put_checkpoint_locked(_INDEX_KEY, {"runs": list(self._runs)})

    def _checkpoint_run_locked(self, run: _ClusterRun) -> None:
        if self.store is None:
            return
        self._put_checkpoint_locked(run.run_id, {
            "run_id": run.run_id,
            "plan": plan_wire_payload(run.plan),
            "config": run.config_payload,
            # A _LEASED group checkpoints as pending: after a restart its
            # lease is gone, so the group must re-lease either way.
            "states": [_DONE if s is _DONE else _PENDING for s in run.states],
            "attempts": list(run.attempts),
            "completed": run.completed,
            "cancelled": run.cancelled,
            "failure": run.failure,
            "counters": {
                "committed": run.committer.committed,
                "remaining": run.committer.remaining,
            },
        })

    def _checkpoint_group_locked(self, run: _ClusterRun, index: int, rows: list[dict]) -> None:
        if self.store is not None:
            self._put_checkpoint_locked(_group_key(run.run_id, index), {"rows": rows})

    def _delete_checkpoints_locked(self, run: _ClusterRun) -> None:
        if self.store is None:
            return
        names = [run.run_id + ".json"]
        names.extend(
            _group_key(run.run_id, index) + ".json" for index in range(len(run.states))
        )
        for name in names:
            try:
                self.store.delete_bytes(CHECKPOINT_KIND, name)
            except Exception as err:
                self.counters["checkpoint_failures"] += 1
                logger.warning("checkpoint delete of %s/%s failed: %s", CHECKPOINT_KIND, name, err)


def _group_key(run_id: str, index: int) -> str:
    return f"{run_id}-group-{index:04d}"
