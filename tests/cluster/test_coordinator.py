"""Lease-lifecycle tests of the cluster coordinator (fake clock, no sockets).

The coordinator is a plain thread-safe state machine, so everything the
distributed path relies on -- anchor-first leasing, ancestry gating, expiry
and reassignment after a worker crash, duplicate-result idempotence, ordered
record commit -- is pinned here deterministically, without booting servers
or sleeping through real TTLs.  :class:`CoordinatorMachine` then drives
random interleavings of the same calls and checks the lease and commit
invariants after every step.
"""

import json
from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.cluster.coordinator import (
    MAX_ATTEMPTS,
    RUN_GC_AGE,
    WORKER_TTL,
    ClusterCoordinator,
    ClusterRunFailed,
    config_wire_payload,
    group_from_wire,
    group_wire_payload,
)
from repro.engine import plan_grid
from repro.instability.grid import GridRecord
from repro.instability.pipeline import PipelineConfig
from repro.serving.api import quick_serve_config


class FakeClock:
    def __init__(self, now: float = 1.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_plan(
    *, dimensions=(4, 6), seeds=(0,), precisions=(1, 32), with_measures=True
):
    return plan_grid(
        quick_serve_config(),
        dimensions=dimensions, seeds=seeds, precisions=precisions,
        with_measures=with_measures,
    )


def make_record(key, value: float = 0.5) -> GridRecord:
    algorithm, dim, precision, seed, task = key
    return GridRecord(
        algorithm=algorithm, task=task, dim=dim, precision=precision, seed=seed,
        disagreement=value, accuracy_a=0.9, accuracy_b=0.8,
        measures={"eis": value},
    )


def rows_for_group(plan, index):
    group = plan.groups[index]
    return [
        make_record((group.algorithm, group.dim, precision, group.seed, task)).to_row()
        for precision in group.precisions
        for task in group.tasks
    ]


def make_coordinator(clock=None, **kwargs):
    return ClusterCoordinator(clock=clock or FakeClock(), **kwargs)


class TestWireFormats:
    def test_group_round_trip(self):
        plan = make_plan()
        for group in plan.groups:
            assert group_from_wire(json.loads(json.dumps(group_wire_payload(group)))) == group

    def test_config_round_trip_preserves_artifact_keys(self):
        config = quick_serve_config()
        payload = json.loads(json.dumps(config_wire_payload(config)))
        rebuilt = PipelineConfig.from_jsonable(payload)
        assert rebuilt.dimensions == config.dimensions
        assert rebuilt.corpus == config.corpus
        assert rebuilt.ner_config == config.ner_config

    def test_from_jsonable_rejects_unknown_fields(self):
        payload = config_wire_payload(quick_serve_config())
        payload["not_a_field"] = 1
        with pytest.raises(TypeError):
            PipelineConfig.from_jsonable(payload)

    def test_record_row_round_trip(self):
        record = make_record(("svd", 4, 1, 0, "sst2"), value=1 / 3)
        assert GridRecord.from_row(json.loads(json.dumps(record.to_row()))) == record


class TestLeasing:
    def test_anchor_group_leases_first_and_gates_its_ancestry(self):
        coordinator = make_coordinator()
        plan = make_plan()                       # anchor dim 6 first, then 4
        coordinator.create_run(plan)
        lease = coordinator.lease("w1")
        assert lease["status"] == "lease"
        assert lease["group"]["dim"] == 6        # the anchor group
        # The sibling shares the (algorithm, seed) ancestry and its anchor
        # pair is not in the cluster store yet: gate it.
        assert coordinator.lease("w2")["status"] == "wait"

    def test_ancestry_gate_opens_once_the_anchor_completes(self):
        coordinator = make_coordinator()
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        lease = coordinator.lease("w1")
        answer = coordinator.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"],
            rows_for_group(plan, lease["group_index"]),
        )
        assert answer == {"status": "ok", "accepted": 2}
        follow = coordinator.lease("w2")
        assert follow["status"] == "lease" and follow["group"]["dim"] == 4

    def test_distinct_ancestries_lease_concurrently(self):
        coordinator = make_coordinator()
        coordinator.create_run(make_plan(seeds=(0, 1)))
        first = coordinator.lease("w1")
        second = coordinator.lease("w2")
        assert first["status"] == second["status"] == "lease"
        assert first["group"]["seed"] != second["group"]["seed"]
        assert {first["group"]["dim"], second["group"]["dim"]} == {6}  # both anchors

    def test_no_gating_without_measures(self):
        coordinator = make_coordinator()
        coordinator.create_run(make_plan(with_measures=False))
        assert coordinator.lease("w1")["status"] == "lease"
        assert coordinator.lease("w2")["status"] == "lease"

    def test_idle_when_no_runs(self):
        coordinator = make_coordinator()
        assert coordinator.lease("w1")["status"] == "idle"

    def test_lease_carries_the_run_config(self):
        coordinator = make_coordinator(
            default_config=config_wire_payload(quick_serve_config())
        )
        coordinator.create_run(make_plan())
        lease = coordinator.lease("w1")
        assert lease["config"]["algorithms"] == ["svd"]


class TestExpiryAndReassignment:
    def test_expired_lease_is_reassigned_to_another_worker(self):
        clock = FakeClock()
        coordinator = make_coordinator(clock, lease_ttl=30.0)
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        first = coordinator.lease("w1")
        assert first["status"] == "lease"
        clock.advance(31.0)                      # w1 "crashed": no heartbeat
        second = coordinator.lease("w2")
        assert second["status"] == "lease"
        assert second["group_index"] == first["group_index"]
        assert coordinator.counters["leases_expired"] == 1
        assert coordinator.counters["leases_reassigned"] == 1
        # The crashed worker's lease is dead.
        assert coordinator.heartbeat("w1", first["lease_id"])["status"] == "gone"
        # The second worker completes the group normally.
        answer = coordinator.complete(
            "w2", second["lease_id"], run_id, second["group_index"],
            rows_for_group(plan, second["group_index"]),
        )
        assert answer["status"] == "ok"

    def test_heartbeat_extends_the_lease(self):
        clock = FakeClock()
        coordinator = make_coordinator(clock, lease_ttl=30.0)
        coordinator.create_run(make_plan())
        lease = coordinator.lease("w1")
        clock.advance(20.0)
        assert coordinator.heartbeat("w1", lease["lease_id"])["status"] == "ok"
        clock.advance(20.0)                      # 40s total, but renewed at 20
        assert coordinator.heartbeat("w1", lease["lease_id"])["status"] == "ok"
        assert coordinator.counters["leases_expired"] == 0

    def test_late_result_from_the_crashed_worker_is_accepted_once(self):
        clock = FakeClock()
        coordinator = make_coordinator(clock, lease_ttl=30.0)
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        first = coordinator.lease("w1")
        clock.advance(31.0)
        second = coordinator.lease("w2")         # reassigned
        # w1 was only stalled, not dead: its result arrives after expiry but
        # before w2 finishes.  Deterministic results make it safe to accept.
        answer = coordinator.complete(
            "w1", first["lease_id"], run_id, first["group_index"],
            rows_for_group(plan, first["group_index"]),
        )
        assert answer["status"] == "ok"
        assert coordinator.counters["late_results"] == 1
        # w2's copy of the same group is a duplicate and is dropped.
        duplicate = coordinator.complete(
            "w2", second["lease_id"], run_id, second["group_index"],
            rows_for_group(plan, second["group_index"]),
        )
        assert duplicate["status"] == "duplicate"
        assert coordinator.counters["duplicate_results"] == 1


class TestCompletion:
    def test_duplicate_complete_is_idempotent(self):
        coordinator = make_coordinator()
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        lease = coordinator.lease("w1")
        rows = rows_for_group(plan, lease["group_index"])
        assert coordinator.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"], rows
        )["status"] == "ok"
        assert coordinator.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"], rows
        )["status"] == "duplicate"
        # Records accounted exactly once (the anchor group's records buffer
        # in the committer until the canonically-earlier dim-4 group lands).
        assert coordinator.counters["records_committed"] == 2
        assert coordinator.counters["duplicate_results"] == 1

    def test_wrong_record_count_is_rejected_and_group_re_leasable(self):
        coordinator = make_coordinator()
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        lease = coordinator.lease("w1")
        answer = coordinator.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"],
            rows_for_group(plan, lease["group_index"])[:1],
        )
        assert answer["status"] == "rejected"
        # A rejected payload must not strand the group in the leased state:
        # another worker picks it up and the run can still finish.
        retry = coordinator.lease("w2")
        assert retry["status"] == "lease"
        assert retry["group_index"] == lease["group_index"]
        assert coordinator.complete(
            "w2", retry["lease_id"], run_id, retry["group_index"],
            rows_for_group(plan, retry["group_index"]),
        )["status"] == "ok"

    def test_foreign_cells_are_rejected_not_committed(self):
        coordinator = make_coordinator()
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        lease = coordinator.lease("w1")
        bad_rows = [
            make_record(("svd", 99, precision, 0, "sst2")).to_row()
            for precision in (1, 32)
        ]
        answer = coordinator.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"], bad_rows
        )
        assert answer["status"] == "rejected"
        assert coordinator.run_status(run_id)["committed"] == 0
        # The committer was not partially mutated: a clean retry commits fine.
        retry = coordinator.lease("w1")
        assert retry["group_index"] == lease["group_index"]
        assert coordinator.complete(
            "w1", retry["lease_id"], run_id, retry["group_index"],
            rows_for_group(plan, retry["group_index"]),
        )["status"] == "ok"

    def test_partially_foreign_batch_does_not_poison_retries(self):
        coordinator = make_coordinator()
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        lease = coordinator.lease("w1")
        index = lease["group_index"]
        good = rows_for_group(plan, index)
        mixed = [good[0], make_record(("svd", 99, 32, 0, "sst2")).to_row()]
        assert coordinator.complete(
            "w1", lease["lease_id"], run_id, index, mixed
        )["status"] == "rejected"
        # The valid half of the batch must NOT have reached the committer;
        # otherwise this retry would raise "pushed twice" forever.
        retry = coordinator.lease("w1")
        assert coordinator.complete(
            "w1", retry["lease_id"], run_id, retry["group_index"], good
        )["status"] == "ok"

    def test_stale_error_report_does_not_unseat_the_active_lease(self):
        clock = FakeClock()
        coordinator = make_coordinator(clock, lease_ttl=30.0)
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        first = coordinator.lease("w1")
        clock.advance(31.0)                      # w1's lease expires
        second = coordinator.lease("w2")         # reassigned to w2
        # w1's delayed failure report must neither reset w2's group to
        # pending (double execution) nor consume the run's failure budget.
        answer = coordinator.complete(
            "w1", first["lease_id"], run_id, first["group_index"], error="late boom"
        )
        assert answer["status"] == "stale"
        assert coordinator.counters["group_failures"] == 0
        assert coordinator.lease("w3")["status"] == "wait"   # group still w2's
        assert coordinator.complete(
            "w2", second["lease_id"], run_id, second["group_index"],
            rows_for_group(plan, second["group_index"]),
        )["status"] == "ok"

    def test_unknown_run_is_reported(self):
        coordinator = make_coordinator()
        assert coordinator.complete("w1", "x", "run-9999", 0, [])["status"] == "unknown-run"

    def test_mismatched_completion_does_not_strand_the_leased_group(self):
        # A completion that names the wrong run or group must still return
        # the lease's real group to the pending pool -- otherwise one buggy
        # worker request wedges the run forever.
        coordinator = make_coordinator()
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        lease = coordinator.lease("w1")
        for bad_run, bad_index in (("run-9999", 0), (run_id, 99)):
            answer = coordinator.complete(
                "w1", lease["lease_id"], bad_run, bad_index, []
            )
            assert answer["status"] in ("unknown-run", "rejected")
            retry = coordinator.lease("w1")
            assert retry["status"] == "lease"
            assert retry["group_index"] == lease["group_index"]
            lease = retry
        assert coordinator.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"],
            rows_for_group(plan, lease["group_index"]),
        )["status"] == "ok"

    def test_reported_error_retries_then_fails_the_run(self):
        coordinator = make_coordinator()
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        lease = coordinator.lease("w1")
        for _ in range(MAX_ATTEMPTS - 1):
            answer = coordinator.complete(
                "w1", lease["lease_id"], run_id, lease["group_index"], error="boom"
            )
            assert answer["status"] == "retry"
            retry = coordinator.lease("w1")
            assert retry["group_index"] == lease["group_index"]
            lease = retry
        answer = coordinator.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"], error="boom again"
        )
        assert answer["status"] == "failed"
        with pytest.raises(ClusterRunFailed, match="boom again"):
            list(coordinator.records(run_id))


class TestRecordsStream:
    def test_out_of_order_submission_streams_in_canonical_order(self):
        coordinator = make_coordinator()
        plan = make_plan(seeds=(0, 1), with_measures=False)
        run_id = coordinator.create_run(plan)
        leases = {}
        for worker in ("w1", "w2", "w3", "w4"):
            lease = coordinator.lease(worker)
            assert lease["status"] == "lease"
            leases[worker] = lease
        # Complete in reverse lease order: the stream must still be canonical.
        for worker in ("w4", "w3", "w2", "w1"):
            lease = leases[worker]
            coordinator.complete(
                worker, lease["lease_id"], run_id, lease["group_index"],
                rows_for_group(plan, lease["group_index"]),
            )
        records = list(coordinator.records(run_id))
        assert [
            (r.algorithm, r.dim, r.precision, r.seed, r.task) for r in records
        ] == plan.cell_keys()

    def test_cancelled_run_stops_leasing_and_ends_the_stream(self):
        coordinator = make_coordinator()
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        assert coordinator.cancel(run_id) is True
        assert coordinator.cancel(run_id) is False       # idempotent
        assert coordinator.lease("w1")["status"] == "idle"
        assert list(coordinator.records(run_id)) == []
        assert coordinator.counters["runs_cancelled"] == 1

    def test_snapshot_reports_workers_and_runs(self):
        coordinator = make_coordinator()
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        lease = coordinator.lease("w1")
        coordinator.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"],
            rows_for_group(plan, lease["group_index"]),
            stats={"embedding_train_count": 1},
        )
        snapshot = coordinator.snapshot()
        assert snapshot["counters"]["leases_issued"] == 1
        worker = snapshot["workers"]["w1"]
        assert worker["groups_completed"] == 1 and worker["cells_completed"] == 2
        assert worker["cells_per_second"] >= 0
        assert worker["reported"] == {"embedding_train_count": 1}
        run = snapshot["runs"][run_id]
        assert run["done"] == 1 and run["groups"] == 2
        assert json.dumps(snapshot)              # JSON-able end to end


class TestLeaseHygiene:
    def test_foreign_lease_id_cannot_unseat_the_owner(self):
        # A worker quoting someone ELSE's lease_id must not pop that lease:
        # under the old code the owner's lease vanished while its group
        # stayed leased, with no lease left to ever expire -- a wedged run.
        coordinator = make_coordinator()
        plan = make_plan()
        run_id = coordinator.create_run(plan)
        lease = coordinator.lease("w1")
        hostile = coordinator.complete(
            "w2", lease["lease_id"], run_id, lease["group_index"], []
        )
        assert hostile["status"] == "rejected"
        # The owner's lease survived the hijack attempt...
        assert coordinator.heartbeat("w1", lease["lease_id"])["status"] == "ok"
        # ...and the owner completes normally, not as a late result.
        assert coordinator.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"],
            rows_for_group(plan, lease["group_index"]),
        )["status"] == "ok"
        assert coordinator.counters["late_results"] == 0


class TestDrain:
    def test_drain_refuses_new_leases_but_lands_inflight_work(self):
        coordinator = make_coordinator()
        plan = make_plan(with_measures=False)
        run_id = coordinator.create_run(plan)
        lease = coordinator.lease("w1")
        status = coordinator.drain()
        assert status["draining"] is True
        assert status["drained"] is False            # w1's lease is in flight
        assert coordinator.lease("w2")["status"] == "drain"
        # The in-flight lease still heartbeats and completes.
        assert coordinator.heartbeat("w1", lease["lease_id"])["status"] == "ok"
        assert coordinator.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"],
            rows_for_group(plan, lease["group_index"]),
        )["status"] == "ok"
        assert coordinator.drain_status()["drained"] is True
        assert coordinator.counters["drains_started"] == 1
        # Lifting the drain resumes leasing where it left off.
        assert coordinator.drain(False)["draining"] is False
        assert coordinator.lease("w2")["status"] == "lease"

    def test_drain_is_visible_in_the_snapshot(self):
        coordinator = make_coordinator()
        coordinator.drain()
        assert coordinator.snapshot()["draining"] is True


class TestOneLiveLease:
    def test_idle_worker_waits_while_a_gated_anchor_group_runs_long(self):
        # Seed 1's anchor group runs more than twice as long as anything
        # finished so far, and its dim-4 sibling is gated behind it.  The
        # idle worker must wait: a second lease on the anchor group would
        # train the same embedding pair twice.
        clock = FakeClock()
        coordinator = make_coordinator(clock, lease_ttl=60.0)
        plan = make_plan(seeds=(0, 1))
        run_id = coordinator.create_run(plan)
        first = coordinator.lease("w1")
        slow = coordinator.lease("w2")
        assert (first["group"]["seed"], first["group"]["dim"]) == (0, 6)
        assert (slow["group"]["seed"], slow["group"]["dim"]) == (1, 6)
        clock.advance(2.0)
        assert coordinator.complete(
            "w1", first["lease_id"], run_id, first["group_index"],
            rows_for_group(plan, first["group_index"]),
        )["status"] == "ok"
        sibling = coordinator.lease("w1")
        assert (sibling["group"]["seed"], sibling["group"]["dim"]) == (0, 4)
        clock.advance(0.2)
        assert coordinator.complete(
            "w1", sibling["lease_id"], run_id, sibling["group_index"],
            rows_for_group(plan, sibling["group_index"]),
        )["status"] == "ok"
        assert coordinator.heartbeat("w2", slow["lease_id"])["status"] == "ok"
        clock.advance(2.0)                           # w2's lease has run 4.2 s
        assert coordinator.lease("w1") == {"status": "wait"}
        assert coordinator.counters["leases_issued"] == 3
        assert coordinator.run_status(run_id)["leased"] == 1


class TestWorkerEviction:
    def test_idle_worker_is_evicted_and_fleet_totals_stay_monotonic(self):
        clock = FakeClock()
        coordinator = make_coordinator(clock)
        plan = make_plan(with_measures=False)
        run_id = coordinator.create_run(plan)
        lease = coordinator.lease("old")
        coordinator.complete(
            "old", lease["lease_id"], run_id, lease["group_index"],
            rows_for_group(plan, lease["group_index"]),
        )
        before = coordinator.snapshot()["fleet"]
        assert before["cells_completed"] == 2 and before["workers_live"] == 1
        clock.advance(WORKER_TTL + 1.0)
        coordinator.lease("fresh")                   # any request sweeps
        snapshot = coordinator.snapshot()
        assert "old" not in snapshot["workers"]
        assert coordinator.counters["workers_evicted"] == 1
        # The evicted worker's work retired into the monotonic aggregates.
        assert snapshot["retired_workers"]["cells_completed"] == 2
        fleet = snapshot["fleet"]
        assert fleet["cells_completed"] == before["cells_completed"]
        assert fleet["leases"] >= before["leases"]
        assert fleet["workers_evicted"] == 1

    def test_worker_holding_a_lease_is_never_evicted(self):
        clock = FakeClock()
        coordinator = make_coordinator(clock, lease_ttl=2 * WORKER_TTL)
        coordinator.create_run(make_plan(with_measures=False))
        lease = coordinator.lease("busy")
        clock.advance(WORKER_TTL + 50.0)
        coordinator.heartbeat("busy", lease["lease_id"])
        assert "busy" in coordinator.snapshot()["workers"]
        assert coordinator.counters["workers_evicted"] == 0


class TestRunGC:
    def _finish_run(self, coordinator, plan, run_id):
        while True:
            lease = coordinator.lease("w")
            if lease["status"] != "lease":
                break
            coordinator.complete(
                "w", lease["lease_id"], run_id, lease["group_index"],
                rows_for_group(plan, lease["group_index"]),
            )

    def test_finished_run_is_gced_by_age(self):
        clock = FakeClock()
        coordinator = make_coordinator(clock)
        plan = make_plan(with_measures=False)
        run_id = coordinator.create_run(plan)
        self._finish_run(coordinator, plan, run_id)
        assert coordinator.run_status(run_id)["completed"] is True
        clock.advance(RUN_GC_AGE / 2)
        coordinator.lease("w")                       # sweeps; too young to GC
        assert coordinator.run_status(run_id) is not None
        clock.advance(RUN_GC_AGE / 2 + 1.0)
        coordinator.lease("w")
        assert coordinator.run_status(run_id) is None
        assert coordinator.counters["runs_gced"] == 1

    def test_attached_consumer_pins_a_finished_run_against_gc(self):
        clock = FakeClock()
        coordinator = make_coordinator(clock)
        plan = make_plan(with_measures=False)
        run_id = coordinator.create_run(plan)
        self._finish_run(coordinator, plan, run_id)
        stream = coordinator.records(run_id)
        first = next(stream)
        assert first is not None
        clock.advance(10 * RUN_GC_AGE)
        coordinator.lease("w")                       # sweep: run is pinned
        assert coordinator.run_status(run_id) is not None
        remaining = list(stream)                     # detach cleanly
        assert len(remaining) == plan.n_cells - 1
        coordinator.lease("w")                       # now collectable
        assert coordinator.run_status(run_id) is None

    def test_ready_records_drop_when_the_last_consumer_detaches(self):
        coordinator = make_coordinator()
        plan = make_plan(with_measures=False)
        run_id = coordinator.create_run(plan)
        self._finish_run(coordinator, plan, run_id)
        records = list(coordinator.records(run_id))
        assert len(records) == plan.n_cells
        assert coordinator.counters["ready_records_dropped"] == plan.n_cells
        # The dropped stream cannot be replayed from memory; a re-attach is
        # told so instead of silently yielding nothing.
        with pytest.raises(KeyError, match="already released"):
            next(coordinator.records(run_id))


WORKERS = ("w1", "w2", "w3")


class CoordinatorMachine(RuleBasedStateMachine):
    """Random lease / heartbeat / complete / clock interleavings.

    Three workers each hold at most one lease, as ``repro-worker`` does, and
    keep computing a lease that expired under them (its result arrives
    late).  The model tracks when each handed-out lease expires, so "live"
    is judged from the answers the coordinator gave, not from its internals.
    """

    @initialize(n_seeds=st.integers(1, 3), with_measures=st.booleans())
    def start(self, n_seeds, with_measures):
        self.clock = FakeClock()
        self.coordinator = make_coordinator(self.clock, lease_ttl=10.0)
        self.plan = make_plan(seeds=tuple(range(n_seeds)), with_measures=with_measures)
        self.run_id = self.coordinator.create_run(self.plan)
        self.held: dict[str, dict] = {}          # worker -> its lease answer
        self.expires: dict[str, float] = {}      # held lease id -> its expiry
        self.commits: Counter = Counter()        # group index -> ok answers

    @rule(worker=st.sampled_from(WORKERS))
    def lease(self, worker):
        if worker in self.held:
            return
        answer = self.coordinator.lease(worker)
        assert answer["status"] in ("lease", "wait", "idle"), answer
        if answer["status"] == "lease":
            self.held[worker] = answer
            self.expires[answer["lease_id"]] = self.clock.now + 10.0

    @rule(worker=st.sampled_from(WORKERS))
    def heartbeat(self, worker):
        if worker not in self.held:
            return
        lease_id = self.held[worker]["lease_id"]
        answer = self.coordinator.heartbeat(worker, lease_id)
        if answer["status"] == "ok":
            assert self.clock.now < self.expires[lease_id]
            self.expires[lease_id] = self.clock.now + 10.0
        else:                                    # only an expired lease is gone
            assert self.expires.get(lease_id, 0.0) <= self.clock.now

    @rule(worker=st.sampled_from(WORKERS), ok=st.booleans())
    def complete(self, worker, ok):
        if worker not in self.held:
            return
        lease = self.held.pop(worker)
        self.expires.pop(lease["lease_id"], None)
        index = lease["group_index"]
        if ok:
            answer = self.coordinator.complete(
                worker, lease["lease_id"], lease["run_id"], index,
                rows_for_group(self.plan, index),
            )
            if answer["status"] == "ok":
                self.commits[index] += 1
        else:
            self.coordinator.complete(
                worker, lease["lease_id"], lease["run_id"], index, error="boom"
            )

    @rule(seconds=st.floats(0.1, 11.0))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @invariant()
    def at_most_one_live_lease_per_group(self):
        live = Counter(
            answer["group_index"]
            for answer in self.held.values()
            if self.expires.get(answer["lease_id"], 0.0) > self.clock.now
        )
        assert all(count == 1 for count in live.values()), live

    @invariant()
    def each_group_commits_once(self):
        assert all(count == 1 for count in self.commits.values()), self.commits

    @invariant()
    def committed_records_are_a_canonical_prefix(self):
        # The list a /grid stream reads; records() would release it once
        # the run finishes, so the check reads it in place.
        ready = self.coordinator._runs[self.run_id].ready
        keys = [(r.algorithm, r.dim, r.precision, r.seed, r.task) for r in ready]
        assert keys == self.plan.cell_keys()[: len(keys)]
        assert len(keys) == self.coordinator.run_status(self.run_id)["committed"]


TestCoordinatorMachine = CoordinatorMachine.TestCase
TestCoordinatorMachine.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None
)
