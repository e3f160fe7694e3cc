"""Coordinator crash-safety: checkpoint, kill, resume, finish bit-identical.

The acceptance criterion of the fault-tolerance work: a coordinator dies
mid-run and a fresh one, pointed at the same artifact store, rebuilds the
run from its ``cluster-run`` checkpoints -- already-committed cells replay
(zero re-trainings), only unfinished groups re-lease, and the completed
stream is bit-identical to a serial ``GridEngine.run()``.  Exercised twice:
deterministically against the bare state machine with a fake clock, and
end-to-end over live HTTP with real workers and an abrupt server stop.
"""

import asyncio
import errno
import http.client
import json
import threading
import warnings

from repro.cluster import ClusterWorker, config_wire_payload, plan_from_wire, plan_wire_payload
from repro.cluster.coordinator import (
    _INDEX_KEY,
    CHECKPOINT_KIND,
    MAX_ATTEMPTS,
    RUN_GC_AGE,
    ClusterCoordinator,
    _group_key,
)
from repro.engine import DiskBackend, GridEngine, StoreBackend, plan_grid, stats
from repro.engine.faults import FaultyBackend
from repro.engine.store import ArtifactStore
from repro.serving import ServiceConfig, StabilityService
from repro.serving.api import StabilityAPIServer, quick_serve_config

from tests.cluster.test_coordinator import (
    FakeClock,
    make_plan,
    rows_for_group,
)


def make_store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def make_coordinator(store, clock=None, **kwargs):
    return ClusterCoordinator(store=store, clock=clock or FakeClock(), **kwargs)


class TestPlanWireFormat:
    def test_plan_round_trips_through_json(self):
        for plan in (
            make_plan(),
            make_plan(with_measures=False),
            make_plan(seeds=(0, 1), dimensions=(4,)),
        ):
            rebuilt = plan_from_wire(json.loads(json.dumps(plan_wire_payload(plan))))
            assert rebuilt == plan
            assert rebuilt.cell_keys() == plan.cell_keys()


class TestCheckpointResume:
    """Fake-clock variant: kill = drop the coordinator object on the floor."""

    def test_mid_run_crash_resumes_and_finishes_bit_identical(self, tmp_path):
        store = make_store(tmp_path)
        first = make_coordinator(store)
        plan = make_plan(seeds=(0, 1), with_measures=False)   # 4 groups, 8 cells
        run_id = first.create_run(plan)
        # Two groups complete, one is in flight (leased), one never starts.
        done_indices = []
        for worker in ("w1", "w2"):
            lease = first.lease(worker)
            assert first.complete(
                worker, lease["lease_id"], run_id, lease["group_index"],
                rows_for_group(plan, lease["group_index"]),
            )["status"] == "ok"
            done_indices.append(lease["group_index"])
        inflight = first.lease("w3")
        assert inflight["status"] == "lease"
        # CRASH: the first coordinator is never touched again.  A second one
        # over the same store rebuilds everything durable.
        second = make_coordinator(store)
        assert second.resume_runs() == 1
        assert second.resume_runs() == 0                      # idempotent
        assert second.counters["runs_resumed"] == 1
        assert second.counters["records_replayed"] == 2 * len(done_indices)
        status = second.run_status(run_id)
        assert status["done"] == len(done_indices)
        assert status["pending"] == 4 - len(done_indices)     # leased -> pending
        assert status["leased"] == 0
        # The in-flight group's attempt survived the crash: its next lease
        # counts as a reassignment, preserving the failure budget semantics.
        remaining = []
        while True:
            lease = second.lease("w9")
            if lease["status"] != "lease":
                break
            remaining.append(lease["group_index"])
            assert second.complete(
                "w9", lease["lease_id"], run_id, lease["group_index"],
                rows_for_group(plan, lease["group_index"]),
            )["status"] == "ok"
        # Zero duplicate executions of already-committed groups: the resumed
        # coordinator only leased what the checkpoint said was unfinished.
        assert set(remaining) == set(range(4)) - set(done_indices)
        assert second.counters["leases_reassigned"] == 1      # the in-flight one
        assert second.counters["duplicate_results"] == 0
        assert second.run_status(run_id)["completed"] is True
        # The resumed stream is the full canonical stream, replayed records
        # included -- byte-for-byte what an uninterrupted run would emit.
        records = list(second.records(run_id))
        assert [
            (r.algorithm, r.dim, r.precision, r.seed, r.task) for r in records
        ] == plan.cell_keys()

    def test_finished_run_resumes_for_status_and_replay(self, tmp_path):
        store = make_store(tmp_path)
        first = make_coordinator(store)
        plan = make_plan(with_measures=False)
        run_id = first.create_run(plan)
        while True:
            lease = first.lease("w1")
            if lease["status"] != "lease":
                break
            first.complete(
                "w1", lease["lease_id"], run_id, lease["group_index"],
                rows_for_group(plan, lease["group_index"]),
            )
        expected = [r.to_row() for r in first.records(run_id)]
        second = make_coordinator(store)
        assert second.resume_runs() == 1
        status = second.run_status(run_id)
        assert status["completed"] is True and status["done"] == 2
        replayed = [r.to_row() for r in second.records(run_id)]
        assert replayed == expected
        assert second.lease("w1")["status"] == "idle"         # nothing re-leases

    def test_attempts_and_config_survive_the_crash(self, tmp_path):
        store = make_store(tmp_path)
        payload = config_wire_payload(quick_serve_config())
        first = make_coordinator(store)
        plan = make_plan(with_measures=False)
        run_id = first.create_run(plan, payload)
        lease = first.lease("w1")
        assert first.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"], error="boom"
        )["status"] == "retry"
        second = make_coordinator(store)
        second.resume_runs()
        release = second.lease("w2")
        assert release["config"] == json.loads(json.dumps(payload))
        # One pre-crash attempt + this lease: one more error must fail the
        # run only at the third attempt, exactly as without the crash.
        assert MAX_ATTEMPTS == 3
        assert second.complete(
            "w2", release["lease_id"], run_id, release["group_index"], error="boom"
        )["status"] == "retry"
        third = second.lease("w2")
        assert second.complete(
            "w2", third["lease_id"], run_id, third["group_index"], error="boom"
        )["status"] == "failed"

    def test_cancelled_run_stays_cancelled_after_resume(self, tmp_path):
        store = make_store(tmp_path)
        first = make_coordinator(store)
        run_id = first.create_run(make_plan(with_measures=False))
        first.cancel(run_id)
        second = make_coordinator(store)
        second.resume_runs()
        assert second.run_status(run_id)["cancelled"] is True
        assert second.lease("w1")["status"] == "idle"

    def test_age_gc_deletes_the_checkpoints(self, tmp_path):
        store = make_store(tmp_path)
        clock = FakeClock()
        coordinator = make_coordinator(store, clock)
        plan = make_plan(with_measures=False)
        run_id = coordinator.create_run(plan)
        while True:
            lease = coordinator.lease("w1")
            if lease["status"] != "lease":
                break
            coordinator.complete(
                "w1", lease["lease_id"], run_id, lease["group_index"],
                rows_for_group(plan, lease["group_index"]),
            )
        assert store.get_json(CHECKPOINT_KIND, run_id) is not None
        clock.advance(RUN_GC_AGE + 1.0)
        coordinator.lease("w1")                               # sweeps
        assert coordinator.run_status(run_id) is None
        assert store.get_json(CHECKPOINT_KIND, run_id) is None
        assert run_id not in store.get_json(CHECKPOINT_KIND, "runs-index")["runs"]
        # A later restart resumes nothing: the run is fully gone.
        fresh = make_coordinator(store)
        assert fresh.resume_runs() == 0

    def test_no_store_means_no_checkpoints_and_a_clean_noop_resume(self):
        coordinator = ClusterCoordinator(clock=FakeClock())
        coordinator.create_run(make_plan(with_measures=False))
        assert coordinator.counters["checkpoints_written"] == 0
        assert coordinator.resume_runs() == 0


class FullDisk(StoreBackend):
    """A store tier out of space: every write and every delete raises."""

    name = "full-disk"
    persistent = True

    def _get(self, kind, name):
        return None

    def _put(self, kind, name, payload):
        raise OSError(errno.ENOSPC, "No space left on device")

    def _contains(self, kind, name):
        return False

    def _delete(self, kind, name):
        raise OSError(errno.ENOSPC, "No space left on device")


class RaisingReads(FaultyBackend):
    """A fault tier whose scripted ``get`` failures raise instead of missing."""

    def _get(self, kind, name):
        if self._inject("get", kind, name):
            raise OSError(errno.EIO, "Input/output error")
        return self.inner.get(kind, name)


class TestCheckpointFailures:
    def test_unreadable_checkpoints_are_counted_on_resume(self, tmp_path):
        tier = RaisingReads(DiskBackend(tmp_path))
        first = make_coordinator(ArtifactStore(backends=[tier]))
        plan = make_plan(with_measures=False)                 # 2 groups
        run_id = first.create_run(plan)
        lease = first.lease("w1")
        first.complete(
            "w1", lease["lease_id"], run_id, lease["group_index"],
            rows_for_group(plan, lease["group_index"]),
        )

        def resume(warm_keys):
            # A cold object tier, warmed with the checkpoints read before
            # the one whose read raises.
            store = ArtifactStore(backends=[tier])
            for key in warm_keys:
                assert store.get_json(CHECKPOINT_KIND, key) is not None
            tier.fail_next("get")
            coordinator = make_coordinator(store)
            resumed = coordinator.resume_runs()
            return coordinator, resumed, coordinator.counters["checkpoint_failures"]

        # The index is unreadable: nothing resumes.
        _, resumed, failures = resume(())
        assert (resumed, failures) == (0, 1)
        # The run's meta is unreadable: the run is skipped.
        _, resumed, failures = resume((_INDEX_KEY,))
        assert (resumed, failures) == (0, 1)
        # The done group's rows are unreadable: the run resumes and the
        # group returns to pending.
        coordinator, resumed, failures = resume((_INDEX_KEY, run_id))
        assert (resumed, failures) == (1, 1)
        assert coordinator.run_status(run_id)["done"] == 0
        assert stats(coordinator=coordinator)["cluster"]["counters"]["checkpoint_failures"] == 1

    def test_malformed_rows_are_counted_and_their_group_returns_to_pending(self, tmp_path):
        store = make_store(tmp_path)
        first = make_coordinator(store)
        plan = make_plan(with_measures=False)                 # 2 groups
        run_id = first.create_run(plan)
        lease = first.lease("w1")
        index = lease["group_index"]
        first.complete("w1", lease["lease_id"], run_id, index, rows_for_group(plan, index))
        key = _group_key(run_id, index)
        payload = json.loads(json.dumps(store.get_json(CHECKPOINT_KIND, key)))
        del payload["rows"][0]["task"]
        store.put_json(CHECKPOINT_KIND, key, payload)

        second = make_coordinator(make_store(tmp_path))
        resumed = second.resume_runs()
        assert (resumed, second.counters["checkpoint_failures"]) == (1, 1)
        status = second.run_status(run_id)
        assert (status["done"], status["pending"], status["committed"]) == (0, 2, 0)
        assert second.lease("w2")["group_index"] == index     # it re-leases

    def test_a_run_checkpoint_without_its_plan_is_counted(self, tmp_path):
        store = make_store(tmp_path)
        run_id = make_coordinator(store).create_run(make_plan(with_measures=False))
        meta = json.loads(json.dumps(store.get_json(CHECKPOINT_KIND, run_id)))
        del meta["plan"]
        store.put_json(CHECKPOINT_KIND, run_id, meta)

        second = make_coordinator(make_store(tmp_path))
        resumed = second.resume_runs()
        assert (resumed, second.counters["checkpoint_failures"]) == (0, 1)
        assert second.run_status(run_id) is None

    def test_refused_checkpoints_are_counted_and_the_run_still_finishes(self):
        clock = FakeClock()
        coordinator = make_coordinator(ArtifactStore(backends=[FullDisk()]), clock)
        plan = make_plan(with_measures=False)                 # 2 groups
        run_id = coordinator.create_run(plan)                 # run + index
        assert coordinator.counters["checkpoint_failures"] == 2
        while True:
            lease = coordinator.lease("w1")                   # run
            if lease["status"] != "lease":
                break
            assert coordinator.complete(                      # group + run
                "w1", lease["lease_id"], run_id, lease["group_index"],
                rows_for_group(plan, lease["group_index"]),
            )["status"] == "ok"
        records = list(coordinator.records(run_id))
        assert [
            (r.algorithm, r.dim, r.precision, r.seed, r.task) for r in records
        ] == plan.cell_keys()
        assert coordinator.counters["checkpoint_failures"] == 2 + 2 * 3
        clock.advance(RUN_GC_AGE + 1.0)
        coordinator.lease("w1")             # GC: 3 refused deletes, then index
        counters = stats(coordinator=coordinator)["cluster"]["counters"]
        assert counters["runs_gced"] == 1
        assert counters["checkpoint_failures"] == 2 + 2 * 3 + 3 + 1
        assert counters["checkpoints_written"] == 0


def _boot(service):
    api = StabilityAPIServer(service, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run_server():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(api.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    assert started.wait(timeout=30), "server failed to start"
    return api, loop, thread


def _stop(api, loop, thread):
    asyncio.run_coroutine_threadsafe(api.stop(), loop).result(timeout=10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)


def _stream_rows(port, query=""):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    conn.request("GET", f"/grid?distributed=true{query}")
    response = conn.getresponse()
    assert response.status == 200
    rows = [json.loads(line) for line in response.read().decode().strip().splitlines()]
    conn.close()
    return rows


class TestLiveCrashResume:
    """Live-HTTP variant: real servers, real workers, an abrupt stop between."""

    def test_kill_and_restart_mid_run(self, tmp_path):
        config = quick_serve_config()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            expected = GridEngine(config).run(with_measures=True)

        # --- incarnation A: disk-backed store, one worker, one group done.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            service_a = StabilityService(
                config,
                store=ArtifactStore(str(tmp_path / "coord")),
                config=ServiceConfig(lease_ttl=30),
            )
        api_a, loop_a, thread_a = _boot(service_a)
        url_a = f"http://127.0.0.1:{api_a.port}"
        # Submit directly (no stream attached): the run must survive with no
        # consumer to cancel it when the server dies.
        plan = plan_grid(config, with_measures=True)
        run_id = service_a.coordinator.create_run(plan)
        worker_a = ClusterWorker(url_a, worker_id="worker-a", poll_interval=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert worker_a.step() is True                    # anchor group done
        assert service_a.coordinator.run_status(run_id)["done"] == 1
        trained_a = worker_a.stats()["embedding_train_count"]
        assert trained_a == 1
        # CRASH: stop the server abruptly; nothing cancels or finishes the run.
        _stop(api_a, loop_a, thread_a)
        worker_a.stop()
        service_a.close()

        # --- incarnation B: same disk store, --resume-runs semantics.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            service_b = StabilityService(
                config,
                store=ArtifactStore(str(tmp_path / "coord")),
                config=ServiceConfig(lease_ttl=30),
            )
        try:
            assert service_b.coordinator.resume_runs() == 1
            status = service_b.coordinator.run_status(run_id)
            assert status["done"] == 1 and status["pending"] == 1
            api_b, loop_b, thread_b = _boot(service_b)
            url_b = f"http://127.0.0.1:{api_b.port}"
            worker_b = ClusterWorker(url_b, worker_id="worker-b", poll_interval=0.05)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    for _ in range(8):
                        if service_b.coordinator.run_status(run_id)["completed"]:
                            break
                        worker_b.step()
                final = service_b.coordinator.run_status(run_id)
                assert final["completed"] is True
                # Zero duplicate trainings for already-committed cells: the
                # resumed worker trained only the one remaining pair (the
                # anchor pair came warm out of the shared store).
                assert worker_b.stats()["embedding_train_count"] == 1
                counters = service_b.coordinator.snapshot()["counters"]
                assert counters["runs_resumed"] == 1
                assert counters["records_replayed"] == 2
                assert counters["duplicate_results"] == 0
                # Re-attach over HTTP: the full stream, bit-identical to the
                # serial engine, replayed records included.
                rows = _stream_rows(api_b.port, f"&run_id={run_id}")
                assert rows == [record.to_row() for record in expected]
            finally:
                worker_b.stop()
                _stop(api_b, loop_b, thread_b)
        finally:
            service_b.close()

    def test_drain_endpoint_over_http(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            service = StabilityService(
                quick_serve_config(), config=ServiceConfig(lease_ttl=30)
            )
        api, loop, thread = _boot(service)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", api.port, timeout=30)

            def call(method, path, body=None):
                payload = json.dumps(body).encode() if body is not None else None
                conn.request(
                    method, path, body=payload,
                    headers={"Content-Type": "application/json"} if payload else {},
                )
                response = conn.getresponse()
                data = json.loads(response.read())
                assert response.status == 200, data
                return data

            drained = call("POST", "/cluster/drain", {"enable": True})
            assert drained["draining"] is True and drained["drained"] is True
            answer = call("POST", "/cluster/lease", {"worker": "w1"})
            assert answer["status"] == "drain"
            status = call("GET", "/cluster/drain")
            assert status["draining"] is True
            lifted = call("POST", "/cluster/drain", {"enable": False})
            assert lifted["draining"] is False
            assert call("POST", "/cluster/lease", {"worker": "w1"})["status"] == "idle"
            conn.close()
        finally:
            _stop(api, loop, thread)
            service.close()
