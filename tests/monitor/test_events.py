"""MonitorEventLog: sequencing, bounded buffering, blocking tails."""

import threading

from repro.monitor import events as events_module
from repro.monitor.events import MonitorEventLog


class TestEmitAndRead:
    def test_sequence_numbers_are_monotonic(self):
        log = MonitorEventLog()
        first = log.emit("snapshot_cut", version=1)
        second = log.emit("retrain_started", version=2)
        assert first["seq"] == 1 and second["seq"] == 2
        assert log.last_seq == 2
        assert log.emitted == 2

    def test_events_since(self):
        log = MonitorEventLog()
        for version in range(5):
            log.emit("snapshot_cut", version=version)
        tail = log.events(since=3)
        assert [e["seq"] for e in tail] == [4, 5]
        assert log.events(since=5) == []

    def test_events_carry_payload_and_kind(self):
        log = MonitorEventLog()
        log.emit("drift_alert", alerts=[{"measure": "eis"}])
        (event,) = log.events()
        assert event["kind"] == "drift_alert"
        assert event["alerts"] == [{"measure": "eis"}]
        assert "ts" in event

    def test_reads_return_copies(self):
        log = MonitorEventLog()
        log.emit("snapshot_cut")
        log.events()[0]["kind"] = "tampered"
        assert log.events()[0]["kind"] == "snapshot_cut"


class TestBounding:
    def test_ring_buffer_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(events_module, "MAX_EVENTS", 3)
        log = MonitorEventLog()
        for version in range(6):
            log.emit("snapshot_cut", version=version)
        assert [e["seq"] for e in log.events()] == [4, 5, 6]
        assert log.emitted == 6                 # total emitted is unbounded
        assert log.last_seq == 6


class TestWait:
    def test_wait_times_out_empty(self):
        log = MonitorEventLog()
        assert log.wait(since=0, timeout=0.05) == []

    def test_wait_returns_buffered_immediately(self):
        log = MonitorEventLog()
        log.emit("snapshot_cut")
        events = log.wait(since=0, timeout=10)
        assert len(events) == 1

    def test_wait_wakes_on_emit(self):
        log = MonitorEventLog()
        result: list = []

        def tail() -> None:
            result.extend(log.wait(since=0, timeout=30))

        thread = threading.Thread(target=tail)
        thread.start()
        log.emit("measures_ready")
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result and result[0]["kind"] == "measures_ready"
