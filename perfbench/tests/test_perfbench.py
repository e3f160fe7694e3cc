"""The benchmark's own arithmetic and failure accounting."""

import pytest

from perfbench import machine, stats
from perfbench.common import Tally, check_body
from perfbench.layers import LayerRecorder
from perfbench.serve import drive


def test_nearest_rank_reports_a_measured_sample():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.nearest_rank(values, 0.5) == 50.0
    assert stats.nearest_rank(values, 0.99) == 99.0
    assert stats.nearest_rank(values, 1.0) == 100.0
    assert stats.nearest_rank([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        stats.nearest_rank(values, 0.0)


def test_tail_keeps_ten_samples_beyond_it():
    assert stats.tail_quantile(1000) == 0.99
    assert stats.beyond(1000, 0.99) == 10
    assert stats.tail_quantile(999) < 0.99  # p99 of 999 leaves only 9 beyond
    for n in (11, 20, 30, 60, 999, 1000, 30_000):
        assert stats.beyond(n, stats.tail_quantile(n)) >= stats.MIN_TAIL_SAMPLES
    with pytest.raises(ValueError):
        stats.tail_quantile(10)


def test_latency_summary_of_thirty_samples_reports_the_twentieth():
    summary = stats.latency_summary([float(v) for v in range(1, 31)])
    assert (summary["n"], summary["p50_ms"], summary["tail_ms"]) == (30, 15.0, 20.0)


def test_a_burst_of_slow_requests_moves_one_tail_window():
    samples = [1.0] * 985 + [2.0] * 15
    steady = stats.latency_summary(samples * 3)
    assert (steady["windows"], steady["tail_ms"]) == (3, 2.0)
    burst = samples + [9.0] * 1000 + samples
    assert stats.latency_summary(burst)["tail_ms"] == 2.0
    # Under two full windows the whole sample is one.
    assert stats.latency_summary(samples + [5.0] * 999)["windows"] == 1


def test_self_time_never_goes_negative():
    assert stats.self_time(1.0, 0.25, 0.5) == 0.25
    assert stats.self_time(1.0, 0.75, 0.5) == 0.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_layers_are_covered_once():
    clock = FakeClock()
    recorder = LayerRecorder(clock=clock)

    def anchor():
        clock.now += 2.0

    anchor = recorder.timed("measures.anchor", anchor)

    def batch():
        clock.now += 1.0
        anchor()

    batch = recorder.timed("measures.batch", batch)
    batch()
    batch()
    clock.now += 4.0  # outside every layer: the caller's self time
    report = recorder.report()
    assert report["layers"]["measures.batch"]["seconds"] == 6.0
    assert report["layers"]["measures.anchor"] == {"calls": 2, "seconds": 4.0, "median_s": 2.0}
    # The anchor intervals lie inside the batch ones: covered once, not twice.
    assert report["covered_s"] == 6.0
    assert stats.self_time(clock.now, report["covered_s"]) == 4.0


def test_a_layer_calling_itself_counts_once():
    clock = FakeClock()
    recorder = LayerRecorder(clock=clock)

    def fit(depth):
        clock.now += 1.0
        if depth:
            fit(depth - 1)

    fit = recorder.timed("embeddings.fit", fit)
    fit(2)
    entry = recorder.report()["layers"]["embeddings.fit"]
    assert (entry["calls"], entry["seconds"]) == (1, 3.0)


def test_report_since_a_mark_covers_only_the_window():
    clock = FakeClock()
    recorder = LayerRecorder(clock=clock)

    def measure(cost):
        clock.now += cost

    measure = recorder.timed("service.measure", measure, covers=False)
    measure(5.0)  # warm-up, before the window
    mark = recorder.mark()
    measure(1.0)
    measure(3.0)
    window = recorder.report(mark)
    assert window["layers"]["service.measure"] == {"calls": 2, "seconds": 4.0, "median_s": 2.0}
    assert window["covered_s"] == 0.0  # a non-covering layer leaves self time alone


class ScriptedClient:
    """Answers each GET from a script; an exception in the script is raised."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.reconnects = 0

    def get(self, path):
        answer = self.answers.pop(0)
        if isinstance(answer, Exception):
            raise answer
        return answer

    def reconnect(self):
        self.reconnects += 1


def test_a_corrupted_body_is_a_failed_operation():
    good = b'{"measures": {"eis": 0.125}}\n'
    corrupted = b'{"measures": {"eis": 0.126}}\n'
    client = ScriptedClient(
        [(200, good), (200, corrupted), (503, b"{}"), ConnectionResetError(), (200, good)]
    )
    tally, latencies = Tally(), []
    drive(
        client, ["/measure?dim=4"],
        lambda path, status, body: check_body(status, body, good),
        tally, latencies, 5,
    )
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.reasons["body differs"] == 1
    assert tally.reasons["status 503"] == 1
    assert client.reconnects == 1
    assert len(latencies) == 4  # the dropped request has no latency


def test_reference_seconds_weight_wall_time_by_speed():
    ref = machine.REFERENCE_PROBE_S
    # A probe every half second: at reference speed for a second, then at half.
    speed = machine.Speed([(0.0, ref), (0.5, ref), (1.0, 2 * ref), (1.5, 2 * ref), (2.0, 2 * ref)])
    assert speed.seconds(0.0, 1.0) == pytest.approx(1.0)
    assert speed.seconds(1.0, 2.0) == pytest.approx(0.5)
    assert speed.seconds(0.25, 1.25) == pytest.approx(0.875)
    assert speed.seconds(2.0, 3.0) == pytest.approx(0.5)  # the last speed holds on


def test_one_interrupted_probe_does_not_slow_the_machine():
    ref = machine.REFERENCE_PROBE_S
    speed = machine.Speed([(0.0, ref), (1.0, ref), (2.0, 5 * ref), (3.0, ref), (4.0, ref)])
    assert speed.seconds(0.0, 4.0) == pytest.approx(4.0)


def test_requests_a_probe_ran_into_are_found():
    ref = machine.REFERENCE_PROBE_S
    speed = machine.Speed([(0.0, ref), (0.5, ref), (1.0, ref)])
    assert speed.interrupted(0.4, 0.5 + ref / 2)
    assert speed.interrupted(0.5 + ref / 2, 0.6)
    assert not speed.interrupted(0.1, 0.4)
    assert not speed.interrupted(1.0 + 2 * ref, 1.5)
