"""DriftEvaluator: aggregation, thresholds, history, serialisation."""

import math

import pytest

from repro.instability.grid import GridRecord
from repro.monitor import drift as drift_module
from repro.monitor.drift import DISAGREEMENT, DriftEvaluator, DriftReport


def record(measures, disagreement=float("nan")):
    return GridRecord(
        algorithm="svd", task="sst2", dim=4, precision=1, seed=0,
        disagreement=disagreement, accuracy_a=0.5, accuracy_b=0.5,
        measures=measures,
    )


PAIR = ("a" * 24, "b" * 24)


class TestAggregation:
    def test_means_over_cells(self):
        evaluator = DriftEvaluator()
        report = evaluator.evaluate(
            [record({"eis": 0.1}), record({"eis": 0.3})],
            base_version=1, version=2, snapshot_pair=PAIR,
        )
        assert report.measures["eis"] == pytest.approx(0.2)
        assert report.cells == 2
        assert math.isnan(report.disagreement)

    def test_nan_measures_skipped(self):
        evaluator = DriftEvaluator()
        report = evaluator.evaluate(
            [record({"eis": 0.4, "pip": float("nan")}), record({"eis": float("nan")})],
            base_version=1, version=2, snapshot_pair=PAIR,
        )
        assert report.measures["eis"] == pytest.approx(0.4)
        assert "pip" not in report.measures

    def test_disagreement_mean(self):
        evaluator = DriftEvaluator()
        report = evaluator.evaluate(
            [record({}, disagreement=0.2), record({}, disagreement=0.4)],
            base_version=1, version=2, snapshot_pair=PAIR,
        )
        assert report.disagreement == pytest.approx(0.3)


class TestAlerts:
    def test_threshold_exceeded_raises_alert(self):
        evaluator = DriftEvaluator({"eis": 0.15})
        report = evaluator.evaluate(
            [record({"eis": 0.2})], base_version=1, version=2, snapshot_pair=PAIR
        )
        assert report.drifted
        (alert,) = report.alerts
        assert alert == {"measure": "eis", "value": pytest.approx(0.2), "threshold": 0.15}

    def test_below_threshold_is_quiet(self):
        evaluator = DriftEvaluator({"eis": 0.5})
        report = evaluator.evaluate(
            [record({"eis": 0.2})], base_version=1, version=2, snapshot_pair=PAIR
        )
        assert not report.drifted and report.alerts == ()

    def test_disagreement_threshold(self):
        evaluator = DriftEvaluator({DISAGREEMENT: 0.1})
        report = evaluator.evaluate(
            [record({}, disagreement=0.3)],
            base_version=1, version=2, snapshot_pair=PAIR,
        )
        (alert,) = report.alerts
        assert alert["measure"] == DISAGREEMENT

    def test_absent_measure_never_alerts(self):
        evaluator = DriftEvaluator({"pip": 0.0, DISAGREEMENT: 0.0})
        report = evaluator.evaluate(
            [record({"eis": 1.0})], base_version=1, version=2, snapshot_pair=PAIR
        )
        assert report.alerts == ()

    def test_no_thresholds_observe_only(self):
        evaluator = DriftEvaluator()
        report = evaluator.evaluate(
            [record({"eis": 99.0})], base_version=1, version=2, snapshot_pair=PAIR
        )
        assert report.alerts == ()


class TestHistoryAndSerialisation:
    def test_bounded_history(self, monkeypatch):
        monkeypatch.setattr(drift_module, "HISTORY", 2)
        evaluator = DriftEvaluator()
        for version in range(2, 6):
            evaluator.evaluate(
                [record({"eis": 0.1})],
                base_version=version - 1, version=version, snapshot_pair=PAIR,
            )
        assert [r.version for r in evaluator.reports] == [4, 5]
        assert evaluator.last_report.version == 5

    def test_jsonable_round_trip(self):
        evaluator = DriftEvaluator({"eis": 0.05})
        report = evaluator.evaluate(
            [record({"eis": 0.2}, disagreement=0.1)],
            base_version=3, version=4, snapshot_pair=PAIR,
        )
        restored = DriftReport.from_jsonable(report.to_jsonable())
        assert restored == report

    def test_jsonable_round_trip_nan_disagreement(self):
        report = DriftReport(
            base_version=1, version=2, snapshot_pair=PAIR, cells=1,
            measures={"eis": 0.1},
        )
        payload = report.to_jsonable()
        assert payload["disagreement"] is None
        restored = DriftReport.from_jsonable(payload)
        assert math.isnan(restored.disagreement)

    def test_alerts_raised_counter(self):
        evaluator = DriftEvaluator({"eis": 0.0})
        for version in (2, 3):
            evaluator.evaluate(
                [record({"eis": 0.5})],
                base_version=version - 1, version=version, snapshot_pair=PAIR,
            )
        assert evaluator.alerts_raised == 2
