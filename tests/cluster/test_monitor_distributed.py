"""End-to-end online monitoring over a live cluster: the acceptance test.

Boots the real serving API with the monitor in distributed mode plus two
in-process ``repro-worker`` loops over real HTTP, ingests corpus deltas
through ``POST /monitor/ingest``, and pins the PR's acceptance criteria:

* successive snapshots trigger a rolling retrain **leased to the fleet**
  (workers fetch the content-addressed snapshots through the coordinator's
  /artifacts tier and rebuild the pipeline from JSON);
* the retrain's aggregated stability measures are **bit-identical** to an
  equivalent batch grid run over the same snapshot pair;
* no embedding pair is trained twice anywhere in the cluster;
* the thresholded **drift alert is observable on /monitor/events** and the
  monitor's counters on ``/metrics``;
* warm re-evaluation of the already-measured pair **trains nothing**.
"""

import http.client
import json
import warnings

import pytest

from repro.engine import GridEngine
from repro.engine.store import ArtifactStore
from repro.instability.pipeline import InstabilityPipeline
from repro.monitor import DriftEvaluator, MonitorConfig

from tests.live import live_cluster


@pytest.fixture(scope="module")
def monitored_cluster():
    """A live monitored coordinator (real HTTP) plus two polling workers."""
    monitor = MonitorConfig(distributed=True, thresholds={"eis": 0.0})
    with live_cluster(monitor=monitor) as (api, url, workers):
        yield api, api.service, api.service.monitor, workers


def post_json(port: int, path: str, body: dict) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    conn.request(
        "POST", path, body=json.dumps(body),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    payload = json.loads(response.read())
    conn.close()
    return response.status, payload


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request("GET", path)
    payload = json.loads(conn.getresponse().read())
    conn.close()
    return payload


def get_events(port: int) -> list[dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request("GET", "/monitor/events")
    response = conn.getresponse()
    assert response.status == 200
    lines = [json.loads(line) for line in response.read().decode().strip().splitlines()]
    conn.close()
    return lines


def total_trainings(workers) -> tuple[int, int]:
    embedding = sum(w.stats()["embedding_train_count"] for w in workers)
    downstream = sum(w.stats()["downstream_train_count"] for w in workers)
    return embedding, downstream


@pytest.fixture(scope="module")
def ingested(monitored_cluster):
    """Corpus deltas ingested over HTTP; the rolling retrain fully drained."""
    api, service, monitor, workers = monitored_cluster
    corpus = service.pipeline.corpus_pair.base
    documents = [[corpus.word_list[i] for i in doc] for doc in corpus.documents]

    status1, first = post_json(
        api.port, "/monitor/ingest", {"documents": documents[:40]}
    )
    status2, second = post_json(
        api.port, "/monitor/ingest", {"documents": documents[40:]}
    )
    assert status1 == 200 and status2 == 200
    assert monitor.wait_idle(timeout=300), "distributed retrain did not finish"
    return first, second


class TestMonitoredCluster:
    def test_rolling_retrain_over_the_fleet(self, monitored_cluster, ingested):
        api, service, monitor, workers = monitored_cluster
        first, second = ingested
        assert first["version"] == 1 and second["version"] == 2

        counters = monitor.counters()
        assert counters["snapshots_cut"] == 2
        assert counters["retrains_completed"] == 1
        assert counters["retrains_failed"] == 0
        assert counters["retrain_records"] == 4      # svd x (4,6) x (1,32)

        # The retrain really ran on the fleet, with zero duplicate trainings:
        # the snapshot-pair grid has exactly two unique embedding pairs.
        embedding, downstream = total_trainings(workers)
        assert embedding == 2
        assert downstream == 4 * 2                   # two models per cell, once
        cluster_stats = get_json(api.port, "/metrics")["cluster"]
        assert cluster_stats["counters"]["duplicate_results"] == 0
        assert cluster_stats["counters"]["group_failures"] == 0

    def test_measures_bit_identical_to_batch_grid(self, monitored_cluster, ingested):
        # An equivalent batch grid on a fresh store (only the snapshots
        # seeded) aggregates to the exact same drift report.
        api, service, monitor, workers = monitored_cluster
        from repro.corpus.snapshots import load_snapshot, store_snapshot

        report = monitor.drift.last_report
        assert report is not None and report.cells == 4
        config = monitor.retrain_config(*report.snapshot_pair)
        fresh_store = ArtifactStore()
        for key in report.snapshot_pair:
            store_snapshot(fresh_store, load_snapshot(service.store, key))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            records = GridEngine(
                InstabilityPipeline(config, store=fresh_store), coordinator_url=""
            ).run(with_measures=True)
        batch_report = DriftEvaluator(monitor.drift.thresholds).evaluate(
            records,
            base_version=report.base_version,
            version=report.version,
            snapshot_pair=report.snapshot_pair,
        )
        assert batch_report.measures == report.measures      # exact floats
        assert batch_report.disagreement == report.disagreement
        assert batch_report.alerts == report.alerts

    def test_drift_alert_on_events_and_counters_on_metrics(
        self, monitored_cluster, ingested
    ):
        api, service, monitor, workers = monitored_cluster
        events = get_events(api.port)
        kinds = [e["kind"] for e in events]
        assert kinds.count("snapshot_cut") == 2
        assert "retrain_started" in kinds
        started = next(e for e in events if e["kind"] == "retrain_started")
        assert started["distributed"] is True and started.get("run_id")
        assert "measures_ready" in kinds
        assert "drift_alert" in kinds
        alert = next(e for e in events if e["kind"] == "drift_alert")
        assert alert["alerts"][0]["measure"] == "eis"

        metrics = get_json(api.port, "/metrics")
        assert metrics["monitor"]["counters"]["drift_alerts"] >= 1
        assert metrics["monitor"]["version"] == 2

    def test_warm_reevaluation_trains_nothing(self, monitored_cluster, ingested):
        api, service, monitor, workers = monitored_cluster
        report = monitor.drift.last_report
        trainings_before = total_trainings(workers)
        runs_before = get_json(api.port, "/metrics")["cluster"]["counters"][
            "runs_created"
        ]
        warm = monitor.evaluate_pair(
            report.base_version, report.snapshot_pair[0],
            report.version, report.snapshot_pair[1],
        )
        assert warm.measures == report.measures
        assert total_trainings(workers) == trainings_before
        runs_after = get_json(api.port, "/metrics")["cluster"]["counters"][
            "runs_created"
        ]
        assert runs_after == runs_before            # no grid even dispatched
        assert monitor.counters()["reports_warm"] == 1
