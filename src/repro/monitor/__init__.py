"""Online instability monitoring: ingestion, rolling retrains, drift alerts.

The monitor turns the paper's offline experiment -- train embedding
versions on successive corpus snapshots, measure their instability -- into
an online loop over a *live* corpus:

* :class:`~repro.monitor.ingest.CorpusIngestor` accumulates document
  batches into a growing vocabulary;
* :class:`~repro.monitor.scheduler.InstabilityMonitor` cuts
  content-addressed corpus snapshots and schedules rolling retrains over
  successive snapshot pairs -- locally or leased to the ``repro-worker``
  fleet through the cluster coordinator;
* :class:`~repro.monitor.drift.DriftEvaluator` aggregates each retrain
  into a :class:`~repro.monitor.drift.DriftReport` and raises thresholded
  drift alerts, all narrated on the
  :class:`~repro.monitor.events.MonitorEventLog` behind
  ``GET /monitor/events``.
"""

from repro.monitor.drift import DISAGREEMENT, DriftEvaluator, DriftReport
from repro.monitor.events import MonitorEventLog
from repro.monitor.ingest import CorpusIngestor
from repro.monitor.scheduler import InstabilityMonitor, MonitorConfig

__all__ = [
    "DISAGREEMENT",
    "CorpusIngestor",
    "DriftEvaluator",
    "DriftReport",
    "InstabilityMonitor",
    "MonitorConfig",
    "MonitorEventLog",
]
