"""Drift evaluation between successive embedding versions.

A retrain over a snapshot pair yields grid records whose measures (EIS,
k-NN overlap distance, PIP loss, eigenspace overlap, semantic displacement)
and downstream prediction disagreement quantify how much the new corpus
moved the embeddings -- the paper's instability, observed online.
:class:`DriftEvaluator` aggregates those records into one
:class:`DriftReport` per version pair and raises **thresholded drift
alerts**: a measure whose aggregate exceeds its configured threshold.

Thresholds are explicit configuration (``{"eis": 0.15, "disagreement":
0.2}``); an empty mapping means the monitor observes without alerting.  The
special name ``"disagreement"`` thresholds the mean downstream prediction
disagreement; every other name must be one of the measure names the grid
computed.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instability.grid import GridRecord

__all__ = ["DriftReport", "DriftEvaluator"]

#: Threshold name for the mean downstream prediction disagreement.
DISAGREEMENT = "disagreement"
#: Drift reports an evaluator keeps (and monitor versions a monitor lists),
#: newest last.
HISTORY = 16


@dataclass(frozen=True)
class DriftReport:
    """Aggregated stability of one (previous, current) version pair."""

    base_version: int
    version: int
    snapshot_pair: tuple[str, str]
    cells: int
    #: Mean of each measure over the cells that carried it.
    measures: dict[str, float] = field(default_factory=dict)
    #: Mean downstream prediction disagreement over all cells.
    disagreement: float = float("nan")
    #: Alerts raised against the thresholds, one dict per exceeded measure.
    alerts: tuple[dict, ...] = ()

    @property
    def drifted(self) -> bool:
        return bool(self.alerts)

    def to_jsonable(self) -> dict:
        return {
            "base_version": self.base_version,
            "version": self.version,
            "snapshot_pair": list(self.snapshot_pair),
            "cells": self.cells,
            "measures": dict(self.measures),
            "disagreement": None if math.isnan(self.disagreement) else self.disagreement,
            "alerts": [dict(a) for a in self.alerts],
            "drifted": self.drifted,
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping) -> "DriftReport":
        disagreement = payload.get("disagreement")
        return cls(
            base_version=int(payload["base_version"]),
            version=int(payload["version"]),
            snapshot_pair=tuple(payload["snapshot_pair"]),
            cells=int(payload["cells"]),
            measures={str(k): float(v) for k, v in payload["measures"].items()},
            disagreement=float("nan") if disagreement is None else float(disagreement),
            alerts=tuple(dict(a) for a in payload.get("alerts", [])),
        )


class DriftEvaluator:
    """Aggregates retrain records and keeps a bounded report history."""

    def __init__(self, thresholds: Mapping[str, float] | None = None) -> None:
        self.thresholds = {str(k): float(v) for k, v in (thresholds or {}).items()}
        self._reports: deque[DriftReport] = deque(maxlen=HISTORY)

    def evaluate(
        self,
        records: Sequence["GridRecord"],
        *,
        base_version: int,
        version: int,
        snapshot_pair: tuple[str, str],
    ) -> DriftReport:
        """Aggregate one retrain's records into a report (kept in history)."""
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        disagreements: list[float] = []
        for record in records:
            for name, value in (record.measures or {}).items():
                value = float(value)
                if math.isnan(value):
                    continue
                sums[name] = sums.get(name, 0.0) + value
                counts[name] = counts.get(name, 0) + 1
            if not math.isnan(record.disagreement):
                disagreements.append(float(record.disagreement))
        measures = {name: sums[name] / counts[name] for name in sorted(sums)}
        disagreement = (
            sum(disagreements) / len(disagreements) if disagreements else float("nan")
        )
        report = DriftReport(
            base_version=int(base_version),
            version=int(version),
            snapshot_pair=tuple(snapshot_pair),
            cells=len(records),
            measures=measures,
            disagreement=disagreement,
            alerts=tuple(self._alerts(measures, disagreement)),
        )
        self.record(report)
        return report

    def _alerts(self, measures: Mapping[str, float], disagreement: float) -> list[dict]:
        alerts = []
        for name, threshold in sorted(self.thresholds.items()):
            value = disagreement if name == DISAGREEMENT else measures.get(name)
            if value is None or math.isnan(value):
                continue
            if value > threshold:
                alerts.append(
                    {"measure": name, "value": value, "threshold": threshold}
                )
        return alerts

    def record(self, report: DriftReport) -> None:
        """Append a report to the bounded history (newest last)."""
        self._reports.append(report)

    @property
    def reports(self) -> list[DriftReport]:
        return list(self._reports)

    @property
    def last_report(self) -> DriftReport | None:
        return self._reports[-1] if self._reports else None

    @property
    def alerts_raised(self) -> int:
        return sum(len(r.alerts) for r in self._reports)
