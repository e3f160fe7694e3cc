"""Downstream instability: Definition 1, the end-to-end pipeline, and the grid records."""

from repro.instability.downstream import (
    classification_disagreement,
    downstream_instability,
    prediction_disagreement,
    tagging_disagreement,
    unstable_rank_at_k,
)
from repro.instability.pipeline import InstabilityPipeline, PipelineConfig, DownstreamResult
from repro.instability.grid import GridRecord, records_to_rows

__all__ = [
    "DownstreamResult",
    "GridRecord",
    "InstabilityPipeline",
    "PipelineConfig",
    "classification_disagreement",
    "downstream_instability",
    "prediction_disagreement",
    "records_to_rows",
    "tagging_disagreement",
    "unstable_rank_at_k",
]
