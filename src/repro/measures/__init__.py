"""Embedding distance measures (Section 2.4 and Section 4 of the paper).

All measures are *dissimilarities*: larger values should indicate more
downstream instability, so measures the paper reports as similarities
(k-NN overlap, eigenspace overlap) are exposed here in their ``1 - x`` form,
matching the rows "1 - k-NN" / "1 - Eigenspace Overlap" of Tables 1-3.
"""

from repro.measures.base import (
    MEASURES,
    DecompositionCache,
    EmbeddingDistanceMeasure,
    MeasureResult,
)
from repro.measures.batch import MeasureBatchResult, compute_measure_batch
from repro.measures.eigenspace_instability import (
    AnchorFactors,
    EigenspaceInstability,
    anchor_factors,
    eigenspace_instability,
    eigenspace_instability_exact,
)
from repro.measures.eigenspace_overlap import EigenspaceOverlapDistance, eigenspace_overlap
from repro.measures.knn import KNNDistance, knn_overlap
from repro.measures.pip_loss import PIPLoss, pip_loss
from repro.measures.semantic_displacement import SemanticDisplacement, semantic_displacement

__all__ = [
    "AnchorFactors",
    "DecompositionCache",
    "EigenspaceInstability",
    "EigenspaceOverlapDistance",
    "EmbeddingDistanceMeasure",
    "KNNDistance",
    "MEASURES",
    "MeasureBatchResult",
    "MeasureResult",
    "PIPLoss",
    "SemanticDisplacement",
    "anchor_factors",
    "compute_measure_batch",
    "eigenspace_instability",
    "eigenspace_instability_exact",
    "eigenspace_overlap",
    "knn_overlap",
    "pip_loss",
    "semantic_displacement",
]
