"""Batch evaluation of many measures on one embedding pair, sharing work.

Evaluating the paper's five measures naively aligns the pair five times and
decomposes each embedding matrix three times (EIS, eigenspace overlap and PIP
loss each take an SVD).  :func:`compute_measure_batch` aligns once and threads
one :class:`~repro.measures.base.DecompositionCache` through every measure, so
each matrix is decomposed exactly once per pair.  The cache belongs to the
batch and goes with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.embeddings.base import Embedding
from repro.measures.base import (
    DEFAULT_TOP_K,
    DecompositionCache,
    EmbeddingDistanceMeasure,
    MeasureResult,
    aligned_top_k_pair,
)

__all__ = ["MeasureBatchResult", "compute_measure_batch"]


@dataclass
class MeasureBatchResult:
    """Results of one measure batch plus the cache that served it."""

    results: dict[str, MeasureResult] = field(default_factory=dict)
    cache: DecompositionCache = field(default_factory=DecompositionCache)

    @property
    def values(self) -> dict[str, float]:
        return {name: result.value for name, result in self.results.items()}

    def __getitem__(self, name: str) -> MeasureResult:
        return self.results[name]

    def __len__(self) -> int:
        return len(self.results)


def compute_measure_batch(
    measures: Mapping[str, EmbeddingDistanceMeasure],
    a: Embedding,
    b: Embedding,
    *,
    top_k: int | None = DEFAULT_TOP_K,
) -> MeasureBatchResult:
    """Evaluate every measure on the common (top-``k``) vocabulary of a pair.

    Parameters
    ----------
    measures:
        Name -> measure mapping (e.g. the pipeline's measure suite).
    a, b:
        The embedding pair; aligned once for the whole batch.
    top_k:
        Common-vocabulary restriction (see ``DEFAULT_TOP_K``).
    """
    ra, rb = aligned_top_k_pair(a, b, top_k=top_k)
    batch = MeasureBatchResult()
    for name, measure in measures.items():
        batch.results[name] = measure.compute_aligned(ra, rb, cache=batch.cache)
    return batch
