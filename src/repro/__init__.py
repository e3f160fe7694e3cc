"""repro: reproduction of "Understanding the Downstream Instability of Word Embeddings".

The public API re-exports the pieces a downstream user typically needs:
corpus generation, embedding training, compression, the embedding distance
measures (including the paper's eigenspace instability measure), the
end-to-end instability pipeline, and the selection/analysis utilities.
See ``README.md`` for a quickstart and the system map.

The surface is lazy (PEP 562): ``import repro`` loads no submodule, and each
name below imports its home module on first access.  Every process that boots
through the package -- ``repro-serve``, ``repro-worker``, the runner, pool
workers -- would otherwise pay for all of it, ``scipy.stats`` included, to
use a fraction.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

#: Subpackage -> the names ``repro`` re-exports from it.
_EXPORTS = {
    "compression": ("compress_embedding", "compress_pair", "uniform_quantize"),
    "corpus": (
        "Corpus", "CorpusPair", "SyntheticCorpusConfig", "SyntheticCorpusGenerator", "Vocabulary",
    ),
    "embeddings": (
        "CBOWModel", "Embedding", "GloVeModel", "MatrixCompletionModel", "PPMISVDModel",
        "align_pair",
    ),
    "instability": (
        "GridRecord", "InstabilityPipeline", "PipelineConfig", "prediction_disagreement",
    ),
    "measures": (
        "EigenspaceInstability", "EigenspaceOverlapDistance", "KNNDistance", "PIPLoss",
        "SemanticDisplacement", "eigenspace_instability",
    ),
    "analysis": ("fit_linear_log", "measure_correlations", "spearman_correlation"),
}
_HOMES = {name: package for package, names in _EXPORTS.items() for name in names}

#: Subpackages reachable as ``repro.<name>`` after a bare ``import repro``.
_SUBPACKAGES = frozenset({
    "analysis", "compression", "corpus", "embeddings", "engine", "instability",
    "linalg", "measures", "models", "nn", "tasks", "telemetry", "utils",
})

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBPACKAGES})
