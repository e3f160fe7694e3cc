"""Figure 13 (Appendix E.2): more complex downstream models.

The paper checks that the stability-memory tradeoff also appears with a CNN
sentence classifier (SST-2) and a BiLSTM-CRF tagger (CoNLL-2003), not just the
simple linear / BiLSTM models of the main study.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, resolve_pipeline
from repro.instability.pipeline import InstabilityPipeline, PipelineConfig

__all__ = ["run"]


def run(
    pipeline: InstabilityPipeline | PipelineConfig | None = None,
    *,
    dimensions: tuple[int, ...] | None = None,
    precisions: tuple[int, ...] = (1, 4, 32),
    algorithm: str = "mc",
    seed: int = 0,
    include_crf: bool = True,
) -> ExperimentResult:
    """Reproduce the complex-downstream-model sweep (Figure 13)."""
    pipe = resolve_pipeline(pipeline)
    dims = dimensions or (*sorted(pipe.config.dimensions)[:2], max(pipe.config.dimensions))

    rows = []
    for dim in sorted(set(dims)):
        for precision in precisions:
            emb_a, emb_b = pipe.compressed_pair(algorithm, dim, precision, seed)
            cnn = pipe.downstream_result("sst2", emb_a, emb_b, seed, model_type="cnn")
            rows.append(
                {
                    "model": "cnn",
                    "task": "sst2",
                    "algorithm": algorithm,
                    "dimension": dim,
                    "precision": precision,
                    "memory_bits_per_word": dim * precision,
                    "disagreement_pct": cnn.disagreement,
                    "quality": cnn.mean_accuracy,
                }
            )
            if include_crf:
                crf = pipe.downstream_result("conll", emb_a, emb_b, seed, use_crf=True)
                rows.append(
                    {
                        "model": "bilstm-crf",
                        "task": "conll",
                        "algorithm": algorithm,
                        "dimension": dim,
                        "precision": precision,
                        "memory_bits_per_word": dim * precision,
                        "disagreement_pct": crf.disagreement,
                        "quality": crf.mean_accuracy,
                    }
                )

    summary = {}
    for model in ("cnn", "bilstm-crf"):
        series = sorted(
            (r for r in rows if r["model"] == model), key=lambda r: r["memory_bits_per_word"]
        )
        if len(series) >= 2:
            summary[f"{model}_low_vs_high_memory"] = (
                series[0]["disagreement_pct"],
                series[-1]["disagreement_pct"],
            )
    return ExperimentResult(name="figure-13-complex-models", rows=rows, summary=summary)
