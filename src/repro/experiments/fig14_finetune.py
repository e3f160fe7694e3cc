"""Figure 14b (Appendix E.4): fine-tuning the embeddings downstream.

The paper repeats the SST-2 memory sweep while allowing the downstream model
to update ("fine-tune") the embedding table, finding the stability-memory
trend persists (noisier) and that fine-tuning lowers the overall instability.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.experiments.base import ExperimentResult, resolve_engine, resolve_pipeline
from repro.instability.grid import average_over_seeds
from repro.instability.pipeline import InstabilityPipeline, PipelineConfig

__all__ = ["run"]


def run(
    pipeline: InstabilityPipeline | PipelineConfig | None = None,
    *,
    task: str = "sst2",
    algorithms: tuple[str, ...] = ("mc",),
    dimensions: tuple[int, ...] | None = None,
    precisions: tuple[int, ...] = (1, 4, 32),
    n_workers: int | None = None,
) -> ExperimentResult:
    """Compare fixed vs fine-tuned embeddings on the memory sweep."""
    base_pipe = resolve_pipeline(pipeline)
    finetune_config = replace(base_pipe.config, fine_tune_embeddings=True)
    # Share the base pipeline's artifact store so both settings see identical
    # trained pairs (embedding keys don't include the fine-tune flag, while
    # downstream keys do).
    finetune_pipe = InstabilityPipeline(finetune_config, store=base_pipe.store)

    rows = []
    for label, pipe in (("fixed", base_pipe), ("fine-tuned", finetune_pipe)):
        records = resolve_engine(pipe, n_workers=n_workers).run(
            algorithms=algorithms,
            tasks=(task,),
            dimensions=dimensions,
            precisions=precisions,
            with_measures=False,
        )
        for r in average_over_seeds(records):
            rows.append(
                {
                    "mode": label,
                    "task": r.task,
                    "algorithm": r.algorithm,
                    "dimension": r.dim,
                    "precision": r.precision,
                    "memory_bits_per_word": r.memory,
                    "disagreement_pct": r.disagreement,
                    "quality": r.mean_accuracy,
                }
            )

    fixed = [r["disagreement_pct"] for r in rows if r["mode"] == "fixed"]
    tuned = [r["disagreement_pct"] for r in rows if r["mode"] == "fine-tuned"]
    summary = {
        "mean_disagreement_fixed": float(np.mean(fixed)) if fixed else 0.0,
        "mean_disagreement_fine_tuned": float(np.mean(tuned)) if tuned else 0.0,
        "fine_tuning_not_more_unstable": bool(
            (not fixed or not tuned) or np.mean(tuned) <= np.mean(fixed) * 1.5
        ),
    }
    return ExperimentResult(name="figure-14b-finetune", rows=rows, summary=summary)
