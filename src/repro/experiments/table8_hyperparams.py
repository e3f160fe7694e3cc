"""Table 8 (Appendix D.3): hyperparameter selection for the EIS alpha and k-NN k.

The paper tunes alpha (how strongly high-eigenvalue directions dominate Sigma)
and k (the neighbourhood size) by the average Spearman correlation with
downstream disagreement on validation data, finding alpha = 3 and k = 5.
This experiment reproduces both sweeps on the pipeline's grid.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.correlation import spearman_correlation
from repro.experiments.base import ExperimentResult, resolve_engine, resolve_pipeline
from repro.instability.pipeline import KNN_NUM_QUERIES, InstabilityPipeline, PipelineConfig
from repro.measures.eigenspace_instability import EigenspaceInstability
from repro.measures.knn import KNNDistance

__all__ = ["run"]


def run(
    pipeline: InstabilityPipeline | PipelineConfig | None = None,
    *,
    alphas: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0),
    ks: tuple[int, ...] = (1, 2, 5, 10, 50),
    tasks: tuple[str, ...] | None = None,
    n_workers: int | None = None,
) -> ExperimentResult:
    """Sweep the EIS alpha and k-NN k and report mean Spearman correlations."""
    pipe = resolve_pipeline(pipeline)
    records = resolve_engine(pipe, n_workers=n_workers).run(tasks=tasks, with_measures=False)

    # Group the grid by (algorithm, seed) once; each group shares its anchors
    # and its set of compressed pairs.
    combos = sorted({(r.algorithm, r.dim, r.precision, r.seed) for r in records})
    by_setting: dict[tuple, list] = {}
    for r in records:
        by_setting.setdefault((r.algorithm, r.dim, r.precision, r.seed), []).append(r)

    rows = []

    def correlation_for(measure_factory) -> float:
        """Mean Spearman correlation of a measure across (task, algorithm) series."""
        # Compute the measure once per embedding setting.
        measure_values: dict[tuple, float] = {}
        for algorithm, dim, precision, seed in combos:
            emb_a, emb_b = pipe.compressed_pair(algorithm, dim, precision, seed)
            measure = measure_factory(algorithm, seed)
            measure_values[(algorithm, dim, precision, seed)] = measure.compute_embeddings(
                emb_a, emb_b
            ).value
        # Correlate with disagreement per (task, algorithm).
        series: dict[tuple[str, str], tuple[list, list]] = {}
        for key, recs in by_setting.items():
            algorithm = key[0]
            for rec in recs:
                xs, ys = series.setdefault((rec.task, algorithm), ([], []))
                xs.append(measure_values[key])
                ys.append(rec.disagreement)
        rhos = [
            spearman_correlation(xs, ys) for xs, ys in series.values() if len(xs) >= 2
        ]
        return float(np.mean(rhos)) if rhos else 0.0

    for alpha in alphas:
        rho = correlation_for(
            lambda algorithm, seed, a=alpha: EigenspaceInstability(
                *pipe.anchors(algorithm, seed), alpha=a
            )
        )
        rows.append({"hyperparameter": "alpha", "value": alpha, "mean_spearman_rho": rho})
    for k in ks:
        rho = correlation_for(
            lambda algorithm, seed, kk=k: KNNDistance(k=kk, num_queries=KNN_NUM_QUERIES, seed=0)
        )
        rows.append({"hyperparameter": "k", "value": k, "mean_spearman_rho": rho})

    alpha_rows = [r for r in rows if r["hyperparameter"] == "alpha"]
    k_rows = [r for r in rows if r["hyperparameter"] == "k"]
    summary = {
        "best_alpha": max(alpha_rows, key=lambda r: r["mean_spearman_rho"])["value"],
        "best_k": max(k_rows, key=lambda r: r["mean_spearman_rho"])["value"],
    }
    return ExperimentResult(name="table-8-measure-hyperparameters", rows=rows, summary=summary)
