"""Tests for the experiment harness (fast, scaled-down runs)."""

import numpy as np
import pytest

from repro.corpus.synthetic import SyntheticCorpusConfig
from repro.experiments import (
    EXPERIMENTS,
    fig1_dimension,
    fig2_memory,
    fig3_kge,
    fig13_complex_models,
    proposition1,
    quick_pipeline_config,
    run_experiment,
    table1_correlation,
    table2_selection,
    table3_budget,
    table13_randomness,
)
from repro.experiments.base import ExperimentResult, resolve_pipeline
from repro.experiments.fig3_kge import KGEExperimentConfig
from repro.instability.grid import GridRunner
from repro.instability.pipeline import InstabilityPipeline, PipelineConfig
from repro.kge.graph import SyntheticKGConfig


@pytest.fixture(scope="module")
def fast_pipeline():
    config = PipelineConfig(
        corpus=SyntheticCorpusConfig(vocab_size=200, n_documents=120, doc_length_mean=50, seed=7),
        algorithms=("svd",),
        dimensions=(6, 12),
        precisions=(1, 2, 4, 32),
        seeds=(0,),
        tasks=("sst2",),
        embedding_epochs=3,
        downstream_epochs=5,
        ner_epochs=3,
    )
    return InstabilityPipeline(config)


@pytest.fixture(scope="module")
def fast_records(fast_pipeline):
    return GridRunner(fast_pipeline).run(with_measures=True)


class TestExperimentPlumbing:
    def test_registry_covers_all_paper_artifacts(self):
        expected = {
            "figure-1-dimension", "figure-1-precision", "figure-2-memory", "figure-3-kge",
            "figures-4-6-sentiment", "figures-7-8-quality", "figure-11-contextual",
            "figure-12-subword", "figure-13-complex-models", "figure-14b-finetune",
            "figure-15-learning-rate", "table-1-correlation", "table-2-selection",
            "table-3-budget", "table-8-hyperparameters", "table-13-randomness",
            "proposition-1",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("figure-99")

    def test_result_container(self, tmp_path):
        result = ExperimentResult(name="demo", rows=[{"a": 1.0}], summary={"ok": True})
        assert len(result) == 1
        assert "demo" in result.to_table()
        result.to_csv(tmp_path / "demo.csv")
        assert (tmp_path / "demo.csv").exists()

    def test_quick_config_and_resolve(self):
        config = quick_pipeline_config(algorithms=("svd",), dimensions=(6,))
        assert config.algorithms == ("svd",)
        pipeline = resolve_pipeline(config)
        assert isinstance(pipeline, InstabilityPipeline)
        assert resolve_pipeline(pipeline) is pipeline


class TestGridBackedExperiments:
    def test_fig1_dimension_rows(self, fast_pipeline):
        result = fig1_dimension.run(fast_pipeline)
        assert {r["dimension"] for r in result.rows} == {6, 12}
        assert all(0.0 <= r["disagreement_pct"] <= 100.0 for r in result.rows)

    def test_fig2_summary_fields(self, fast_records):
        result = fig2_memory.summarize(fast_records)
        for key in ("memory_slope_pct_per_doubling", "dimension_slope_pct_per_doubling",
                    "precision_slope_pct_per_doubling"):
            assert key in result.summary

    def test_table1_rows_cover_all_measures(self, fast_records):
        result = table1_correlation.summarize(fast_records)
        measures = {r["measure"] for r in result.rows}
        assert measures == {"eis", "1-knn", "semantic-displacement", "pip",
                            "1-eigenspace-overlap"}
        assert all(-1.0 <= r["spearman_rho"] <= 1.0 for r in result.rows)

    def test_table2_and_table3(self, fast_records):
        selection = table2_selection.summarize(fast_records)
        budget = table3_budget.summarize(fast_records)
        assert all(0.0 <= r["selection_error"] <= 1.0 for r in selection.rows)
        assert all(r["mean_distance_to_oracle_pct"] >= 0 for r in budget.rows)
        criteria = {r["criterion"] for r in budget.rows}
        assert {"high-precision", "low-precision"} <= criteria

    def test_table13_randomness_sources(self, fast_pipeline):
        result = table13_randomness.run(fast_pipeline, tasks=("sst2",), algorithm="svd", dim=12)
        sources = {r["source"] for r in result.rows}
        assert "embedding-training-data" in sources
        assert "model-initialization-seed" in sources

    def test_fig13_default_dimensions(self, fast_pipeline):
        # Unset, the sweep takes the two smallest served dimensions and the
        # largest: {6, 12} here.
        result = fig13_complex_models.run(
            fast_pipeline, algorithm="svd", precisions=(1,), include_crf=False
        )
        assert [(r["model"], r["dimension"]) for r in result.rows] == [
            ("cnn", 6), ("cnn", 12),
        ]


class TestStandaloneExperiments:
    def test_proposition1_holds(self):
        result = proposition1.run(n_samples=800, seed=1)
        assert result.summary["exact_vs_efficient_abs_diff"] < 1e-9
        assert result.summary["proposition_holds_within_5pct"]

    def test_fig3_kge_small(self):
        config = KGEExperimentConfig(
            graph=SyntheticKGConfig(n_entities=60, n_relations=5, n_triplets=500, seed=0),
            dimensions=(4, 8),
            precisions=(1, 32),
            epochs=10,
        )
        result = fig3_kge.run(config)
        assert len(result.rows) == 4
        assert all(0.0 <= r["unstable_rank_at_10_pct"] <= 100.0 for r in result.rows)
        assert all(np.isfinite(r["mean_rank_full"]) for r in result.rows)
