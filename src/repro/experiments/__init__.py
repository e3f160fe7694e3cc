"""Experiment harness: one module per table/figure of the paper.

Every experiment module exposes a ``run(...)`` function that takes an
:class:`~repro.instability.pipeline.InstabilityPipeline` (or builds one from a
:class:`~repro.instability.pipeline.PipelineConfig`) and returns an
:class:`ExperimentResult` whose rows mirror the rows/series of the paper's
table or figure.  The benchmark files under ``benchmarks/`` are thin wrappers
that time these functions and print the resulting tables.
"""

from repro.experiments.base import (
    ExperimentResult,
    quick_pipeline_config,
    resolve_engine,
    resolve_pipeline,
)
from repro.experiments import (
    fig1_dimension,
    fig1_precision,
    fig2_memory,
    fig3_kge,
    fig4_6_sentiment,
    fig7_8_quality,
    fig11_contextual,
    fig12_subword,
    fig13_complex_models,
    fig14_finetune,
    fig15_learning_rate,
    proposition1,
    table1_correlation,
    table2_selection,
    table3_budget,
    table8_hyperparams,
    table13_randomness,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "fig1_dimension",
    "fig1_precision",
    "fig2_memory",
    "fig3_kge",
    "fig4_6_sentiment",
    "fig7_8_quality",
    "fig11_contextual",
    "fig12_subword",
    "fig13_complex_models",
    "fig14_finetune",
    "fig15_learning_rate",
    "proposition1",
    "quick_pipeline_config",
    "resolve_engine",
    "resolve_pipeline",
    "run_experiment",
    "table1_correlation",
    "table2_selection",
    "table3_budget",
    "table8_hyperparams",
    "table13_randomness",
]


def __getattr__(name: str):
    # Lazy: ``repro.experiments.runner`` is also the ``python -m`` entry
    # point, and runpy executes it a second time if this package imported it.
    if name in ("EXPERIMENTS", "run_experiment"):
        from repro.experiments import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
