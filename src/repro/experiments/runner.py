"""Experiment registry and a small command-line runner.

``python -m repro.experiments.runner figure-2-memory`` runs one experiment
with quick settings and prints its table; ``--all`` runs the full suite and
writes one CSV per experiment under ``results/``.  ``--serve`` boots the
online stability-query service instead (see :mod:`repro.serving.api`),
handing it ``--workers`` and the store and kernel flags of
:mod:`repro.options`.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import Callable

from repro import experiments, options
from repro.experiments.base import ExperimentResult
from repro.utils.io import save_json
from repro.utils.logging import configure_logging

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

#: Registry: experiment name -> zero/one-argument callable returning an ExperimentResult.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "figure-1-dimension": experiments.fig1_dimension.run,
    "figure-1-precision": experiments.fig1_precision.run,
    "figure-2-memory": experiments.fig2_memory.run,
    "figure-3-kge": experiments.fig3_kge.run,
    "figures-4-6-sentiment": experiments.fig4_6_sentiment.run,
    "figures-7-8-quality": experiments.fig7_8_quality.run,
    "figure-11-contextual": experiments.fig11_contextual.run,
    "figure-12-subword": experiments.fig12_subword.run,
    "figure-13-complex-models": experiments.fig13_complex_models.run,
    "figure-14b-finetune": experiments.fig14_finetune.run,
    "figure-15-learning-rate": experiments.fig15_learning_rate.run,
    "table-1-correlation": experiments.table1_correlation.run,
    "table-2-selection": experiments.table2_selection.run,
    "table-3-budget": experiments.table3_budget.run,
    "table-8-hyperparameters": experiments.table8_hyperparams.run,
    "table-13-randomness": experiments.table13_randomness.run,
    "proposition-1": experiments.proposition1.run,
}


#: Engine-wide settings the CLI applies to every experiment; experiments that
#: don't sweep the grid (and so don't accept them) get them dropped.  All
#: other unknown kwargs still raise ``TypeError`` as usual.
_OPTIONAL_ENGINE_KWARGS = frozenset({"n_workers"})


def run_experiment(name: str, *args, **kwargs) -> ExperimentResult:
    """Run a registered experiment by name."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    func = EXPERIMENTS[name]
    accepted = set(inspect.signature(func).parameters)
    passed = {
        k: v for k, v in kwargs.items()
        if k in accepted or k not in _OPTIONAL_ENGINE_KWARGS
    }
    return func(*args, **passed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run reproduction experiments")
    parser.add_argument("experiment", nargs="?", help="experiment name (see --list)")
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--output-dir", default="results", help="directory for CSV/JSON output")
    parser.add_argument(
        "--workers", type=int, default=0,
        help="process fan-out for grid sweeps (0 = serial)",
    )
    options.add_options(parser)
    parser.add_argument(
        "--coordinator", default=None,
        help="cluster coordinator base URL (a repro-serve instance); grid "
             "sweeps are executed by its repro-worker fleet instead of "
             "locally, streaming back bit-identical records",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="boot the stability-query HTTP service instead of running experiments",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address for --serve")
    parser.add_argument("--port", type=int, default=8732, help="port for --serve (0 = ephemeral)")
    parser.add_argument(
        "--resume-runs", action="store_true",
        help="with --serve: rebuild cluster runs from store checkpoints at boot",
    )
    parser.add_argument(
        "--monitor", action="store_true",
        help="with --serve: enable the online instability monitor "
             "(/monitor/ingest, /monitor/status, /monitor/events)",
    )
    parser.add_argument(
        "--monitor-distributed", action="store_true",
        help="with --serve: lease monitor retrains to the repro-worker fleet "
             "(implies --monitor)",
    )
    args = parser.parse_args(argv)
    options.check(parser, args)

    configure_logging()
    if args.list:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    if args.serve:
        from repro.serving.api import main as serve_main

        serve_argv = ["--host", args.host, "--port", str(args.port),
                      "--workers", str(args.workers), *options.forward(args)]
        if args.resume_runs:
            serve_argv += ["--resume-runs"]
        if args.monitor:
            serve_argv += ["--monitor"]
        if args.monitor_distributed:
            serve_argv += ["--monitor-distributed"]
        return serve_main(serve_argv)

    names = sorted(EXPERIMENTS) if args.all else ([args.experiment] if args.experiment else [])
    if not names:
        parser.print_help()
        return 1

    options.configure(args)
    if args.coordinator is not None:
        from repro.cluster import configure_default_coordinator

        configure_default_coordinator(args.coordinator)

    out_dir = Path(args.output_dir)
    for name in names:
        result = run_experiment(name, n_workers=args.workers)
        print(result.to_table())
        print()
        result.to_csv(out_dir / f"{name}.csv")
        save_json(result.summary, out_dir / f"{name}.summary.json")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
