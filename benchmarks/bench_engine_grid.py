"""Benchmark the grid-execution engine: serial vs parallel, cold vs warm cache.

Runs the small instability grid four ways and reports wall-clock timings plus
speedups over the cold serial baseline (the seed repository's only mode):

1. ``serial / cold``   -- fresh in-memory store, one process;
2. ``serial / warm``   -- rerun against the persisted disk store (asserts zero
   embedding/downstream retrainings);
3. ``parallel / cold`` -- fresh store, ``--workers`` processes (asserts the
   records are bit-identical to the serial run);
4. ``batch-off``       -- serial cold with per-measure (non-batched) measure
   evaluation, quantifying what the shared-decomposition batch saves.  Its
   downstream models train through the engine's own group evaluation
   (``evaluate_group``, one lockstep fit per task and group), so the row
   differs from ``serial / cold`` only in measure batching.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_grid.py --quick
    PYTHONPATH=src python benchmarks/bench_engine_grid.py --workers 4

The script exits non-zero if any equivalence assertion fails, so CI can smoke
it; it is intentionally not a pytest-benchmark file (the harness-level
benchmarks live in the sibling ``bench_*`` files).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
import tempfile
import time
import warnings
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.reporting import format_table  # noqa: E402
from repro.corpus.synthetic import SyntheticCorpusConfig  # noqa: E402
from repro.engine import ArtifactStore, GridEngine  # noqa: E402
from repro.engine import evaluate_group, plan_grid  # noqa: E402
from repro.engine import stats as engine_stats  # noqa: E402
from repro.instability.pipeline import InstabilityPipeline, PipelineConfig  # noqa: E402

from conftest import write_benchmark_results  # noqa: E402


def bench_config(quick: bool) -> PipelineConfig:
    if quick:
        return PipelineConfig(
            corpus=SyntheticCorpusConfig(
                vocab_size=150, n_documents=100, doc_length_mean=40, seed=0
            ),
            algorithms=("svd",),
            dimensions=(6, 12),
            precisions=(1, 4, 32),
            seeds=(0,),
            tasks=("sst2",),
            embedding_epochs=3,
            downstream_epochs=5,
            ner_epochs=3,
        )
    return PipelineConfig(
        corpus=SyntheticCorpusConfig(
            vocab_size=300, n_documents=250, doc_length_mean=70, seed=0
        ),
        algorithms=("cbow", "mc"),
        dimensions=(8, 16, 32),
        precisions=(1, 2, 4, 8, 32),
        seeds=(0,),
        tasks=("sst2", "conll"),
        embedding_epochs=8,
        downstream_epochs=12,
        ner_epochs=10,
    )


def timed_run(engine: GridEngine, **kwargs):
    start = time.perf_counter()
    records = engine.run(with_measures=True, **kwargs)
    return records, time.perf_counter() - start


def run_benchmark(quick: bool, workers: int, cache_dir: str | None):
    config = bench_config(quick)
    rows = []

    # 1. Serial, cold in-memory store: the seed repository's execution mode.
    serial_engine = GridEngine(config, store=ArtifactStore())
    serial_records, serial_time = timed_run(serial_engine)
    rows.append({"mode": "serial / cold", "seconds": round(serial_time, 3), "speedup": 1.0})

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(cache_dir) if cache_dir else Path(tmp)
        # 2a. Populate the disk store (timed separately: includes persistence I/O).
        cold_disk_engine = GridEngine(config, store=ArtifactStore(root))
        disk_records, disk_time = timed_run(cold_disk_engine)
        rows.append(
            {"mode": "serial / cold+persist", "seconds": round(disk_time, 3),
             "speedup": round(serial_time / disk_time, 2)}
        )
        # 2b. Warm rerun from the disk store: a fresh pipeline, zero retraining.
        warm_engine = GridEngine(config, store=ArtifactStore(root))
        warm_records, warm_time = timed_run(warm_engine)
        rows.append(
            {"mode": "serial / warm", "seconds": round(warm_time, 3),
             "speedup": round(serial_time / warm_time, 2)}
        )
        warm_counters = engine_stats(warm_engine)["pipeline"]
        assert warm_counters["embedding_train_count"] == 0, (
            "warm rerun retrained embeddings"
        )
        assert warm_counters["downstream_train_count"] == 0, (
            "warm rerun retrained downstream models"
        )
        assert warm_records == disk_records == serial_records, (
            "warm-cache records diverged from the cold run"
        )

    # 3. Parallel, cold store: must be bit-identical to serial.
    parallel_engine = GridEngine(config, store=ArtifactStore())
    parallel_records, parallel_time = timed_run(parallel_engine, n_workers=workers)
    rows.append(
        {"mode": f"parallel x{workers} / cold", "seconds": round(parallel_time, 3),
         "speedup": round(serial_time / parallel_time, 2)}
    )
    assert parallel_records == serial_records, "parallel records diverged from serial"

    # 4. Serial cold without the shared-decomposition measure batch, for
    #    comparison with the engine's batched measure path.  Downstream
    #    training goes through the same group evaluation as run() does.
    unbatched_pipeline = InstabilityPipeline(config, store=ArtifactStore())
    start = time.perf_counter()
    for group in plan_grid(config, with_measures=True).groups:
        for precision in group.precisions:
            emb_a, emb_b = unbatched_pipeline.compressed_pair(
                group.algorithm, group.dim, precision, group.seed
            )
            suite = unbatched_pipeline.measure_suite(group.algorithm, group.seed)
            for measure in suite.values():
                measure.compute_embeddings(emb_a, emb_b, top_k=config.measure_top_k)
        evaluate_group(unbatched_pipeline, replace(group, with_measures=False))
    unbatched_time = time.perf_counter() - start
    rows.append(
        {"mode": "serial / batch off", "seconds": round(unbatched_time, 3),
         "speedup": round(serial_time / unbatched_time, 2)}
    )

    summary = {
        "grid_cells": len(serial_records),
        "warm_cache_speedup": round(serial_time / warm_time, 2),
        "parallel_speedup": round(serial_time / parallel_time, 2),
        "measure_batch_speedup": round(unbatched_time / serial_time, 2),
        "workers": workers,
        "warm_counters": warm_counters,
        "parallel_warmup": engine_stats(parallel_engine)["warmup"],
    }
    return rows, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny grid (CI smoke)")
    parser.add_argument("--workers", type=int, default=2, help="parallel fan-out")
    parser.add_argument("--cache-dir", default=None, help="reuse a persistent store")
    parser.add_argument("--output", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    with warnings.catch_warnings():
        # The small benchmark vocabularies always trip the top-k no-op warning.
        warnings.simplefilter("ignore", UserWarning)
        rows, summary = run_benchmark(args.quick, args.workers, args.cache_dir)

    print(format_table(rows, title="engine grid execution"))
    print("summary:", summary)
    results = write_benchmark_results(
        "engine", summary=summary, rows=rows, output=args.output
    )
    print(f"results -> {results}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
