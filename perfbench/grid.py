"""grid-cold: serial cold grids on fresh disk stores, run in a child process.

:func:`run` starts ``python3 -m perfbench.grid`` so the grid runs in a
process of its own, with the hash seed pinned and none of run.py's
state in its memory; the child prints one JSON line of samples.  Every
repetition builds its engine on a fresh disk store, so every cell trains
and every artifact goes through the codecs and the durable writes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

from perfbench import stats
from perfbench.common import ROOT, Context, Run, Tally
from perfbench.machine import peak_rss_mb

#: Nominal seconds of one repetition on a 2-core machine.  ``--seconds``
#: divided by this, rounded, is the repetition count (at least one): the
#: work is fixed by the arguments, never by how fast the machine runs.
NOMINAL_REPETITION_S = 30.0
#: Back-to-back engine constructions whose median is ``setup_s``.
SETUP_REPETITIONS = 31


def grid_config(seed: int):
    """The full grid of ``benchmarks/bench_engine_grid.py``, ``seed`` its seeds axis.

    cbow+mc x dims 8/16/32 x precisions 1/2/4/8/32 x sst2+conll: 60 cells.
    """
    from repro.corpus.synthetic import SyntheticCorpusConfig
    from repro.instability.pipeline import PipelineConfig

    return PipelineConfig(
        corpus=SyntheticCorpusConfig(
            vocab_size=300, n_documents=250, doc_length_mean=70, seed=0
        ),
        algorithms=("cbow", "mc"),
        dimensions=(8, 16, 32),
        precisions=(1, 2, 4, 8, 32),
        seeds=(seed,),
        tasks=("sst2", "conll"),
        embedding_epochs=8,
        downstream_epochs=12,
        ner_epochs=10,
    )


def run(
    seed: int, seconds: float, *, trace: bool, setup_repetitions: int, ctx: Context
) -> Run:
    """Run grid-cold in a child process and collect its samples."""
    # A directory of its own per call: a traced run after an untraced one
    # must not find the first run's stores warm.
    workdir = Path(tempfile.mkdtemp(prefix="grid-", dir=ctx.workdir))
    command = [
        sys.executable, "-m", "perfbench.grid",
        "--seed", str(seed % 1_000_000),
        "--repetitions", str(max(1, round(seconds / NOMINAL_REPETITION_S))),
        "--setup-repetitions", str(setup_repetitions),
        "--workdir", str(workdir),
    ]
    if trace:
        command.append("--trace")
    with open(workdir.with_suffix(".log"), "wb") as log:
        child = subprocess.run(
            command, cwd=ROOT, env=ctx.env, stdout=subprocess.PIPE, stderr=log,
            timeout=ctx.deadline.remaining(),
        )
    if child.returncode != 0:
        raise RuntimeError(f"grid-cold child exited with status {child.returncode}")
    sample = json.loads(child.stdout.decode().splitlines()[-1])
    return Run(
        operation="record (time from grid start)",
        setup=sample["setup"],
        latencies=sample["latencies"],
        operations=len(sample["latencies"]),
        busy=sample["walls"],
        peak_rss_mb=sample["peak_rss_mb"],
        tally=Tally(sample["attempted"], sample["failed"], sample["reasons"]),
        layers=sample["layers"],
        attribution=sample["attribution"],
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="grid-cold child of perfbench/run.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repetitions", type=int, required=True)
    parser.add_argument("--setup-repetitions", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    # The grid's small vocabularies always trip the measure top-k warning.
    warnings.simplefilter("ignore", UserWarning)

    from repro.engine import ArtifactStore, GridEngine

    recorder = None
    if args.trace:
        from perfbench.layers import LayerRecorder, install, layer_metrics

        recorder = LayerRecorder()
        install(recorder)

    config = grid_config(args.seed)
    setup, engines = [], []
    for index in range(max(args.setup_repetitions, args.repetitions)):
        start = time.perf_counter()
        engine = GridEngine(config, store=ArtifactStore(args.workdir / f"store-{index}"))
        setup.append((start, time.perf_counter()))
        if index < args.repetitions:
            engines.append(engine)

    tally = Tally()
    reference: list[str] = []
    # Wall-clock intervals; the parent measures them against the speed probe.
    latencies, walls = [], []
    mark = recorder.mark() if recorder else None
    while engines:
        engine = engines.pop(0)
        rows = []
        start = time.perf_counter()
        # run() is list(run_iter()): the same work, each record timed on arrival.
        for record in engine.run_iter(with_measures=True):
            latencies.append((start, time.perf_counter()))
            rows.append(_row(record))
        walls.append((start, time.perf_counter()))
        reference = reference or rows
        _compare(rows, reference, tally)
    store = engine.pipeline.store
    result = {
        "setup": setup,
        "latencies": latencies,
        "walls": walls,
        "peak_rss_mb": peak_rss_mb(),
        "layers": {},
        "attribution": {},
    }
    if recorder is not None:
        window = recorder.report(mark)
        metrics = layer_metrics(window, recorder.report())
        wall = sum(end - start for start, end in walls)
        metrics["engine.self_s"] = stats.self_time(wall, window["covered_s"])
        hits = sum(counter.hits for counter in store.stats.values())
        lookups = sum(counter.lookups for counter in store.stats.values())
        metrics["store.hit_ratio"] = hits / lookups if lookups else 0.0
        metrics["store.bytes_in_memory"] = store.bytes_in_memory()
        result["layers"] = metrics
        result["attribution"] = {
            "(models.bilstm_fit_s + models.bow_fit_s) / grid wall time":
                (metrics["models.bilstm_fit_s"] + metrics["models.bow_fit_s"]) / wall,
        }

    # Untimed: a warm rerun from the last repetition's disk store must
    # repeat every record and train nothing -- the write path round-trips.
    warm = GridEngine(config, store=ArtifactStore(store.root))
    _compare([_row(record) for record in warm.run(with_measures=True)], reference, tally)
    retrained = warm.pipeline.embedding_train_count + warm.pipeline.downstream_train_count
    tally.record(None if retrained == 0 else "warm rerun retrained")
    result.update(attempted=tally.attempted, failed=tally.failed, reasons=dict(tally.reasons))
    print(json.dumps(result))
    return 0


def _row(record) -> str:
    # json writes floats with repr, so equal rows mean bit-identical records.
    return json.dumps(record.to_row(), sort_keys=True)


def _compare(rows: list[str], reference: list[str], tally: Tally) -> None:
    """One operation per cell: its record must repeat the reference exactly."""
    for index in range(max(len(rows), len(reference))):
        same = index < min(len(rows), len(reference)) and rows[index] == reference[index]
        tally.record(None if same else "record differs from the first repetition")


if __name__ == "__main__":
    sys.exit(main())
