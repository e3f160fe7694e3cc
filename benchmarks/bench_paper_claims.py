"""Tables 1 and 2 on five seed settings: the paper's top-two claim, gated on their mean.

The paper finds that the eigenspace instability measure (EIS) and the k-NN
measure are the two distance measures that best predict downstream
instability: the highest mean Spearman rho with prediction disagreement
(Table 1) and the lowest pairwise selection error (Table 2).  On this
scaled-down grid that ranking holds on the mean over seed settings but not
on every single one, so it is asserted on the mean over five (corpus seed,
grid seed) settings.  Per setting, only what held on all five when the
baseline was taken is asserted: EIS and 1-kNN each beat semantic
displacement and PIP loss in both tables.

Each setting's per-measure means are compared with
``baselines/paper_claims.json`` and every value that moved is printed; all
of them are written to ``BENCH_paper_claims.json``.  A change that moves
records on purpose re-baselines by copying that file's ``rows`` into the
baseline.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
from conftest import benchmark_pipeline_config, write_benchmark_results

from repro.engine.scheduler import GridEngine
from repro.experiments import table1_correlation, table2_selection
from repro.instability.pipeline import InstabilityPipeline

#: (corpus seed, grid seed); (0, 0) is the session ``grid_records`` fixture.
SETTINGS = ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0))
BASELINE = Path(__file__).resolve().parent / "baselines" / "paper_claims.json"
TOP_TWO = {"eis", "1-knn"}
BEATEN = ("semantic-displacement", "pip")


def _records(corpus_seed: int, grid_seed: int):
    config = benchmark_pipeline_config()
    config = dataclasses.replace(
        config, corpus=dataclasses.replace(config.corpus, seed=corpus_seed), seeds=(grid_seed,)
    )
    return GridEngine(InstabilityPipeline(config)).run(with_measures=True)


def _summary(corpus_seed: int, grid_seed: int, records) -> dict:
    table1 = table1_correlation.summarize(records).summary
    table2 = table2_selection.summarize(records).summary
    return {
        "corpus_seed": corpus_seed,
        "grid_seed": grid_seed,
        "mean_rho_by_measure": table1["mean_rho_by_measure"],
        "mean_selection_error_by_measure": table2["mean_selection_error_by_measure"],
    }


def _mean(rows: list[dict], table: str) -> dict[str, float]:
    return {m: float(np.mean([row[table][m] for row in rows])) for m in rows[0][table]}


def _moved(rows: list[dict]) -> list[str]:
    """One line per per-setting value that differs from the baseline."""
    baseline = {
        (row["corpus_seed"], row["grid_seed"]): row
        for row in json.loads(BASELINE.read_text())["rows"]
    }
    lines = []
    for row in rows:
        setting = (row["corpus_seed"], row["grid_seed"])
        old = baseline.get(setting)
        if old is None:
            lines.append(f"{setting}: not in the baseline")
            continue
        for table in ("mean_rho_by_measure", "mean_selection_error_by_measure"):
            for measure, value in row[table].items():
                before = old[table].get(measure)
                if before != value:
                    lines.append(f"{setting} {table}[{measure}]: {before} -> {value}")
    return lines


def test_paper_claims_on_the_seed_mean(grid_records):
    rows = [
        _summary(c, g, grid_records if (c, g) == (0, 0) else _records(c, g))
        for c, g in SETTINGS
    ]
    mean_rho = _mean(rows, "mean_rho_by_measure")
    mean_error = _mean(rows, "mean_selection_error_by_measure")
    moved = _moved(rows)
    write_benchmark_results(
        "paper_claims",
        summary={"mean_rho_by_measure": mean_rho, "mean_selection_error_by_measure": mean_error,
                 "moved_from_baseline": moved},
        rows=rows,
    )
    print()
    print("mean rho over the settings:", mean_rho)
    print("mean selection error over the settings:", mean_error)
    print(f"{len(moved)} per-setting values moved from {BASELINE.name}")
    for line in moved:
        print("  moved:", line)

    # Tables 1 and 2 on the seed mean: EIS and 1-kNN are the top two.
    assert set(sorted(mean_rho, key=lambda m: -mean_rho[m])[:2]) == TOP_TWO
    assert set(sorted(mean_error, key=lambda m: mean_error[m])[:2]) == TOP_TWO
    # Per setting: EIS and 1-kNN each beat SD and PIP in both tables.
    for row in rows:
        rho, error = row["mean_rho_by_measure"], row["mean_selection_error_by_measure"]
        for good in TOP_TWO:
            for bad in BEATEN:
                setting = (row["corpus_seed"], row["grid_seed"])
                assert rho[good] > rho[bad], (setting, good, bad, rho)
                assert error[good] < error[bad], (setting, good, bad, error)
