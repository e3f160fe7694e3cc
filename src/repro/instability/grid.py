"""Dimension-precision grid records: the data behind Figures 1-2 and Tables 1-3.

A :class:`GridRecord` is one fully-evaluated grid point: an (algorithm, task,
dimension, precision, seed) combination with its downstream disagreement, the
downstream quality of both models, and (optionally) the values of every
embedding distance measure on the same embedding pair.
:class:`~repro.engine.scheduler.GridEngine` produces them; the analysis,
selection and reporting modules all consume lists of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.memory import bits_per_word

__all__ = ["GridRecord", "records_to_rows", "average_over_seeds"]


@dataclass(frozen=True)
class GridRecord:
    """One evaluated (algorithm, task, dimension, precision, seed) grid point."""

    algorithm: str
    task: str
    dim: int
    precision: int
    seed: int
    disagreement: float
    accuracy_a: float
    accuracy_b: float
    measures: dict[str, float] = field(default_factory=dict)

    @property
    def memory(self) -> int:
        """Bits per word of the compressed embedding."""
        return bits_per_word(self.dim, self.precision)

    @property
    def mean_accuracy(self) -> float:
        return 0.5 * (self.accuracy_a + self.accuracy_b)

    @classmethod
    def from_row(cls, row: dict) -> "GridRecord":
        """Rebuild a record from its :meth:`to_row` dictionary.

        The inverse of :meth:`to_row` up to the derived ``memory`` field (it
        is recomputed from dim and precision).  Records survive a JSON round
        trip bit-identically -- ``json`` serialises floats via ``repr`` -- so
        the cluster's workers can ship records to the coordinator as plain
        rows and the reassembled stream still compares equal to a local run.
        """
        prefix = "measure_"
        return cls(
            algorithm=str(row["algorithm"]),
            task=str(row["task"]),
            dim=int(row["dim"]),
            precision=int(row["precision"]),
            seed=int(row["seed"]),
            disagreement=float(row["disagreement"]),
            accuracy_a=float(row["accuracy_a"]),
            accuracy_b=float(row["accuracy_b"]),
            measures={
                key[len(prefix):]: float(value)
                for key, value in row.items()
                if key.startswith(prefix)
            },
        )

    def to_row(self) -> dict:
        row = {
            "algorithm": self.algorithm,
            "task": self.task,
            "dim": self.dim,
            "precision": self.precision,
            "seed": self.seed,
            "memory": self.memory,
            "disagreement": self.disagreement,
            "accuracy_a": self.accuracy_a,
            "accuracy_b": self.accuracy_b,
        }
        row.update({f"measure_{k}": v for k, v in self.measures.items()})
        return row


def records_to_rows(records: list[GridRecord]) -> list[dict]:
    """Flatten records into plain dictionaries (for CSV/JSON export)."""
    return [r.to_row() for r in records]


def average_over_seeds(records: list[GridRecord]) -> list[GridRecord]:
    """Average disagreement/accuracy/measures over seeds for identical settings."""
    keyed: dict[tuple, list[GridRecord]] = {}
    for rec in records:
        keyed.setdefault((rec.algorithm, rec.task, rec.dim, rec.precision), []).append(rec)
    averaged = []
    for (algorithm, task, dim, precision), group in sorted(keyed.items()):
        measures: dict[str, float] = {}
        for name in group[0].measures:
            measures[name] = float(np.mean([g.measures.get(name, np.nan) for g in group]))
        averaged.append(
            GridRecord(
                algorithm=algorithm,
                task=task,
                dim=dim,
                precision=precision,
                seed=-1,
                disagreement=float(np.mean([g.disagreement for g in group])),
                accuracy_a=float(np.mean([g.accuracy_a for g in group])),
                accuracy_b=float(np.mean([g.accuracy_b for g in group])),
                measures=measures,
            )
        )
    return averaged
