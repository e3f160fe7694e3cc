"""Streaming result path of the grid engine: per-cell records as they finish.

The batch scheduler evaluates :class:`~repro.engine.scheduler.CellGroup`\\ s,
collects every group's records, and reassembles them at the end.  Streaming
callers -- the serving layer's ``/grid`` endpoint, progress displays, anything
that wants to act on a cell before the whole grid is done -- instead consume
:meth:`GridEngine.run_iter`, which yields :class:`~repro.instability.grid.GridRecord`\\ s
as workers complete them.

Every stream is committed in order: an :class:`OrderedCommitter` buffers
out-of-order completions and releases records in the canonical axis-product
order, so the stream is *bit-identical* to the serial batch result regardless
of worker scheduling.  The batch :meth:`GridEngine.run` is a thin
``list(run_iter())`` wrapper.

The committer is deliberately tiny and synchronous -- it is shared by the
multiprocessing path (which feeds it group results from
``imap_unordered``) and by the serving layer's tests, which drive it with
synthetic arrival orders.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instability.grid import GridRecord

__all__ = ["CellKey", "OrderedCommitter", "canonical_cell_keys", "cell_key", "commit_in_order"]

#: Identity of one grid cell: (algorithm, dim, precision, seed, task).
CellKey = tuple[str, int, int, int, str]


def cell_key(record: "GridRecord") -> CellKey:
    """The (algorithm, dim, precision, seed, task) identity of a record."""
    return (record.algorithm, record.dim, record.precision, record.seed, record.task)


def canonical_cell_keys(
    algorithms: tuple[str, ...],
    dimensions: tuple[int, ...],
    precisions: tuple[int, ...],
    seeds: tuple[int, ...],
    tasks: tuple[str, ...],
) -> list[CellKey]:
    """Every cell key of a grid in the canonical axis-product order.

    This is the order the batch path has always returned (and tests pin):
    algorithms x dimensions x precisions x seeds, with tasks innermost.
    """
    return [
        (algorithm, dim, precision, seed, task)
        for algorithm, dim, precision, seed in itertools.product(
            algorithms, dimensions, precisions, seeds
        )
        for task in tasks
    ]


class OrderedCommitter:
    """Re-sequences out-of-order cell completions into canonical order.

    Feed it records in *any* arrival order via :meth:`push`; it yields every
    record exactly once, in the order of the ``keys`` it was built with.  A
    record whose turn has not come yet is buffered; pushing a key outside the
    expected grid raises immediately (it would otherwise be silently dropped),
    and :meth:`finish` raises if the stream ended with cells still missing.
    """

    def __init__(self, keys: Iterable[CellKey]) -> None:
        self._keys = list(keys)
        self._index = {key: i for i, key in enumerate(self._keys)}
        if len(self._index) != len(self._keys):
            raise ValueError("duplicate cell keys in the canonical order")
        self._pending: dict[CellKey, "GridRecord"] = {}
        self._cursor = 0

    @property
    def committed(self) -> int:
        """How many records have been released so far."""
        return self._cursor

    @property
    def buffered(self) -> int:
        """How many records arrived early and are waiting for their turn."""
        return len(self._pending)

    @property
    def remaining(self) -> int:
        """How many expected cells have not been released yet (buffered or absent)."""
        return len(self._keys) - self._cursor

    def push(self, record: "GridRecord") -> Iterator["GridRecord"]:
        """Accept one record; yield it plus any buffered successors now due."""
        key = cell_key(record)
        position = self._index.get(key)
        if position is None:
            raise KeyError(f"unexpected grid cell {key!r} pushed to the committer")
        if key in self._pending or position < self._cursor:
            raise ValueError(f"grid cell {key!r} was pushed twice")
        self._pending[key] = record
        while self._cursor < len(self._keys):
            due = self._pending.pop(self._keys[self._cursor], None)
            if due is None:
                break
            self._cursor += 1
            yield due

    def finish(self) -> None:
        """Assert every expected cell was committed (call after the stream ends)."""
        if self._cursor != len(self._keys):
            missing = [k for k in self._keys[self._cursor:] if k not in self._pending]
            raise RuntimeError(
                f"grid stream ended with {len(self._keys) - self._cursor} cells "
                f"uncommitted; missing {missing[:5]}{'...' if len(missing) > 5 else ''}"
            )


def commit_in_order(
    batches: Iterable[list["GridRecord"]], keys: Iterable[CellKey]
) -> Iterator["GridRecord"]:
    """Stream record batches through an :class:`OrderedCommitter`.

    ``batches`` is an iterable of per-group record lists in arrival order
    (e.g. ``imap_unordered`` output); the yielded stream is in canonical
    order and complete, or the committer raises.
    """
    committer = OrderedCommitter(keys)
    for batch in batches:
        for record in batch:
            yield from committer.push(record)
    committer.finish()
