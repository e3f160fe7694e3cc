"""The grid-execution engine: artifact store, scheduler, and parallel fan-out.

The engine is the execution substrate of the reproduction: a
content-addressed :class:`~repro.engine.store.ArtifactStore` keyed by
configuration hashes (so repeated cells, experiments and runs reuse trained
artifacts), and a :class:`~repro.engine.scheduler.GridEngine` that orders
grid cells by shared ancestry and fans independent cell groups out over
processes with a bit-identical serial fallback.
"""

from repro.engine.backends import (
    CircuitOpenError,
    DiskBackend,
    MemoryBackend,
    RemoteBackend,
    ReplicatedBackend,
    StoreBackend,
    TierStats,
    payload_intact,
)
from repro.engine.faults import FaultyBackend
from repro.engine.store import (
    ArtifactStore,
    CacheStats,
    config_hash,
    configure_default_store,
    default_store,
)
from repro.engine.scheduler import (
    CellGroup,
    GridEngine,
    GridPlan,
    evaluate_group,
    plan_grid,
    plan_groups,
)
from repro.engine.stats import stats
from repro.engine.streaming import OrderedCommitter, canonical_cell_keys, commit_in_order

__all__ = [
    "ArtifactStore",
    "CacheStats",
    "CellGroup",
    "CircuitOpenError",
    "DiskBackend",
    "FaultyBackend",
    "GridEngine",
    "GridPlan",
    "MemoryBackend",
    "OrderedCommitter",
    "RemoteBackend",
    "ReplicatedBackend",
    "StoreBackend",
    "TierStats",
    "canonical_cell_keys",
    "commit_in_order",
    "config_hash",
    "configure_default_store",
    "default_store",
    "evaluate_group",
    "payload_intact",
    "plan_grid",
    "plan_groups",
    "stats",
]
