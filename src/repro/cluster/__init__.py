"""Distributed grid execution: a coordinator + pull-based worker fleet.

The cluster subsystem scales the grid-execution engine past one host.  A
**coordinator** (:mod:`repro.cluster.coordinator`, mounted by ``repro-serve``
as the ``/cluster/*`` endpoints) decomposes grids into the scheduler's
ancestry-aware cell groups and hands them out as heartbeat-renewed leases;
**workers** (:mod:`repro.cluster.worker`, the ``repro-worker`` entrypoint)
pull leases over stdlib HTTP, execute them through warm local pipelines whose
artifact stores mount the coordinator as a remote tier, and push records
back.  Completed records flow through the engine's ordered committer, so a
distributed run is bit-identical to the serial path and streams over the
``/grid`` NDJSON endpoint; because every artifact is content-addressed, warm
reruns train nothing anywhere in the cluster.

Clients opt in per engine (``GridEngine(coordinator_url=...)``) or process
wide (:func:`configure_default_coordinator`, the ``--coordinator`` flag of
``experiments.runner``).
"""

from repro.cluster.client import (
    configure_default_coordinator,
    default_coordinator_url,
    stream_remote_grid,
)
from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterRunFailed,
    config_wire_payload,
    group_from_wire,
    group_wire_payload,
    plan_from_wire,
    plan_wire_payload,
)

__all__ = [
    "ClusterCoordinator",
    "ClusterRunFailed",
    "ClusterWorker",
    "CoordinatorClient",
    "config_wire_payload",
    "configure_default_coordinator",
    "default_coordinator_url",
    "group_from_wire",
    "group_wire_payload",
    "plan_from_wire",
    "plan_wire_payload",
    "stream_remote_grid",
]


def __getattr__(name: str):
    # Lazy: ``repro.cluster.worker`` is also the ``python -m`` entry point,
    # and runpy executes it a second time if this package imported it.
    if name in ("ClusterWorker", "CoordinatorClient"):
        from repro.cluster import worker

        return getattr(worker, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
