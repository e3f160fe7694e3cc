"""Client side of the cluster: run a grid on a remote coordinator.

:func:`stream_remote_grid` is what :class:`~repro.engine.scheduler.GridEngine`
calls when a coordinator URL is configured: it POSTs the grid axes plus the
pipeline configuration (JSON wire form -- never pickle) to the
coordinator's ``/grid`` endpoint with ``distributed=true``, then yields
:class:`~repro.instability.grid.GridRecord`\\ s parsed from the NDJSON
response as the coordinator's workers complete cells.  The stream arrives in
canonical order, so the caller sees exactly what a local ``run()`` would
produce.

:func:`configure_default_coordinator` is the process-wide switch behind
``experiments.runner --coordinator URL``: every engine constructed afterwards
(so every experiment) executes its grids against the cluster, the same way
``--cache-dir`` configures the default store.
"""

from __future__ import annotations

import http.client
import json
from typing import TYPE_CHECKING, Iterator
from urllib.parse import urlsplit

from repro.cluster.coordinator import config_wire_payload
from repro.telemetry.trace import propagation_headers
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.scheduler import GridPlan
    from repro.instability.grid import GridRecord
    from repro.instability.pipeline import PipelineConfig

logger = get_logger(__name__)

__all__ = [
    "configure_default_coordinator",
    "default_coordinator_url",
    "open_json_connection",
    "stream_remote_grid",
]

_DEFAULT_COORDINATOR: str | None = None


def configure_default_coordinator(url: str | None) -> None:
    """Set (or clear, with ``None``) the process-wide cluster coordinator."""
    global _DEFAULT_COORDINATOR
    _DEFAULT_COORDINATOR = url
    if url:
        logger.info("default cluster coordinator: %s", url)


def default_coordinator_url() -> str | None:
    return _DEFAULT_COORDINATOR


def _split_url(url: str) -> tuple[str, str, int | None, str]:
    if "://" not in url:
        url = f"http://{url}"
    split = urlsplit(url)
    if split.scheme not in ("http", "https"):
        raise ValueError(f"unsupported coordinator scheme {split.scheme!r}")
    if not split.hostname:
        raise ValueError(f"coordinator URL has no host: {url!r}")
    return split.scheme, split.hostname, split.port, split.path.rstrip("/")


def open_json_connection(
    url: str, timeout: float | None = None
) -> tuple[http.client.HTTPConnection, str]:
    """An HTTP(S) connection to a coordinator plus its base path."""
    scheme, host, port, base_path = _split_url(url)
    factory = (
        http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    )
    return factory(host, port, timeout=timeout), base_path


def stream_remote_grid(
    url: str,
    config: "PipelineConfig",
    plan: "GridPlan",
) -> Iterator["GridRecord"]:
    """Execute a grid plan on a remote coordinator, streaming its records.

    A read between NDJSON lines has no timeout: a cold cluster may train
    for a while before the first record lands.  A terminal
    ``{"error": ...}`` line, a mid-stream disconnect, or a non-200 response
    raise ``RuntimeError``/``ConnectionError`` so a silently-truncated grid
    can never be mistaken for a complete one.
    """
    from repro.instability.grid import GridRecord

    body = json.dumps(
        {
            "distributed": True,
            "config": config_wire_payload(config),
            "algorithms": list(plan.algorithms),
            "tasks": list(plan.tasks),
            "dimensions": list(plan.dimensions),
            "precisions": list(plan.precisions),
            "seeds": list(plan.seeds),
            "with_measures": plan.with_measures,
            "model_type": plan.model_type,
        }
    ).encode("utf-8")
    conn, base_path = open_json_connection(url)
    try:
        headers = {"Content-Type": "application/json"}
        headers.update(propagation_headers())
        conn.request("POST", f"{base_path}/grid", body=body, headers=headers)
        response = conn.getresponse()
        if response.status != 200:
            payload = response.read()
            try:
                message = json.loads(payload).get("error", payload.decode("utf-8", "replace"))
            except (ValueError, AttributeError):
                message = payload.decode("utf-8", "replace")
            raise RuntimeError(
                f"coordinator {url} rejected the grid (HTTP {response.status}): {message}"
            )
        expected = plan.n_cells
        received = 0
        # http.client decodes the chunked transfer encoding; each line is one
        # NDJSON record the moment its cell was committed by the coordinator.
        for raw in response:
            line = raw.strip()
            if not line:
                continue
            row = json.loads(line)
            if "error" in row and "algorithm" not in row:
                raise RuntimeError(f"distributed grid failed: {row['error']}")
            received += 1
            yield GridRecord.from_row(row)
        if received != expected:
            raise ConnectionError(
                f"coordinator stream ended early: {received}/{expected} records"
            )
    finally:
        conn.close()
