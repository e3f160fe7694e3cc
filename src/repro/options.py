"""The store command-line options, declared once for every entry point.

``repro-serve``, the experiment runner and ``repro-worker`` take the same
flags for the artifact store (``--cache-dir``, ``--store-url``,
``--store-replicas``).  Each flag, the rule on how they combine, and the
process-wide store they configure are defined here; ``repro-worker`` takes
only the two that apply to its per-run stores.  The runner's ``--serve``
hands the same flags on to ``repro-serve`` through :func:`forward`.
"""

from __future__ import annotations

import argparse

from repro.engine.store import configure_default_store

__all__ = ["add_options", "check", "configure", "forward", "store_replicas"]

#: Flag -> its ``add_argument`` keywords, in the order :func:`forward` emits them.
_OPTIONS: dict[str, dict] = {
    "--cache-dir": dict(
        default=None,
        help="disk-backed artifact store tier; reruns and restarts reuse its "
             "artifacts instead of retraining",
    ),
    "--store-url": dict(
        default=None,
        help="peer repro-serve base URL used as a remote artifact-store tier "
             "(local misses are fetched from the peer's /artifacts API)",
    ),
    "--store-replicas": dict(
        default=None,
        help="comma-separated replica targets (peer URLs and/or directories) "
             "used as one N-way replicated store tier with read-repair and "
             "hinted handoff; mutually exclusive with --store-url (on "
             "repro-worker it replaces the coordinator tier)",
    ),
}


def add_options(
    parser: argparse.ArgumentParser, flags: tuple[str, ...] = tuple(_OPTIONS)
) -> None:
    """Declare ``flags`` (default: all three) on ``parser``."""
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])


def check(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Exit with status 2 when the store flags do not describe one store."""
    if args.store_url and args.store_replicas:
        parser.error("--store-url and --store-replicas are mutually exclusive")


def store_replicas(args: argparse.Namespace) -> list[str] | None:
    """The ``--store-replicas`` targets, or None when there are none."""
    return [entry for entry in (args.store_replicas or "").split(",") if entry] or None


def configure(args: argparse.Namespace) -> None:
    """Make the parsed flags the process-wide store default.

    Every pipeline built afterwards without an explicit store uses this
    store construction; flags left unset leave the defaults alone.
    """
    replicas = store_replicas(args)
    if args.cache_dir or args.store_url or replicas:
        configure_default_store(args.cache_dir, remote_url=args.store_url, replicas=replicas)


def forward(args: argparse.Namespace) -> list[str]:
    """The argv that sets the same flags on another entry point."""
    argv: list[str] = []
    for flag in _OPTIONS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            argv += [flag, str(value)]
    return argv
