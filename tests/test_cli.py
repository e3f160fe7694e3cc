"""The command lines: flags, defaults and validation errors, pinned.

``repro-serve``, the experiment runner and ``repro-worker`` are called
in-process with their side effects replaced by recorders: the server
coroutine, the worker, the experiment run, and the process-wide store and
logging configuration.
"""

from __future__ import annotations

import importlib
import inspect
import sys

import pytest

from repro.cluster import worker
from repro.experiments import runner
from repro.experiments.base import ExperimentResult
from repro.serving import api

#: Every store flag, minus ``--store-url`` (it excludes replicas).
REPLICA_ARGV = ["--cache-dir", "/data/cache", "--store-replicas", "http://peer:1,/data/replica"]
URL_ARGV = ["--cache-dir", "/data/cache", "--store-url", "http://peer:1"]

SERVE_DEFAULTS = {
    "access_log": False,
    "cache_dir": None,
    "host": "127.0.0.1",
    "lease_ttl": 60.0,
    "max_concurrency": 4,
    "monitor": False,
    "monitor_cadence": 0.0,
    "monitor_distributed": False,
    "monitor_every": 1,
    "monitor_threshold": None,
    "monitor_webhook": None,
    "port": 8732,
    "port_file": None,
    "quick": False,
    "request_timeout": 300.0,
    "resume_runs": False,
    "store_replicas": None,
    "store_url": None,
    "workers": 0,
}

WORKER_DEFAULTS = {
    "worker_id": None,
    "cache_dir": None,
    "store_replicas": None,
    "poll_interval": 0.5,
    "max_idle": None,
}


def _record(monkeypatch, module_name: str, name: str) -> list[dict]:
    """Replace a function everywhere a loaded ``repro`` module binds it.

    Returns the list the replacement appends each call's arguments to, by
    parameter name, defaults filled in.
    """
    original = getattr(importlib.import_module(module_name), name)
    signature = inspect.signature(original)
    calls: list[dict] = []

    def recorder(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        named = dict(bound.arguments)
        for parameter in signature.parameters.values():
            if parameter.kind is parameter.VAR_KEYWORD:
                named.update(named.pop(parameter.name))
        calls.append(named)

    for module in list(sys.modules.values()):
        module_vars = getattr(module, "__dict__", {})
        if module_vars.get("__name__", "").startswith("repro") and module_vars.get(name) is original:
            monkeypatch.setattr(module, name, recorder)
    return calls


@pytest.fixture
def calls(monkeypatch):
    """Recorders for every side effect the three command lines have."""
    recorded = {
        "store": _record(monkeypatch, "repro.engine.store", "configure_default_store"),
        "serve": [],
        "worker": [],
        "experiments": [],
    }
    _record(monkeypatch, "repro.utils.logging", "configure_logging")

    async def serve(args):
        recorded["serve"].append(dict(vars(args)))
        return 0

    class Worker:
        worker_id = "w"

        def __init__(self, coordinator, **kwargs):
            recorded["worker"].append({"coordinator": coordinator, **kwargs})

        def run(self):
            pass

    def run_experiment(name, *args, **kwargs):
        recorded["experiments"].append((name, args, kwargs))
        return ExperimentResult(name, [{"x": 1}])

    monkeypatch.setattr(api, "_serve", serve)
    monkeypatch.setattr(worker, "ClusterWorker", Worker)
    monkeypatch.setattr(runner, "run_experiment", run_experiment)
    return recorded


@pytest.mark.parametrize(
    "argv, parsed",
    [
        ([], {}),
        (
            REPLICA_ARGV,
            {"cache_dir": "/data/cache", "store_replicas": "http://peer:1,/data/replica"},
        ),
        (URL_ARGV, {"cache_dir": "/data/cache", "store_url": "http://peer:1"}),
    ],
    ids=["defaults", "replicas", "url"],
)
def test_serve_parses_its_flags(calls, argv, parsed):
    assert api.main(argv) == 0
    assert calls["serve"] == [{**SERVE_DEFAULTS, **parsed}]


def test_serve_configures_the_store_it_serves_from(calls):
    # The service's pipeline takes the process-wide default store.
    assert api.main(URL_ARGV) == 0
    assert calls["store"] == [
        {"root": "/data/cache", "remote_url": "http://peer:1", "replicas": None}
    ]


@pytest.mark.parametrize(
    "argv, store",
    [
        ([], []),
        (
            REPLICA_ARGV,
            [{
                "root": "/data/cache", "remote_url": None,
                "replicas": ["http://peer:1", "/data/replica"],
            }],
        ),
        (
            URL_ARGV,
            [{"root": "/data/cache", "remote_url": "http://peer:1", "replicas": None}],
        ),
    ],
    ids=["defaults", "replicas", "url"],
)
def test_runner_configures_the_store_and_policy(calls, tmp_path, argv, store):
    assert runner.main(["figure-2-memory", "--output-dir", str(tmp_path), *argv]) == 0
    assert calls["experiments"] == [("figure-2-memory", (), {"n_workers": 0})]
    assert calls["store"] == store


@pytest.mark.parametrize(
    "argv, changed",
    [
        ([], {}),
        (
            ["--cache-dir", "/data/cache", "--store-replicas", "http://peer:1,/data/replica"],
            {"cache_dir": "/data/cache", "store_replicas": ["http://peer:1", "/data/replica"]},
        ),
    ],
    ids=["defaults", "store"],
)
def test_worker_parses_its_flags(calls, argv, changed):
    assert worker.main(["http://coordinator:8732", *argv]) == 0
    assert calls["worker"] == [
        {"coordinator": "http://coordinator:8732", **WORKER_DEFAULTS, **changed}
    ]
    assert calls["store"] == []


EXCLUSIVE_ERROR = "--store-url and --store-replicas are mutually exclusive"
UNKNOWN_ERROR = "unrecognized arguments: --store-mmap"


@pytest.mark.parametrize(
    "main, argv, message",
    [
        ("serve", ["--store-shards", "2"], "unrecognized arguments: --store-shards 2"),
        ("serve", ["--store-url", "http://a:1", "--store-replicas", "/b"], EXCLUSIVE_ERROR),
        ("serve", ["--store-mmap"], UNKNOWN_ERROR),
        ("serve", ["--monitor-webhook", "http://hook:1"], "--monitor-webhook requires --monitor"),
        # The runner takes the flag's value as its experiment positional.
        ("runner", ["--store-shards", "2"], "unrecognized arguments: --store-shards"),
        ("runner", ["--store-url", "http://a:1", "--store-replicas", "/b"], EXCLUSIVE_ERROR),
        ("runner", ["--store-mmap"], UNKNOWN_ERROR),
        ("serve", ["--run-gc-age", "60"], "unrecognized arguments: --run-gc-age 60"),
        ("serve", ["--worker-ttl", "60"], "unrecognized arguments: --worker-ttl 60"),
        ("serve", ["--kernel-policy", "exact"], "unrecognized arguments: --kernel-policy exact"),
        ("serve", ["--dtype", "float64"], "unrecognized arguments: --dtype float64"),
        ("runner", ["--kernel-policy", "exact"], "unrecognized arguments: --kernel-policy"),
        ("runner", ["--dtype", "float64"], "unrecognized arguments: --dtype"),
        ("serve", ["--trace-sample", "1"], "unrecognized arguments: --trace-sample 1"),
        ("serve", ["--slow-ms", "500"], "unrecognized arguments: --slow-ms 500"),
        ("worker", ["--trace-sample", "1"], "unrecognized arguments: --trace-sample 1"),
        ("worker", ["--slow-ms", "0"], "unrecognized arguments: --slow-ms 0"),
        ("runner", ["--serve"], "unrecognized arguments: --serve"),
        ("runner", ["--host", "0.0.0.0"], "unrecognized arguments: --host"),
        ("runner", ["--port", "1"], "unrecognized arguments: --port"),
        ("runner", ["--resume-runs"], "unrecognized arguments: --resume-runs"),
        ("runner", ["--monitor"], "unrecognized arguments: --monitor"),
        ("runner", ["--monitor-distributed"], "unrecognized arguments: --monitor-distributed"),
        ("worker", ["--backoff-max", "5"], "unrecognized arguments: --backoff-max 5"),
    ],
)
def test_invalid_combination_exits_2(calls, capsys, main, argv, message):
    entry = {
        "serve": api.main,
        "runner": runner.main,
        "worker": lambda argv: worker.main(["http://coordinator:8732", *argv]),
    }[main]
    with pytest.raises(SystemExit) as exit_info:
        entry(argv)
    assert exit_info.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert calls["serve"] == calls["worker"] == calls["store"] == []
