"""The package surface and the boot: what a fresh interpreter sees and loads.

Every check runs in a new interpreter, because what an import loads, and
which names a lazy package has resolved so far, depend on everything the
process imported before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Subpackages a bare ``import repro`` has always made reachable.
SUBPACKAGES = (
    "analysis", "compression", "corpus", "embeddings", "engine", "instability",
    "linalg", "measures", "models", "nn", "tasks", "telemetry", "utils",
)

#: Modules only the experiment tables need; booting a server, a worker or
#: an engine must not pay for them.
ANALYSIS_STACK = ("scipy.stats", "repro.analysis", "repro.experiments")

_CHECK_SURFACE = """
import importlib, json, sys, types

name, subpackages = sys.argv[1], json.loads(sys.argv[2])
homes = {"EXPERIMENTS": "repro.experiments.runner"}  # exported values with no __module__
package = importlib.import_module(name)
problems = []
listed = dir(package)
problems += [f"dir() lacks {attr}" for attr in package.__all__ if attr not in listed]
try:
    getattr(package, "no_such_name")
    problems.append("an unknown name resolved")
except AttributeError:
    pass
# Importing one subpackage binds others on the package as a side effect, so
# a lazy package's own PEP 562 hook is asked for each name.
lookup = vars(package).get("__getattr__", lambda sub: getattr(package, sub, None))
for sub in subpackages:
    module = lookup(sub)
    if not isinstance(module, types.ModuleType) or module.__name__ != f"{name}.{sub}":
        problems.append(f"{name}.{sub} is not its subpackage")
for attr in package.__all__:
    value = getattr(package, attr)
    scope = {}
    exec(f"from {name} import {attr}", scope)
    if scope[attr] is not value:
        problems.append(f"from-import of {attr} differs from getattr")
    if isinstance(value, types.ModuleType):
        home_value = sys.modules[value.__name__]
    elif isinstance(value, (type, types.FunctionType)):
        home_value = getattr(sys.modules[value.__module__], attr)
    elif attr in homes:
        home_value = getattr(importlib.import_module(homes[attr]), attr)
    else:
        continue
    if home_value is not value:
        problems.append(f"{attr} is not the object its home module defines")
scope = {}
exec(f"from {name} import *", scope)
problems += [f"star import lacks {attr}" for attr in package.__all__ if attr not in scope]
print(json.dumps(problems))
"""


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize(
    "package, subpackages",
    [("repro", SUBPACKAGES), ("repro.cluster", ()), ("repro.experiments", ())],
)
def test_every_exported_name_resolves(package, subpackages):
    result = run_python("-c", _CHECK_SURFACE, package, json.dumps(subpackages))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_bare_import_loads_nothing():
    result = run_python(
        "-c",
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.startswith(('repro.', 'numpy'))))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("entry", ["repro.serving.api", "repro.cluster.worker", "repro.engine"])
def test_boot_skips_the_analysis_stack(entry):
    result = run_python(
        "-c",
        f"import sys, {entry}; "
        f"print([m for m in {ANALYSIS_STACK!r} if m in sys.modules])",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "repro.cluster.worker", "--help"],
        ["-m", "repro.experiments.runner", "--list"],
        ["-m", "repro.serving.api", "--help"],
    ],
)
def test_entry_point_module_runs_once(argv):
    # runpy warns -- an error here -- when a package __init__ already
    # imported the module it is about to run as __main__.
    result = run_python("-W", "error::RuntimeWarning", *argv)
    assert result.returncode == 0, result.stderr
