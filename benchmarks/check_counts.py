#!/usr/bin/env python
"""Work-count gate: perfbench's exact call counts against a committed baseline.

For each workload of ``benchmarks/baselines/counts.json`` this runs, from
the repository root and with the baseline's seed::

    python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 1

keeps the run's output in ``perfbench-<workload>.log`` in the working
directory, and exits 1 when a run reports a failed or incorrect operation
or when any metric of unit ``count`` differs from the baseline.  The counts
are calls of public entry points (model fits, tensors created,
quantizations, measure batches, store reads and writes, service calls)
over a fixed amount of work, so they do not depend on the machine's speed
and the gate compares them exactly.  A count that falls fails too, and the
gate prints the fresh baseline to commit with the change that moved the
work.  Time is perfbench's to measure, over alternating runs.

Usage, about a minute on a 2-core machine::

    python benchmarks/check_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "counts.json"
#: Nominal run length: one grid, 11 cold ``/select``s, 1,200 warm ``/measure``s.
SECONDS = 1


def run_workload(workload: str, seed: int) -> dict | None:
    """One traced perfbench run's result, its output kept in a log file."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    Path(f"perfbench-{workload}.log").write_text(completed.stdout + completed.stderr)
    return parse_result(completed.stdout)


def parse_result(stdout: str) -> dict | None:
    """perfbench's last output line, ``{"correct", "attempted", "failed", "metrics"}``."""
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def counts(result: dict) -> dict[str, int]:
    """The metrics of unit ``count`` in one perfbench result."""
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items() if metric["unit"] == "count"
    }


def ran_correctly(result: dict | None) -> bool:
    return result is not None and result["correct"] and not result["failed"]


def problems(baseline: dict, results: dict[str, dict | None]) -> list[str]:
    """Every reason to fail, one line each.

    ``baseline`` maps a workload to its ``seed`` and ``counts``; ``results``
    maps a workload to its parsed perfbench result.
    """
    found = []
    for workload in sorted(set(baseline) | set(results)):
        result = results.get(workload)
        if workload not in baseline:
            found.append(f"{workload}: reported, but not in the baseline")
        elif result is None:
            found.append(f"{workload}: perfbench printed no result")
        elif not ran_correctly(result):
            found.append(
                f"{workload}: perfbench reports correct={result['correct']}, "
                f"{result['failed']} of {result['attempted']} operations failed"
            )
        else:
            expected, fresh = baseline[workload]["counts"], counts(result)
            for name in sorted(set(expected) | set(fresh)):
                if name not in fresh:
                    found.append(f"{workload} {name}: {expected[name]} in the baseline, not reported")
                elif name not in expected:
                    found.append(f"{workload} {name}: {fresh[name]} reported, not in the baseline")
                elif fresh[name] != expected[name]:
                    moved = "rose" if fresh[name] > expected[name] else "fell"
                    found.append(f"{workload} {name}: {moved} {expected[name]} -> {fresh[name]}")
    return found


def gate(baseline: dict, results: dict[str, dict | None]) -> int:
    """Print the verdict on ``results``; 0 when every count matches, else 1."""
    found = problems(baseline, results)
    if not found:
        print(f"counts match {BASELINE.name} on {', '.join(sorted(baseline))}")
        return 0
    print(f"{len(found)} problem(s) against {BASELINE.name}:")
    print("\n".join(f"  {line}" for line in found))
    if set(results) == set(baseline) and all(map(ran_correctly, results.values())):
        fresh = {
            workload: {"seed": entry["seed"], "counts": counts(results[workload])}
            for workload, entry in baseline.items()
        }
        print(f"\nIf the change in work is intended, commit this as "
              f"benchmarks/baselines/{BASELINE.name}:")
        print(json.dumps(fresh, indent=2, sort_keys=True))
    return 1


def main() -> int:
    baseline = json.loads(BASELINE.read_text())
    results = {}
    for workload, entry in sorted(baseline.items()):
        print(f"perfbench {workload} seed={entry['seed']} ...", flush=True)
        results[workload] = run_workload(workload, entry["seed"])
    return gate(baseline, results)


if __name__ == "__main__":
    sys.exit(main())
