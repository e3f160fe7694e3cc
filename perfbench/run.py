"""Benchmark entry point: three workloads, end-to-end metrics, per-layer timing.

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``BENCHMARK.json`` there names the
workloads and metrics, and ``perfbench/README.md`` defines each one.
Every process the run starts is pinned to one CPU, beside a speed probe
on that CPU, and the end-to-end times are reported in reference seconds
(:mod:`perfbench.machine`); the wall-clock figures are printed beside them.
With ``--trace 0`` nothing is installed in the measured processes and the
run reports the end-to-end metrics.  With ``--trace 1`` the workload runs
twice, untraced and then with the layer wrappers of
:mod:`perfbench.layers`: the run prints both end-to-end results and the
tracing overhead, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 0 when every operation succeeded with a correct answer, 1 otherwise,
and 2, with no result printed, when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: import the benchmark as the ``perfbench`` package,
    # never as loose modules that could shadow the standard library.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import machine  # noqa: E402

# One BLAS thread, set before numpy loads: on the one CPU the run is pinned
# to, a second BLAS thread could only spin-wait for the first.
os.environ.update(dict.fromkeys(machine.BLAS_THREAD_VARIABLES, "1"))

from perfbench import grid, serve, stats  # noqa: E402
from perfbench.common import ROOT, Context, Deadline, Run  # noqa: E402

#: Workload -> (runner, set-up repetitions of an untraced run).
WORKLOADS = {
    "grid-cold": (grid.run, grid.SETUP_REPETITIONS),
    "select-cold": (serve.run_select_cold, serve.SELECT_BOOTS),
    "serve-warm": (serve.run_serve_warm, serve.WARM_BOOTS),
}
#: Wall-clock budget of one invocation; each must end within 180 s.
BUDGET_S = 170.0
#: End-to-end metrics whose traced/untraced ratio is the tracing overhead.
OVERHEAD_METRICS = ("throughput_per_s", "latency_p50_ms")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="nominal run length; it fixes each workload's operation count",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = Deadline(BUDGET_S)
    machine.pin_to_one_cpu()
    # Byte-compile up front, untimed, so that every run imports alike.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(workdir=workdir, env=machine.child_env(ROOT), deadline=deadline)
    runner, setup_repetitions = WORKLOADS[args.workload]
    passes = {"untraced": False, "traced": True} if args.trace else {"untraced": False}
    speed_before = machine.reference_loop_s()
    runs: dict[str, Run] = {}
    speeds: dict[str, machine.Speed] = {}
    try:
        for label, trace in passes.items():
            with machine.SpeedProbe(ctx.env, ROOT) as probe:
                runs[label] = runner(
                    args.seed, args.seconds, trace=trace, ctx=ctx,
                    # A traced invocation is for attribution: one set-up will do.
                    setup_repetitions=1 if args.trace else setup_repetitions,
                )
                speeds[label] = probe.stop()
    except Exception:
        traceback.print_exc()
        _print_logs(workdir)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    speed_after = machine.reference_loop_s()

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    e2e_units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    results = {
        label: _print_run(label, run, speeds[label], e2e_units) for label, run in runs.items()
    }
    if args.trace:
        untraced, traced = results["untraced"], results["traced"]
        if untraced and traced:
            print("tracing overhead (traced vs untraced): " + ", ".join(
                f"{name} {traced[name] / untraced[name] - 1:+.1%}"
                for name in OVERHEAD_METRICS
            ))
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        metrics = {name: runs["traced"].layers.get(name, 0) for name in units}
        print("per-layer metrics (traced run; a layer the workload never calls reads 0):")
        _print_metrics(metrics, units)
        for name, share in runs["traced"].attribution.items():
            print(f"  share {name}: {share:.3f}")
    else:
        units, metrics = e2e_units, results["untraced"]
    print(f"machine: reference loop {speed_before:.4f} s before the run, "
          f"{speed_after:.4f} s after")
    print("env: " + json.dumps(machine.environment(ctx.env), sort_keys=True))
    attempted = sum(run.tally.attempted for run in runs.values())
    failed = sum(run.tally.failed for run in runs.values())
    correct = failed == 0 and all(results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def _print_run(
    label: str, run: Run, speed: machine.Speed, units: dict[str, str]
) -> dict[str, float]:
    """Print one run's end-to-end metrics, in reference and in wall seconds,
    with notes on their samples; return the reference ones."""
    tally = run.tally
    reasons = f" ({dict(tally.reasons)})" if tally.failed else ""
    print(f"{label}: {tally.attempted} operations attempted, {tally.failed} failed{reasons}")
    print(f"  machine {speed.summary()}")
    try:
        metrics = run.end_to_end(speed)
        wall = run.end_to_end(speed, scaled=False)
    except (ValueError, ZeroDivisionError):
        return {}  # failures left too few samples to report
    latency = stats.latency_summary(run.latencies_ms(speed))
    samples = f"per {run.operation}, n={latency['n']}"
    wall_s = sum(end - start for start, end in run.busy)
    notes = {
        "setup_s": f"median of {len(run.setup)} back-to-back set-ups",
        "throughput_per_s": f"{run.operations} operations in {wall_s:.2f} wall s",
        "latency_p50_ms": samples,
        "latency_tail_ms": f"p{100 * latency['tail_q']:.1f} {samples}" + (
            f", median over {latency['windows']} windows of {stats.TAIL_WINDOW}"
            if latency["windows"] > 1 else ""),
        "peak_rss_mb": "VmHWM of the measured process",
    }
    print("  reference seconds (the metrics) | wall seconds")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} | {wall[name]:<12.6g} {units[name]:<6} "
              f"{notes[name]}")
    return metrics


def _print_metrics(
    metrics: dict, units: dict[str, str], notes: dict[str, str] | None = None
) -> None:
    for name, value in metrics.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:<30} {value:>14.6g} {units[name]:<6} {note}".rstrip())


def _print_logs(workdir: Path) -> None:
    """The tail of every child's log, for a run that failed."""
    for log in sorted(workdir.glob("*.log")):
        lines = log.read_text(errors="replace").splitlines()[-20:]
        print(f"--- {log.name}, last {len(lines)} lines:", file=sys.stderr)
        print("\n".join(lines), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
