"""Machine speed, environment record and child-process set-up.

A shared host runs the benchmark's core at changing speeds: a fixed loop
of pure Python alternates between a fast and a slow state (about 1.5x
apart) that each last around a second, and the share of time spent slow
moves by tens of percent from one minute to the next.  The benchmark
therefore pins every process it starts to one CPU, runs a speed probe on
that same CPU for the whole workload, and reports every time in
*reference seconds*: wall seconds weighted by the probe's speed relative
to :data:`REFERENCE_PROBE_S`.  A second in the fast state counts about a
second, one in the slow state less.

    python3 -m perfbench.machine     # the probe child: samples until stdin closes
"""

from __future__ import annotations

import bisect
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import stats

BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Iterations of the probe's loop: about 0.15 ms of work.
PROBE_ITERATIONS = 2000
#: Seconds the probe's loop takes on the reference machine (a 2-core
#: shared VM, Python 3.11) in its fast state: speed 1.0.
REFERENCE_PROBE_S = 150e-6
#: Seconds the probe sleeps between two samples: about 1% of the CPU.
PROBE_INTERVAL_S = 0.02


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU; return it.

    On one CPU the speed probe shares the core whose speed it reports, and
    a closed loop of client and server hands the core back and forth
    instead of waking threads across cores.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe_work() -> None:
    """The probe's fixed loop of pure Python."""
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7


class Speed:
    """The machine's speed over time, relative to the reference machine.

    Built from probe samples ``(start, seconds)`` on the ``perf_counter``
    clock, which every process of the machine shares.  The speed is
    constant from one sample to the next; a median of three neighbouring
    samples keeps one the scheduler interrupted from posing as a slow
    machine.
    """

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        if len(samples) < 3:
            raise RuntimeError(f"the speed probe took {len(samples)} samples")
        self._starts = [start for start, _ in samples]
        self._ends = [start + seconds for start, seconds in samples]
        durations = [seconds for _, seconds in samples]
        self.speeds = [
            REFERENCE_PROBE_S / statistics.median(durations[max(0, i - 1):i + 2])
            for i in range(len(durations))
        ]
        self._integral = [0.0]
        for i in range(len(samples) - 1):
            self._integral.append(
                self._integral[-1] + self.speeds[i] * (self._starts[i + 1] - self._starts[i])
            )

    def _at(self, t: float) -> float:
        """Reference seconds from the first sample to ``t``."""
        i = max(0, bisect.bisect_right(self._starts, t) - 1)
        return self._integral[i] + self.speeds[i] * (t - self._starts[i])

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall-clock interval ``[start, end]``."""
        return self._at(end) - self._at(start)

    def interrupted(self, start: float, end: float) -> bool:
        """Whether a probe ran during ``[start, end]`` (and so delayed it)."""
        i = bisect.bisect_left(self._ends, start)
        return i < len(self._starts) and self._starts[i] < end

    def summary(self) -> str:
        low, middle, high = statistics.quantiles(self.speeds, n=10)[0::4]
        return (f"speed relative to the reference: p10 {low:.3f}, median {middle:.3f}, "
                f"p90 {high:.3f} over {len(self.speeds)} probes")


class SpeedProbe:
    """The probe child, sampling the speed of the CPU it shares with the load.

    Start it before the workload and call :meth:`stop` after; leaving the
    ``with`` block ends the child on every path.  The constructor returns
    once the first sample is in.
    """

    def __init__(self, env: dict[str, str], cwd: Path) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.machine"], cwd=cwd, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != "sampling":
            self.__exit__()
            raise RuntimeError("the speed probe did not start")

    def __enter__(self) -> SpeedProbe:
        return self

    def __exit__(self, *exc) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.communicate()

    def stop(self) -> Speed:
        """Close the child's stdin, collect its samples and wait for it."""
        out, _ = self._proc.communicate(timeout=30)
        if self._proc.returncode != 0:
            raise RuntimeError(f"speed probe exited with status {self._proc.returncode}")
        return Speed(json.loads(out.splitlines()[-1]))


def _probe_main() -> int:
    samples = []
    while True:
        start = time.perf_counter()
        probe_work()
        samples.append((start, time.perf_counter() - start))
        if len(samples) == 1:
            print("sampling", flush=True)
        # Sleeps the interval, or wakes at once when stdin closes.
        if select.select([sys.stdin], [], [], PROBE_INTERVAL_S)[0]:
            break
    print(json.dumps(samples))
    return 0


def reference_loop_s(rounds: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop plus a small BLAS matmul.

    A diagnostic printed before and after every run, never a metric: on a
    shared machine identical code runs at different speeds minutes apart,
    and this says how fast the machine was around the measured run.
    """
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((96, 96)) / 96
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        product = matrix
        for _ in range(200):
            product = product @ matrix + matrix
        samples.append(time.perf_counter() - start)
    return stats.median(samples)


def environment(env: dict[str, str]) -> dict:
    """nproc, the CPU the load runs on, the interpreter and numpy versions,
    and the BLAS thread setting of the children (``env``)."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: env.get(name, "unset") for name in BLAS_THREAD_VARIABLES},
    }


def child_env(root: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, string hashing pinned, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB of 2**20 bytes."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


if __name__ == "__main__":
    sys.exit(_probe_main())
