"""Start ``repro-serve`` for the benchmark, wrapped in layer timers when traced.

    python3 -m perfbench.launcher [--trace] -- <repro-serve arguments>

Untraced, the launcher only calls :func:`repro.serving.api.main`.  With
``--trace`` it times the import of the serving stack, installs the
wrappers of :mod:`perfbench.layers`, and answers commands on stdin, one
per line: ``mark`` opens the measurement window (answer:
``perfbench-mark``); ``report`` prints ``perfbench-report <json>`` with
every layer's counts and times since the mark, the same since boot, and
the import time.
"""

from __future__ import annotations

import json
import sys
import threading
import time


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    trace = "--trace" in argv[:split]
    started = time.perf_counter()
    from repro.serving import api

    import_s = time.perf_counter() - started
    if trace:
        from perfbench.layers import LayerRecorder, install

        recorder = LayerRecorder()
        install(recorder)
        threading.Thread(
            target=_answer_commands, args=(recorder, import_s), daemon=True
        ).start()
    return api.main(argv[split + 1:])


def _answer_commands(recorder, import_s: float) -> None:
    mark = None
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            mark = recorder.mark()
            print("perfbench-mark", flush=True)
        elif command == "report":
            report = {
                "import_s": import_s,
                "window": recorder.report(mark),
                "boot": recorder.report(),
            }
            print("perfbench-report " + json.dumps(report), flush=True)


if __name__ == "__main__":
    sys.exit(main())
