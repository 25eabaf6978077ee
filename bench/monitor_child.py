"""Run one ``vibanom monitor`` call in a fresh process and time it.

The parent benchmark starts this script once per monitor call, so the peak
resident memory it reports belongs to a process that did nothing but import
the program and run the call. Usage:

    python3 bench/monitor_child.py RESULT.json TRACE SABOTAGE MONITOR-ARGS...

TRACE is 1 to record spans, else 0; SABOTAGE names a stand-in from
spans.sabotage_replacements, or is "-". It writes {"seconds", "exit_code",
"peak_rss_mb", "spans"} to RESULT.json.

The peak is VmHWM from /proc/self/status (Linux), the high-water mark of this
process's own address space. ``ru_maxrss`` would not do: exec carries the
parent's high-water mark over into the child's.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def peak_rss_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # the line reads "VmHWM: <n> kB"
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    result_path, trace, sabotage, monitor_args = argv[0], argv[1] == "1", argv[2], argv[3:]
    from vibanom import cli

    import spans

    tracer = spans.Tracer()
    with contextlib.ExitStack() as stack:
        if sabotage != "-":
            stack.enter_context(spans.swapped(spans.sabotage_replacements(sabotage)))
        if trace:
            stack.enter_context(tracer.installed())
            stack.enter_context(tracer.in_phase("monitor"))
        start = time.perf_counter()
        try:
            code = cli.main(["monitor", *monitor_args])
        except Exception as exc:  # the parent counts this call's frames as failed
            print("monitor raised %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
            code = -1
        seconds = time.perf_counter() - start
    result = {
        "seconds": seconds, "exit_code": code, "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.rows("monitor"),
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
