"""Self-test of the benchmark: its checks pass on the program and fail on
sabotaged copies of it, and its output matches BENCHMARK.json.

    python3 bench/selftest.py [--workloads a,b] [--seed N] [--seconds S]

For each workload it runs bench/run.py
  * untraced, expecting correct=true and exactly the end-to-end metrics;
  * traced, expecting correct=true and exactly the per-layer metrics;
  * once per sabotage kind (dcan.reconstruct returning zeros, scoring.evaluate
    that never fires), expecting correct=false and failed operations.
Then it copies only BENCHMARK.json and bench/ into an empty directory and
expects run.py to exit non-zero there without printing a result.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run(cwd, workload, seed, seconds, trace=0, sabotage=None):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if sabotage:
        cmd += ["--sabotage", sabotage]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def main(argv=None):
    sys.path.insert(0, str(HERE))
    import run as bench_run

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(bench_run.WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for workload in args.workloads.split(","):
        for trace in (0, 1):
            proc = run(ROOT, workload, args.seed, args.seconds, trace=trace)
            result = result_of(proc)
            what = "%s trace=%d" % (workload, trace)
            expect(proc.returncode == 0 and result is not None, what + ": exits 0 with a result")
            if result is None:
                print(proc.stderr[-2000:])
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   what + ": checks pass (%d attempted)" % result["attempted"])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == expected[trace], what + ": metrics and units match BENCHMARK.json")
        for kind in bench_run.SABOTAGE_KINDS:
            proc = run(ROOT, workload, args.seed, args.seconds, sabotage=kind)
            result = result_of(proc)
            expect(result is not None and not result["correct"] and result["failed"] > 0,
                   "%s with %s: checks fail (%s of %s failed)" % (
                       workload, kind, result and result["failed"], result and result["attempted"]))

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, bench_run.WORKLOAD_NAMES[0], args.seed, args.seconds)
        expect(proc.returncode != 0 and result_of(proc) is None,
               "without the program: exits %d and prints no result" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
