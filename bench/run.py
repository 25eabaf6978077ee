"""The vibanom benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Each invocation is one fresh interpreter
running one workload, so peak memory and BLAS state belong to that workload;
each ``vibanom monitor`` call runs in a child process of its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced; with
``--trace 1`` they are the per-layer metrics, from a traced pass followed by
an untraced repeat of the workload's main stage that gives the tracing
overhead. An earlier line records the environment; failed checks are listed
on lines of their own before the result.

``--sabotage KIND`` swaps a broken stand-in for one public function during
the measured stages; bench/selftest.py uses it to prove the checks can fail.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOAD_NAMES = ("train-3axis", "fleet-monitor")
SABOTAGE_KINDS = ("reconstruct-zeros", "evaluate-never-fires")
LAYERS = (
    "conv1", "conv2", "conv3", "fc1", "fc2", "fc3", "fc4", "fc5",
    "deconv1", "deconv2", "deconv3",
)
# Where a per-layer metric is read when the main stage never calls the span.
FALLBACK_PHASES = ("train", "monitor", "setup")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sabotage", choices=SABOTAGE_KINDS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace and args.sabotage:
        parser.error("--sabotage applies to untraced runs only")
    return args


# -- stages -------------------------------------------------------------------


def repeat(step, seconds):
    """Call ``step()`` once, then again until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    done = [step()]
    while time.perf_counter() < deadline:
        done.append(step())
    return done


def check_repeats(name, values, tally, what):
    if len(set(values)) > 1:
        tally.add(0, 0, "%s: %s differs between repeats" % (name, what))


def train_metrics(runs, batch_size):
    """Throughput is batch frames over the median full-batch step time, which
    a burst of load on a shared machine moves less than a whole run's wall."""
    done = [r for r in runs if r.history]
    steps = [t for r in done for t in r.step_seconds]
    if not steps:
        return {}
    return {
        "train_frames_per_s": (batch_size / statistics.median(steps), "frames/s"),
        "train_val_mse": (statistics.median(r.history[-1].val_mse for r in done), "mse"),
    }


def monitor_metrics(calls):
    ok = [c for c in calls if not math.isnan(c.seconds)]
    if not ok:
        return {}
    return {
        "monitor_frames_per_s": (statistics.median(c.frames / c.seconds for c in ok), "frames/s"),
        "monitor_peak_rss_mb": (statistics.median(c.peak_rss_mb for c in ok), "MB"),
    }


def fresh(work):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)


# -- untraced run: end-to-end metrics -------------------------------------------


def run_measured(pipeline, spans, wl, seed, seconds, sabotage, work):
    """Rounds of set-up, training and monitor calls.

    In each round the train stage (where training is not part of set-up)
    and the monitor stage each repeat until ``seconds / ROUNDS`` have passed.
    Set-up is timed whole in every round; the reference scores come from the
    first round, and the set-up's files must be identical in every round.
    """
    tally = pipeline.Tally()
    replacements = spans.sabotage_replacements(sabotage) if sabotage else {}

    def stage(name):
        return spans.swapped(replacements)

    share = seconds / pipeline.ROUNDS
    setup_times, digests, runs, calls = [], [], [], []
    reference = None
    for _ in range(pipeline.ROUNDS):
        fresh(work)
        start = time.perf_counter()
        fix = pipeline.set_up(wl, seed, work, tally, stage)
        setup_times.append(time.perf_counter() - start)
        runs.extend(fix.train_runs)
        if not wl.trains_in_setup:
            def train():
                with stage("train"):
                    return pipeline.train_once(fix, tally)

            runs.extend(repeat(train, share))
            pipeline.publish(fix)
        digests.append(fix.digest())
        if reference is None:
            reference = pipeline.reference_reports(fix)
        calls.extend(repeat(lambda: pipeline.monitor_call(fix, reference, tally, sabotage=sabotage),
                            share))
    check_repeats(wl.name, digests, tally, "the set-up's files")
    check_repeats(wl.name, [tuple((h.train_mse, h.val_mse) for h in r.history) for r in runs],
                  tally, "the training loss history")
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    metrics.update(train_metrics(runs, pipeline.BATCH_SIZE))
    metrics.update(monitor_metrics(calls))
    return metrics, tally


# -- traced run: per-layer metrics -----------------------------------------------


def run_traced(pipeline, spans, wl, seed, seconds, work):
    """One traced round, then the main stage again untraced for the overhead."""
    tally = pipeline.Tally()
    tracer = spans.Tracer()
    share = seconds / pipeline.ROUNDS
    fresh(work)

    def train(phase):
        with phase("train"):
            return pipeline.train_once(fix, tally)

    def monitor(trace):
        call = pipeline.monitor_call(fix, reference, tally, trace=trace)
        if trace:
            tracer.merge("monitor", call.spans)
        return call

    with tracer.installed():
        with tracer.in_phase("setup"):
            fix = pipeline.set_up(wl, seed, work, tally, tracer.in_phase)
        if not wl.trains_in_setup:
            traced = train_metrics(repeat(lambda: train(tracer.in_phase), share), pipeline.BATCH_SIZE)
            with tracer.in_phase("setup"):
                pipeline.publish(fix)
        reference = pipeline.reference_reports(fix)
        calls = repeat(lambda: monitor(True), share)
    if wl.trains_in_setup:
        traced = monitor_metrics(calls)
        untraced = monitor_metrics(repeat(lambda: monitor(False), share))
        key = "monitor_frames_per_s"
    else:
        untraced = train_metrics(repeat(lambda: train(lambda name: contextlib.nullcontext()), share),
                                 pipeline.BATCH_SIZE)
        key = "train_frames_per_s"

    metrics = layer_metrics(tracer, wl.main_stage)
    if key in traced and key in untraced:
        metrics["trace.overhead_pct"] = (100.0 * (untraced[key][0] / traced[key][0] - 1.0), "%")
    return metrics, tally, tracer


def layer_metrics(tracer, main):
    """Per-layer metrics from the span aggregates.

    A metric is read from the workload's main stage when that stage calls the
    span, else from the first stage in FALLBACK_PHASES that does. Times are
    means per call; self times exclude traced children.
    """

    def row(span):
        for phase in (main, *FALLBACK_PHASES):
            agg = tracer.aggregates.get((phase, span))
            if agg and agg[0]:
                return agg
        return None

    def total(span, index, phases):
        return sum(tracer.aggregates.get((p, span), (0, 0.0, 0.0, 0))[index] for p in phases)

    out = {}

    def per_call(name, span, scale, unit, own=False):
        agg = row(span)
        if agg:
            out[name] = ((agg[2] if own else agg[1]) / agg[0] * scale, unit)

    for layer in LAYERS:
        per_call("nn.%s.fwd_ms" % layer, "nn.%s.fwd" % layer, 1e3, "ms")
        per_call("nn.%s.bwd_ms" % layer, "nn.%s.bwd" % layer, 1e3, "ms")
    per_call("nn.adam_ms", "nn.adam", 1e3, "ms")
    per_call("nn.leaky_relu_ms", "nn.leaky_relu", 1e3, "ms")
    per_call("dcan.loss_and_gradients_ms", "dcan.loss_and_gradients", 1e3, "ms")
    per_call("dcan.loss_and_gradients_self_ms", "dcan.loss_and_gradients", 1e3, "ms", own=True)
    per_call("dcan.reconstruct_ms", "dcan.reconstruct", 1e3, "ms")
    per_call("dcan.reconstruct_self_ms", "dcan.reconstruct", 1e3, "ms", own=True)
    per_call("dcan.reconstruction_report_ms", "dcan.reconstruction_report", 1e3, "ms")
    agg = row("training.train")
    if agg and agg[3]:
        out["training.train_epoch_s"] = (agg[1] / agg[3], "s")
    per_call("training.batched_mse_ms", "training.batched_mse", 1e3, "ms")
    per_call("training.standardize_ms", "training.standardize", 1e3, "ms")
    per_call("training.load_checkpoint_ms", "training.load_checkpoint", 1e3, "ms")
    per_call("ingest.read_frames_ms", "ingest.read_frames", 1e3, "ms")
    agg = row("ingest.read_frames")
    if agg:
        out["ingest.read_frames_mb_per_s"] = (agg[3] / 1e6 / agg[1], "MB/s")
    per_call("ingest.stack_frames_ms", "ingest.stack_frames", 1e3, "ms")
    agg = row("ingest.write_frames")
    if agg:
        out["ingest.write_frames_mb_per_s"] = (agg[3] / 1e6 / agg[1], "MB/s")
    per_call("fleet.run_fleet_s", "fleet.run_fleet", 1.0, "s")
    per_call("fleet.evaluate_stream_self_ms", "fleet.evaluate_stream", 1e3, "ms", own=True)
    per_call("fleet.write_report_log_ms", "fleet.write_report_log", 1e3, "ms")
    per_call("fleet.format_report_us", "fleet.format_report", 1e6, "us")
    per_call("scoring.evaluate_us", "scoring.evaluate", 1e6, "us")
    per_call("cli.monitor_self_ms", "cli.cmd_monitor", 1e3, "ms", own=True)

    all_phases = {p for p, _ in tracer.aggregates}
    scored = total("fleet.format_report", 0, ("monitor",))
    out["count.frames_scored"] = (scored, "count")
    out["count.train_steps"] = (total("dcan.loss_and_gradients", 0, all_phases), "count")
    out["count.alarms_fired"] = (total("scoring.evaluate", 3, ("monitor",)), "count")
    out["count.bytes_read"] = (total("ingest.read_frames", 3, all_phases), "count")
    if scored:
        out["ratio.reconstructed_per_report"] = (
            total("dcan.reconstruct", 3, ("monitor",)) / scored, "ratio")
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "vibanom" / "__init__.py").is_file():
        print("error: no vibanom sources at %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import pipeline
    import spans

    print(json.dumps({"environment": spans.environment()}), flush=True)
    wl = pipeline.WORKLOADS[args.workload]
    work = WORK_ROOT / ("%s-%d" % (wl.name, os.getpid()))
    tracer = None
    try:
        if args.trace:
            metrics, tally, tracer = run_traced(pipeline, spans, wl, args.seed, args.seconds, work)
        else:
            metrics, tally = run_measured(pipeline, spans, wl, args.seed, args.seconds, args.sabotage, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    if tracer is not None:
        spans_out = {"%s/%s" % key: agg for key, agg in sorted(tracer.aggregates.items())}
        print(json.dumps({"spans": spans_out}))
    for problem in tally.problems:
        print("check failed: %s" % problem)
    result = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
