"""Span tracing, function swapping and environment capture for the benchmark.

The program is not instrumented itself. Instead the benchmark swaps each
traced public function for a timing wrapper, in every ``vibanom`` module that
holds a reference to it (``from .training import standardize`` binds the name
in ``fleet`` as well as ``training``). Spans nest through a stack, so a span's
self time is its duration minus the time its traced children took.

Spans are aggregated as they close, per (phase, name): calls, total seconds,
self seconds and one extra quantity (bytes, frames, epochs or alarms,
depending on the span). Keeping aggregates instead of every span keeps a
run's tens of thousands of layer-pass spans out of memory.
"""

from __future__ import annotations

import contextlib
import os
import platform
import sys
import time

NN_PASSES = {
    "conv2d_forward": "fwd",
    "conv2d_backward": "bwd",
    "conv_transpose2d_forward": "fwd",
    "conv_transpose2d_backward": "bwd",
    "dense_forward": "fwd",
    "dense_backward": "bwd",
}

# (module, function, span name) for every traced call that is not a layer
# pass; the extra quantity of each span comes from EXTRA below.
TRACED = (
    ("nn", "leaky_relu", "nn.leaky_relu"),
    ("nn", "leaky_relu_backward", "nn.leaky_relu"),
    ("nn", "adam_step", "nn.adam"),
    ("dcan", "loss_and_gradients", "dcan.loss_and_gradients"),
    ("dcan", "reconstruct", "dcan.reconstruct"),
    ("dcan", "reconstruction_report", "dcan.reconstruction_report"),
    ("training", "train", "training.train"),
    ("training", "batched_mse", "training.batched_mse"),
    ("training", "standardize", "training.standardize"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("ingest", "read_frames", "ingest.read_frames"),
    ("ingest", "stack_frames", "ingest.stack_frames"),
    ("ingest", "write_frames", "ingest.write_frames"),
    ("fleet", "load_fleet_config", "fleet.load_fleet_config"),
    ("fleet", "run_fleet", "fleet.run_fleet"),
    ("fleet", "evaluate_stream", "fleet.evaluate_stream"),
    ("fleet", "write_report_log", "fleet.write_report_log"),
    ("fleet", "format_report", "fleet.format_report"),
    ("scoring", "evaluate", "scoring.evaluate"),
    ("cli", "cmd_monitor", "cli.cmd_monitor"),
)


def _extra_epochs(args, result):
    return len(result[1])


def _extra_frames(args, result):
    return args[1].shape[0]


def _extra_file_bytes(args, result):
    return os.path.getsize(args[0])


def _extra_alarm(args, result):
    return 1 if result[0].alarm_fired else 0


EXTRA = {
    "training.train": _extra_epochs,
    "dcan.reconstruct": _extra_frames,
    "ingest.read_frames": _extra_file_bytes,
    "ingest.write_frames": _extra_file_bytes,
    "scoring.evaluate": _extra_alarm,
}


def _vibanom_modules():
    return [m for n, m in list(sys.modules.items()) if n == "vibanom" or n.startswith("vibanom.")]


@contextlib.contextmanager
def swapped(replacements):
    """Swap functions by identity in every loaded vibanom module.

    ``replacements`` maps an original function to its stand-in. Every module
    attribute bound to an original is rebound for the duration of the block.
    """
    undo = []
    for module in _vibanom_modules():
        for attr, value in list(vars(module).items()):
            stand_in = replacements.get(value) if callable(value) else None
            if stand_in is not None:
                setattr(module, attr, stand_in)
                undo.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


class Tracer:
    """Collects per-phase span aggregates while ``installed()`` is active.

    ``phase`` names the benchmark stage calls are attributed to; while it is
    None, wrapped calls pass straight through without recording.
    """

    def __init__(self):
        self.phase = None
        self.aggregates = {}
        self._stack = []
        self._layer_names = {}
        self._models = {}

    def _record(self, name, fn, extra, args, kwargs):
        if self.phase is None:
            return fn(*args, **kwargs)
        frame = [0.0]  # time spent in traced children
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
        key = (self.phase, name)
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [0, 0.0, 0.0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[0]
        if extra is not None:
            agg[3] += extra(args, result)
        return result

    def _wrap(self, name, fn):
        extra = EXTRA.get(name)

        def wrapper(*args, **kwargs):
            return self._record(name, fn, extra, args, kwargs)

        return wrapper

    def _wrap_layer_pass(self, direction, fn):
        def wrapper(*args, **kwargs):
            layer = self._layer_names.get(id(args[1].weight), "unknown")
            return self._record("nn.%s.%s" % (layer, direction), fn, None, args, kwargs)

        return wrapper

    def _wrap_model_entry(self, name, fn):
        # Layers are named by identity of their weight arrays in the model's
        # named_parameters(), registered the first time a model enters dcan.
        inner = self._wrap(name, fn)

        def wrapper(model, *args, **kwargs):
            if self.phase is not None and id(model) not in self._models:
                self._models[id(model)] = model  # held, so its id is not reused
                for key, array in model.named_parameters().items():
                    if key.endswith(".weight"):
                        self._layer_names[id(array)] = key[: -len(".weight")]
            return inner(model, *args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        from vibanom import cli, dcan, fleet, ingest, nn, scoring, training

        modules = {
            "nn": nn, "dcan": dcan, "training": training, "ingest": ingest,
            "fleet": fleet, "scoring": scoring, "cli": cli,
        }
        replacements = {}
        for fn_name, direction in NN_PASSES.items():
            fn = getattr(nn, fn_name)
            replacements[fn] = self._wrap_layer_pass(direction, fn)
        for module, fn_name, span in TRACED:
            fn = getattr(modules[module], fn_name)
            if module == "dcan" and fn_name in ("loss_and_gradients", "reconstruct"):
                replacements[fn] = self._wrap_model_entry(span, fn)
            else:
                replacements[fn] = self._wrap(span, fn)
        with swapped(replacements):
            yield self

    @contextlib.contextmanager
    def in_phase(self, phase):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def merge(self, phase, rows):
        """Add aggregates recorded by a child process to ``phase``."""
        for name, (calls, total, self_s, extra) in rows.items():
            agg = self.aggregates.setdefault((phase, name), [0, 0.0, 0.0, 0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
            agg[3] += extra

    def rows(self, phase):
        """Aggregates of one phase as {name: [calls, total, self, extra]}."""
        return {n: list(a) for (p, n), a in self.aggregates.items() if p == phase}


def sabotage_replacements(kind):
    """Stand-ins for the self-test: each breaks one public function."""
    import numpy as np

    from vibanom import dcan, scoring

    if kind == "reconstruct-zeros":
        def reconstruct(model, frames):
            return np.zeros_like(frames)

        return {dcan.reconstruct: reconstruct}
    if kind == "evaluate-never-fires":
        real = scoring.evaluate

        def evaluate(mse, normalization, config, state):
            decision, new_state = real(mse, normalization, config, state)
            return scoring.AlarmDecision(
                score=decision.score,
                level=decision.level,
                alarm_fired=False,
                anomalous_in_window=decision.anomalous_in_window,
            ), new_state

        return {real: evaluate}
    raise ValueError("unknown sabotage %r" % kind)


def _blas_info():
    """OpenBLAS library, version and thread count, read through ctypes."""
    import ctypes

    path = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                if "openblas" in line.lower() and ".so" in line:
                    path = line.split()[-1]
                    break
    except OSError:
        pass
    info = {"library": path or "unknown", "threads": None, "config": None}
    if path is None:
        return info
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            threads = getattr(lib, "%s_get_num_threads%s" % (prefix, suffix), None)
            config = getattr(lib, "%s_get_config%s" % (prefix, suffix), None)
            if threads is not None and info["threads"] is None:
                threads.restype = ctypes.c_int
                info["threads"] = threads()
            if config is not None and info["config"] is None:
                config.restype = ctypes.c_char_p
                info["config"] = config().decode("ascii", "replace")
    return info


def environment():
    """The machine and library facts every result is recorded with."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "cpu": cpu,
        "platform": platform.platform(),
    }
