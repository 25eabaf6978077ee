"""The benchmark's trace hooks still name functions of the program.

bench/spans.py times vibanom by swapping wrappers in for the functions it
lists in TRACED and NN_PASSES, looked up by module and name. A refactor
that renames or drops one of them would silently drop its per-layer
metrics from a traced run, so this reads those two tables (as literals,
without importing the benchmark) and checks each name resolves to a
function of the named vibanom module. The rest of the benchmark reaches
the program through `<module>.<name>` attributes of the vibanom modules it
imports and through keyword arguments; an AST scan of bench/*.py checks
each attribute resolves and each keyword is in its callee's signature. It
also checks that monitor reads its streams, scores each frame and makes
each other traced call of its path as often as the bench's counts assume,
and that training takes each Adam step, through names such a swap reaches,
and that the ingest.Frame lists the benchmark's set-up builds give the
results of the equivalent FrameBlock.
"""

import ast
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from vibanom import cli, dcan, ingest, nn, scoring, training
from vibanom.fleet import (
    FleetConfig,
    PredictorSpec,
    calibrate_predictor,
    evaluate_stream,
    read_report_log,
    save_fleet_config,
)
from vibanom.scoring import ScoreNormalization
from vibanom.training import StandardizationStats, save_checkpoint

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def table(name):
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no %s" % name)


HOOKS = sorted(
    {(module, fn) for module, fn, _ in table("TRACED")}
    | {("nn", fn) for fn in table("NN_PASSES")}
)


def test_tables_found():
    assert len(HOOKS) >= 20


@pytest.mark.parametrize("module, name", HOOKS, ids=lambda v: str(v))
def test_traced_function_exists(module, name):
    fn = getattr(importlib.import_module("vibanom." + module), name, None)
    assert callable(fn), "vibanom.%s.%s is traced by bench/spans.py" % (module, name)


def resolve(module, name):
    """module.name: a submodule of module, or an attribute of it."""
    try:
        return importlib.import_module(module + "." + name)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name)


def bench_uses():
    """(attributes, keywords) that bench/*.py uses of vibanom, read from its
    AST: each `<name>.<attr>` whose <name> a `from vibanom... import` binds,
    as (file, module, name, attr), and each keyword argument of a call to
    one of those names or attributes, as (file, module, name, attr, keyword),
    where attr is None for a call of the imported name itself."""
    attributes, keywords = set(), set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module and node.module.split(".")[0] == "vibanom"
            for alias in node.names
        }

        def target(node):
            if isinstance(node, ast.Name) and node.id in bound:
                return (path.name, *bound[node.id], None)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in bound:
                return (path.name, *bound[node.value.id], node.attr)
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and target(node):
                attributes.add(target(node))
            if isinstance(node, ast.Call) and target(node.func):
                keywords.update((*target(node.func), kw.arg) for kw in node.keywords if kw.arg)
    return sorted(attributes), sorted(keywords, key=str)


ATTRIBUTES, KEYWORDS = bench_uses()


def test_bench_uses_found():
    assert len(ATTRIBUTES) >= 20 and len(KEYWORDS) >= 10


@pytest.mark.parametrize("where, module, name, attr", ATTRIBUTES,
                         ids=lambda v: str(v))
def test_bench_attribute_resolves(where, module, name, attr):
    assert hasattr(resolve(module, name), attr), \
        "bench/%s uses %s.%s.%s" % (where, module, name, attr)


@pytest.mark.parametrize("where, module, name, attr, keyword", KEYWORDS,
                         ids=lambda v: str(v))
def test_bench_keyword_is_in_the_signature(where, module, name, attr, keyword):
    callee = resolve(module, name)
    if attr is not None:
        callee = getattr(callee, attr)
    params = inspect.signature(callee).parameters
    assert keyword in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ), "bench/%s passes %s= to %s" % (where, keyword, getattr(callee, "__qualname__", callee))


def swap_everywhere(monkeypatch, original, stand_in):
    """Rebind every vibanom module's name for original, as spans.swapped does."""
    for name, module in list(sys.modules.items()):
        if name == "vibanom" or name.startswith("vibanom."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, stand_in)


def monitor_fleet(tmp_path, names, frames=3, norm=ScoreNormalization(mu=1.0, sigma=0.5)):
    """A fleet.json with one untrained predictor per name, a stream of
    noise frames for all but the last (frames of each, or frames[k] for
    the k-th if frames is a tuple), and the monitor argv over them."""
    ckpt = tmp_path / "m.ckpt"
    stats = StandardizationStats(np.zeros(3, np.float32), np.ones(3, np.float32))
    save_checkpoint(dcan.build(dcan.DcanConfig(), seed=0), stats, ckpt)
    specs = tuple(
        PredictorSpec(id=n, location=n, checkpoint=str(ckpt),
                      normalization=norm)
        for n in names
    )
    save_fleet_config(FleetConfig(predictors=specs), tmp_path / "fleet.json")
    streams = tmp_path / "streams"
    streams.mkdir()
    rng = np.random.default_rng(0)
    counts = frames if isinstance(frames, tuple) else (frames,) * (len(names) - 1)
    for n, count in zip(names[:-1], counts):
        ingest.write_frames(streams / (n + ".frames"), [
            ingest.Frame(rng.normal(size=(3, ingest.FRAME_LEN)).astype(np.float32), timestamp=t)
            for t in range(count)
        ])
    return ["monitor", "--config", str(tmp_path / "fleet.json"),
            "--frames", str(streams), "--out", str(tmp_path / "r.log")]


def test_monitor_reads_each_stream_once_through_the_module_name(tmp_path, monkeypatch):
    # bench/spans.py times the reads by rebinding every vibanom module's
    # name for ingest.read_frames; monitor must read each stream there, once
    argv = monitor_fleet(tmp_path, ("a", "b", "c"))  # c has no stream file
    streams = tmp_path / "streams"
    original, calls = ingest.read_frames, []

    def counting(path):
        calls.append(str(path))
        return original(path)

    swap_everywhere(monkeypatch, original, counting)
    assert cli.main(argv) == 0
    assert sorted(calls) == [str(streams / "a.frames"), str(streams / "b.frames")]


def test_monitor_scores_each_frame_through_the_module_name(tmp_path, monkeypatch, capsys):
    # the bench's evaluate-never-fires sabotage rebinds every vibanom
    # module's name for scoring.evaluate; monitor must score each frame
    # there, or the sabotage would pass unseen. Scored against mu 0 and
    # sigma 1e-9, every frame is anomalous, so the real rule fires.
    argv = monitor_fleet(tmp_path, ("a", "b"), frames=20,
                         norm=ScoreNormalization(mu=0.0, sigma=1e-9))
    log = tmp_path / "r.log"
    assert cli.main(argv) == 0
    assert any(r.alarm_fired for r in read_report_log(log))
    log.unlink()

    real, calls = scoring.evaluate, []

    def never_fires(mse, normalization, config, state):
        decision, new_state = real(mse, normalization, config, state)
        calls.append(decision.alarm_fired)
        return scoring.AlarmDecision(
            score=decision.score, level=decision.level, alarm_fired=False,
            anomalous_in_window=decision.anomalous_in_window,
        ), new_state

    swap_everywhere(monkeypatch, real, never_fires)
    assert cli.main(argv) == 0
    reports = read_report_log(log)
    assert len(reports) == len(calls) == 20
    assert any(calls) and not any(r.alarm_fired for r in reports)
    assert "a: 20 frames, 0 alarms" in capsys.readouterr().out


def test_monitor_makes_each_traced_call_through_the_module_name(tmp_path, monkeypatch):
    # count.frames_scored, ratio.reconstructed_per_report and the per-layer
    # means divide by these counts; streams of 20 and 37 frames are 2 and
    # 3 scoring tasks of 16 frames, and c has no stream file
    argv = monitor_fleet(tmp_path, ("a", "b", "c"), frames=(20, 37))
    want = {
        "fleet.evaluate_stream": 2,
        "training.load_checkpoint": 2,
        "ingest.stack_frames": 5,
        "training.standardize": 5,
        "dcan.reconstruct": 5,
        "dcan.reconstruction_report": 5,
        "fleet.format_report": 57,
    }
    calls = []  # appended from the runner's worker threads too
    for name in want:
        module, fn = name.split(".")
        original = getattr(importlib.import_module("vibanom." + module), fn)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        swap_everywhere(monkeypatch, original, counting)
    assert cli.main(argv) == 0
    assert Counter(calls) == want


def test_train_takes_each_adam_step_through_the_module_name(monkeypatch):
    # bench/spans.py times nn.adam by rebinding every vibanom module's name
    # for nn.adam_step; each training batch must take its step there, once
    frames = np.random.default_rng(0).standard_normal((12, 1, 3, ingest.FRAME_LEN)).astype(np.float32)
    original, events = nn.adam_step, []

    def counting(params, grads, state):
        events.append("adam")
        return original(params, grads, state)

    swap_everywhere(monkeypatch, original, counting)
    model = dcan.build(dcan.DcanConfig(), seed=0)
    training.train(model, frames, training.fit_standardization(frames),
                   training.TrainConfig(batch_size=4, max_epochs=2, patience=2, seed=0),
                   on_batch=lambda *_: events.append("batch"))
    assert events == ["batch", "adam"] * 6  # 11 training frames: 3 batches an epoch


def test_bench_frame_lists_match_their_blocks(tmp_path):
    # bench/pipeline.py builds ingest.Frame lists by keyword from rows of an
    # (N, 1, A, 4096) array, and writes, calibrates and scores them
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(40, 1, 3, ingest.FRAME_LEN)).astype(np.float32)
    stamps = rng.permutation(40) + 500
    frames = [
        ingest.Frame(data=row[0], timestamp=int(ts), source="p")
        for row, ts in zip(rows, stamps)
    ]
    block = ingest.FrameBlock(stamps, rows[:, 0])
    ingest.write_frames(tmp_path / "list.frames", frames)
    ingest.write_frames(tmp_path / "block.frames", block)
    assert (tmp_path / "list.frames").read_bytes() == (tmp_path / "block.frames").read_bytes()
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(dcan.build(dcan.DcanConfig(), seed=0),
                    training.fit_standardization(rows), ckpt)
    norm = calibrate_predictor(ckpt, frames)
    assert norm == calibrate_predictor(ckpt, block)
    spec = PredictorSpec(id="p", location="p", checkpoint=str(ckpt), normalization=norm)
    model, stats = training.load_checkpoint(ckpt)
    reports = evaluate_stream(spec, model, stats, frames)
    assert len(reports) == 40
    assert reports == evaluate_stream(spec, model, stats, block)
