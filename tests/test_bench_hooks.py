"""The benchmark's trace hooks still name functions of the program.

bench/spans.py times vibanom by swapping wrappers in for the functions it
lists in TRACED and NN_PASSES, looked up by module and name. A refactor
that renames or drops one of them would silently drop its per-layer
metrics from a traced run, so this reads those two tables (as literals,
without importing the benchmark) and checks each name resolves to a
function of the named vibanom module. It also checks that monitor reads
its streams through a name such a swap reaches.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from vibanom import cli, dcan, ingest
from vibanom.fleet import FleetConfig, PredictorSpec, save_fleet_config
from vibanom.scoring import ScoreNormalization
from vibanom.training import StandardizationStats, save_checkpoint

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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


def test_monitor_reads_each_stream_once_through_the_module_name(tmp_path, monkeypatch):
    # bench/spans.py times the reads by rebinding every vibanom module's
    # name for ingest.read_frames; monitor must read each stream there, once
    ckpt = tmp_path / "m.ckpt"
    stats = StandardizationStats(np.zeros(3, np.float32), np.ones(3, np.float32))
    save_checkpoint(dcan.build(dcan.DcanConfig(), seed=0), stats, ckpt)
    names = ("a", "b", "c")
    specs = tuple(
        PredictorSpec(id=n, location=n, checkpoint=str(ckpt),
                      normalization=ScoreNormalization(mu=1.0, sigma=0.5))
        for n in names
    )
    save_fleet_config(FleetConfig(predictors=specs), tmp_path / "fleet.json")
    streams = tmp_path / "streams"
    streams.mkdir()
    rng = np.random.default_rng(0)
    for n in names[:2]:  # c has no stream file
        ingest.write_frames(streams / (n + ".frames"), [
            ingest.Frame(rng.normal(size=(3, ingest.FRAME_LEN)).astype(np.float32), timestamp=t)
            for t in range(3)
        ])

    original, calls = ingest.read_frames, []

    def counting(path):
        calls.append(str(path))
        return original(path)

    for name, module in list(sys.modules.items()):
        if name == "vibanom" or name.startswith("vibanom."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    argv = ["monitor", "--config", str(tmp_path / "fleet.json"),
            "--frames", str(streams), "--out", str(tmp_path / "r.log")]
    assert cli.main(argv) == 0
    assert sorted(calls) == [str(streams / "a.frames"), str(streams / "b.frames")]
