"""The benchmark's trace hooks still name functions of the program.

bench/spans.py times vibanom by swapping wrappers in for the functions it
lists in TRACED and NN_PASSES, looked up by module and name. A refactor
that renames or drops one of them would silently drop its per-layer
metrics from a traced run, so this reads those two tables (as literals,
without importing the benchmark) and checks each name resolves to a
function of the named vibanom module.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
