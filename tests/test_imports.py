"""Every name a vibanom module imports is used in that module, every
private module-level name is used somewhere in the package, and every
public one somewhere besides its definition: in the package, a bench or
demo script, or the README. No function of the package takes a parameter
whose name starts with an underscore, nor one that its body never reads.

The package's __init__.py is exempt from the import check: its imports are
the public re-exports. A name listed in a module's __all__ counts as used,
but a re-export in __init__.py does not count as a use of a public name.
An attribute x.name counts as a use of name only when x is a vibanom
module, so a homonym such as str.encode is not a use of dcan.encode.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vibanom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
SCRIPTS = {
    str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
    for p in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
}
README = (ROOT / "README.md").read_text(encoding="utf-8")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import os\nimport re\nfrom typing import List, Tuple\nx: List = re.compile('a')\n"
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


def private_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter of a function in
    source whose name starts with an underscore: a private knob that only
    some callers are meant to turn."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            found += [(node.lineno, node.name, p.arg) for p in params if p.arg.startswith("_")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_parameters(path):
    assert private_parameters(path.read_text(encoding="utf-8")) == []


def test_detects_a_private_parameter():
    source = ("def report(x, *, _scratch=None):\n    return x\n"
              "class A:\n    def f(self, _n, m, *_rest, **_extra):\n        return m\n"
              "g = lambda _: 0\n")
    assert private_parameters(source) == [
        (1, "report", "_scratch"), (4, "f", "_n"), (4, "f", "_rest"), (4, "f", "_extra")
    ]


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter of a function or
    lambda in source, other than self or cls, that its body never reads;
    a read in a nested function counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            found += [
                (node.lineno, name, p.arg) for p in params
                if p.arg not in ("self", "cls") and p.arg not in read
            ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_detects_an_unread_parameter():
    source = ("def run(task, count, meet=None):\n    return task(count)\n"
              "class A:\n    def f(self, n, *rest, **extra):\n        return extra\n"
              "    @classmethod\n    def g(cls, m):\n        def inner():\n            return m\n"
              "        return inner\n"
              "h = lambda k, meet: k\n")
    assert unread_parameters(source) == [
        (1, "run", "meet"), (4, "f", "n"), (4, "f", "rest"), (11, "<lambda>", "meet")
    ]


def _bound_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _module_names(tree, modules: set) -> set:
    """The names tree binds to the vibanom package or to one of its
    modules (the module file stems in modules), however imported."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "vibanom":
                    names.add(alias.asname or "vibanom")
        elif isinstance(node, ast.ImportFrom) and (
            (node.level and node.module is None) or (not node.level and node.module == "vibanom")
        ):
            names.update(a.asname or a.name for a in node.names if a.name in modules)
    return names


def _is_module(node, names: set, modules: set) -> bool:
    if isinstance(node, ast.Name):
        return node.id in names
    return isinstance(node, ast.Attribute) and node.attr in modules and _is_module(
        node.value, names, modules
    )


def _used_names(stmt, names: set, modules: set) -> set:
    """Names stmt uses: bare names, imported names, and attributes of the
    vibanom modules bound to names."""
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and _is_module(node.value, names, modules):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _uses(source: str, modules: set) -> list:
    """The names each top-level statement of source uses, in order."""
    tree = ast.parse(source)
    names = _module_names(tree, modules)
    return [(stmt, _used_names(stmt, names, modules)) for stmt in tree.body]


def _unreferenced(sources: dict, wanted, modules: set) -> list:
    """(module, line, name) of each module-level name for which wanted(name)
    holds and that no top-level statement of any module uses, besides the
    one defining it."""
    statements = [
        (module, stmt, used) for module, source in sources.items()
        for stmt, used in _uses(source, modules)
    ]
    uses = [used for _, _, used in statements]
    unused = []
    for k, (module, stmt, _) in enumerate(statements):
        for name in _bound_names(stmt):
            if wanted(name) and not any(name in used for j, used in enumerate(uses) if j != k):
                unused.append((module, stmt.lineno, name))
    return unused


def _stems(sources: dict) -> set:
    """The package's module names, from its file names."""
    return {Path(module).stem for module in sources} - {"__init__"}


def unreferenced_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level name that no
    top-level statement of any module uses, besides the one defining it."""
    return _unreferenced(sources, lambda name: name.startswith("_") and not name.startswith("__"),
                         _stems(sources))


def unreferenced_public_names(sources: dict, scripts: dict, readme: str) -> list:
    """(module, line, name) of each public module-level name (function,
    class or assignment) of a package module that nothing references but
    its definition: no other statement of the package outside __init__.py,
    no script, and no word of readme."""
    stems = _stems(sources)
    outside = set().union(
        *(used for source in scripts.values() for _, used in _uses(source, stems))
    )
    modules = {module: source for module, source in sources.items() if module != "__init__.py"}
    return _unreferenced(modules, lambda name: not (
        name.startswith("_") or name in outside or re.search(r"\b%s\b" % name, readme)
    ), stems)


def test_no_unreferenced_private_names():
    assert unreferenced_private_names(SOURCES) == []


def test_detects_an_unreferenced_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_SPARE = 4\ndef _loop(n):\n    return _loop(n - 1)\n"
        "def _helper():\n    return _LIMIT\n",
        "b.py": "from a import _helper as h\nx = h()\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a.py", 2, "_SPARE"), ("a.py", 3, "_loop")
    ]


def test_no_unreferenced_public_names():
    assert unreferenced_public_names(SOURCES, SCRIPTS, README) == []


def test_detects_an_unreferenced_public_name():
    sources = {
        "__init__.py": "from .ingest import FrameStream, frame_stream, read_frames\n",
        "ingest.py": "from typing import Union\nFrameStream = Union[int, str]\n"
        "def frame_stream(x):\n    return frame_stream(x)\n"
        "def read_frames(path):\n    return path\ndef write_frames(path):\n    return path\n"
        "class FrameFile:\n    pass\n",
        "fleet.py": "from .ingest import write_frames\n",
    }
    scripts = {"bench/run.py": "from vibanom import ingest\ningest.read_frames('a')\n"}
    assert unreferenced_public_names(sources, scripts, "a `FrameFile` opens a file") == [
        ("ingest.py", 2, "FrameStream"), ("ingest.py", 3, "frame_stream")
    ]


def test_a_homonym_attribute_is_not_a_use():
    sources = {
        "dcan.py": "def encode(x):\n    return x\ndef reconstruct(x):\n    return x\n"
        "def build(x):\n    return x\n",
        "training.py": "from . import dcan\ndef _load():\n    return 'a'.encode(), dcan.build(1)\n",
    }
    scripts = {"bench/run.py": "import vibanom.dcan as d\nimport numpy as np\n"
               "np.reconstruct(d.encode)\n"}
    assert unreferenced_public_names(sources, scripts, "") == [("dcan.py", 3, "reconstruct")]
    scripts = {"bench/run.py": "import vibanom\nvibanom.dcan.reconstruct(1)\n"}
    assert unreferenced_public_names(sources, scripts, "") == [("dcan.py", 1, "encode")]
