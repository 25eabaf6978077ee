"""Every name a vibanom module imports is used in that module, every
private module-level name is used somewhere in the package, and every
public one somewhere besides its definition: in the package, a bench or
demo script, or the README.

The package's __init__.py is exempt from the import check: its imports are
the public re-exports. A name listed in a module's __all__ counts as used,
but a re-export in __init__.py does not count as a use of a public name.
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


def _used_names(stmt) -> set:
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _unreferenced(sources: dict, wanted) -> list:
    """(module, line, name) of each module-level name for which wanted(name)
    holds and that no top-level statement of any module uses, besides the
    one defining it."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    uses = [_used_names(stmt) for _, stmt in statements]
    unused = []
    for k, (module, stmt) in enumerate(statements):
        for name in _bound_names(stmt):
            if wanted(name) and not any(name in used for j, used in enumerate(uses) if j != k):
                unused.append((module, stmt.lineno, name))
    return unused


def unreferenced_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level name that no
    top-level statement of any module uses, besides the one defining it."""
    return _unreferenced(sources, lambda name: name.startswith("_") and not name.startswith("__"))


def unreferenced_public_names(sources: dict, scripts: dict, readme: str) -> list:
    """(module, line, name) of each public module-level name (function,
    class or assignment) of a package module that nothing references but
    its definition: no other statement of the package outside __init__.py,
    no script, and no word of readme."""
    outside = set().union(*(_used_names(ast.parse(source)) for source in scripts.values()))
    modules = {module: source for module, source in sources.items() if module != "__init__.py"}
    return _unreferenced(modules, lambda name: not (
        name.startswith("_") or name in outside or re.search(r"\b%s\b" % name, readme)
    ))


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
