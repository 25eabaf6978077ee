"""Every name a vibanom module imports is used in that module, and every
private module-level name is used somewhere in the package.

The package's __init__.py is exempt from the import check: its imports are
the public re-exports. A name listed in a module's __all__ counts as used.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vibanom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


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


def unreferenced_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level name that no
    top-level statement of any module uses, besides the one defining it."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    uses = [_used_names(stmt) for _, stmt in statements]
    unused = []
    for k, (module, stmt) in enumerate(statements):
        for name in _bound_names(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in used for j, used in enumerate(uses) if j != k):
                unused.append((module, stmt.lineno, name))
    return unused


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
