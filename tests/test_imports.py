"""Every name a module of the package imports is read in that module.

No linter runs on the package, so a deletion that leaves an import behind
fails here instead.  `__init__` is left out: its imports are the exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cyclelattice"


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never loads, sorted;
    `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - loaded)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_every_import_is_read(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from .errors import ArgumentError, StructureError\n"
        "def f(x: StructureError) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert _unused_imports(source) == ["ArgumentError", "j"]
