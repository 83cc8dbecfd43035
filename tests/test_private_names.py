"""Every private module-level name of the package is read somewhere in it.

A function, class or constant whose name starts with `_` is no export, so
when nothing in `src/cyclelattice/` reads it any more it is dead code.  No
linter runs on the package, so a deletion that leaves such a helper behind
fails here instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cyclelattice"


def _defined(tree: ast.Module) -> set[str]:
    """The private names a module binds at its top level: functions,
    classes and assigned constants, dunder names left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names, attributes, and names
    imported from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for each private top-level name of these modules (name ->
    source) that none of them reads, sorted."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_read, trees.values()))
    return sorted(
        f"{module}.{name}" for module, tree in trees.items() for name in _defined(tree) - read
    )


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_an_unread_private_name_is_caught():
    sources = {
        "a": (
            "_KINDS = ('x', 'y')\n"
            "_USED = 1\n"
            "def _helper(): return _USED\n"
            "class _Left: pass\n"
            "def _called(): pass\n"
            "__all__ = []\n"
        ),
        "b": "from .a import _helper\ndef f(m):\n    return _helper() + m._called()\n",
    }
    assert _unread_private_names(sources) == ["a._KINDS", "a._Left"]
