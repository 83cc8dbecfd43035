"""The names README.md puts in backticks name real code."""

import builtins
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import cyclelattice

README = Path(__file__).resolve().parents[1] / "README.md"

DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
CAMEL = re.compile(r"_?[A-Z]\w*[a-z]\w*")


def _modules() -> dict:
    """Every module of the package, by its name within the package."""
    names = [info.name for info in pkgutil.iter_modules(cyclelattice.__path__)]
    return {name: importlib.import_module(f"cyclelattice.{name}") for name in names}


def _defined_names(modules: dict) -> dict:
    """Every module-level name of the package: the package's own exports,
    and each module's names whose value is no module and no import from
    outside the package."""
    names = {name: getattr(cyclelattice, name) for name in cyclelattice.__all__}
    for module in modules.values():
        for name, value in vars(module).items():
            home = getattr(value, "__module__", module.__name__)
            if isinstance(value, ModuleType) or name.startswith("__"):
                continue
            if home.startswith("cyclelattice"):
                names.setdefault(name, value)
    return names


def _has(owner, attr: str) -> bool:
    """An attribute, or a field of a dataclass, which need not have a default."""
    if hasattr(owner, attr):
        return True
    return dataclasses.is_dataclass(owner) and attr in {f.name for f in dataclasses.fields(owner)}


def _resolves(dotted: str, modules: dict, names: dict) -> bool | None:
    """Whether a dotted name resolves; None when its head is nothing of the
    package's, as for `dataclasses.replace` or a local like `chain.bases`."""
    head, *rest = dotted.split(".")
    if head == "cyclelattice":
        head, *rest = rest
        if head not in modules and head not in names:
            return False
    owner = modules.get(head, names.get(head))
    if owner is None:
        return None
    for attr in rest:
        if not _has(owner, attr):
            return False
        owner = getattr(owner, attr, None)
    return True


def _backticked() -> list[str]:
    return re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))


def test_backticked_code_names_resolve():
    """Each dotted name whose head is a module or a module-level name of the
    package, and each bare CamelCase name that is no builtin, names code that
    exists: a README that still names a deleted class or field fails here."""
    modules = _modules()
    names = _defined_names(modules)
    missing, checked = [], 0
    for text in _backticked():
        dotted = DOTTED.match(text)
        if dotted:
            found = _resolves(dotted.group(), modules, names)
            if found is not None:
                checked += 1
                if not found:
                    missing.append(dotted.group())
        elif CAMEL.fullmatch(text) and not hasattr(builtins, text):
            checked += 1
            if text not in names:
                missing.append(text)
    assert checked >= 20
    assert not missing, sorted(set(missing))


def test_an_unknown_name_is_caught():
    """The check would catch a stale mention of either kind."""
    modules = _modules()
    names = _defined_names(modules)
    assert _resolves("Cosimplification.project", modules, names)
    assert _resolves("ExtensionSequence.base_vertex", modules, names)
    assert _resolves("certificate.RESIDUAL_CAP", modules, names)
    assert not _resolves("ExtensionSequence.base", modules, names)
    assert not _resolves("certificate.NO_SUCH_CAP", modules, names)
    assert _resolves("dataclasses.replace", modules, names) is None
    assert "CycleBasis" in names and "SimpleBasis" not in names
    assert "EdgeVector" not in names
