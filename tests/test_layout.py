"""The package's layout: each public name has one defining module, no private
name crosses a module, and every module attribute the benchmark reads exists."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qstatic"
WORKLOADS = ROOT / "bench" / "workloads.py"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _exported():
    """(module, name) for every ``__all__`` entry outside the package ``__init__``,
    the one module that re-exports."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"qstatic.{path.stem}")
        for name in getattr(module, "__all__", ()):
            yield pytest.param(path, name, id=f"{path.stem}.{name}")


def _relative_imports():
    """(module, name) for every name a relative import in the package names."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    yield pytest.param(alias.name, id=f"{path.stem}:{alias.name}")


def _workload_attributes():
    """(module, attribute) for every ``alias.attribute`` that the benchmark's
    workloads read through a qstatic module imported under an alias."""
    tree = _tree(WORKLOADS)
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("qstatic.") and alias.asname
    }
    read = sorted({
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    })
    return [pytest.param(module, attr, id=f"{module}.{attr}") for module, attr in read]


@pytest.mark.parametrize("path, name", _exported())
def test_each_exported_name_is_defined_where_it_is_exported(path, name):
    assert name in _bound_names(_tree(path)), f"{name} is imported, not defined, here"
    value = getattr(importlib.import_module(f"qstatic.{path.stem}"), name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == f"qstatic.{path.stem}"


@pytest.mark.parametrize("name", _relative_imports())
def test_no_relative_import_names_a_private_name(name):
    assert not name.startswith("_")


@pytest.mark.parametrize("module, attr", _workload_attributes())
def test_every_module_attribute_the_workloads_read_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_writes_through_object_setattr(path):
    # Frozen values write each slot through its own setter (``slot_setters``).
    found = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert not found, f"object.__setattr__ at lines {found}"
