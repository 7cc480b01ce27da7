"""Source rules of the library, its tools and its tests: every line of
``src/boxmatch``, ``tools`` and ``tests`` fits in 100 characters, no library
module but ``__init__`` imports a name it never uses, no library module calls
``argmax``, and the package's public names are those its submodules define,
listed once."""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest

import boxmatch

MAX_LINE = 100
ROOT = Path(__file__).parents[1]
SOURCES = [path for folder in (ROOT / "src" / "boxmatch", ROOT / "tools", ROOT / "tests")
           for path in sorted(folder.glob("*.py"))]


def test_the_package_has_sources():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_line_is_longer_than_100_characters(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [f"{path.name}:{no}: {len(line)}" for no, line in enumerate(lines, 1)
            if len(line) > MAX_LINE]
    assert long == []


LIBRARY = [path for path in SOURCES if path.parent.name == "boxmatch"]
MODULES = [path for path in LIBRARY if path.stem != "__init__"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    """A name bound by an import is read somewhere in the module; ``__init__``
    imports to re-export, and a ``from __future__`` import is a directive."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []


@pytest.mark.parametrize("path", LIBRARY, ids=[path.name for path in LIBRARY])
def test_no_module_calls_argmax(path):
    """``geometry._row_best`` is the one row reduction: a running max over the
    contiguous rows of an object-major matrix, where an ``argmax`` along its
    20-50-wide rows would read strided memory."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "argmax" in getattr(node.func, "attr", getattr(node.func, "id", ""))]
    assert calls == []


def test_the_public_names_are_sorted_and_neither_private_nor_modules():
    names = boxmatch.__all__
    assert names == sorted(names)
    assert [name for name in names if name.startswith("_")] == []
    assert [name for name in names if isinstance(getattr(boxmatch, name), ModuleType)] == []


def test_a_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from boxmatch import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(boxmatch.__all__)


def test_each_public_name_is_defined_in_a_submodule():
    """Each name is the very object a ``boxmatch`` submodule holds under it; a
    function or class must be that of the submodule its ``__module__`` names,
    so an imported helper such as ``ModuleType``, or the ``annotations`` that
    ``from __future__ import annotations`` binds in every submodule, fails."""
    submodules = [importlib.import_module(f"boxmatch.{info.name}")
                  for info in pkgutil.iter_modules(boxmatch.__path__)]
    strays = []
    for name in boxmatch.__all__:
        value = getattr(boxmatch, name)
        home = getattr(value, "__module__", None)
        homes = [module for module in submodules if home in (None, module.__name__)]
        if not any(getattr(module, name, None) is value for module in homes):
            strays.append(name)
    assert strays == []
