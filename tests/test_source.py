"""Rules on the library's own source text."""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cographs").glob("*.py"))
# the oldest Python that pyproject.toml admits, e.g. (3, 10)
FLOOR = tuple(map(int, re.search(
    r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8")).groups()))


def test_sources_found():
    assert "embed.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    # invariant checks must survive ``python -O``, which strips asserts
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    # the library has no runtime dependencies; relative imports stay inside it
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_at_the_requires_python_floor(path):
    # syntax newer than the floor (PEP 695 generics, except*) fails here
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=FLOOR)


def _describe(qualname: str, obj) -> list[str]:
    """Lines that pin one public name: a function's signature; a class's
    bases, dataclass fields, ``__init__`` and public members; else a type
    and value."""
    if inspect.isfunction(obj):
        return [f"{qualname}{inspect.signature(obj)}"]
    if not inspect.isclass(obj):
        return [f"{qualname}: {type(obj).__name__} = {obj!r}"]
    bases = ", ".join(base.__qualname__ for base in obj.__bases__)
    lines = [f"{qualname}: class({bases})"]
    fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
    if fields:
        lines.append(f"{qualname} fields: " + ", ".join(
            f"{f.name}: {f.type}" for f in fields))
    lines.append(f"{qualname}.__init__{inspect.signature(obj.__init__)}")
    for name, member in sorted(vars(obj).items()):
        if name.startswith("_") or name in {f.name for f in fields}:
            continue
        if isinstance(member, (staticmethod, classmethod)) or inspect.isfunction(member):
            lines.append(f"{qualname}.{name}{inspect.signature(getattr(obj, name))}")
        else:
            lines.append(f"{qualname}.{name}: {type(member).__name__}")
    return lines


def public_api() -> list[str]:
    """Every public name of ``cographs`` and of each module's ``__all__``."""
    cographs = importlib.import_module("cographs")
    lines = []
    for name in sorted(vars(cographs)):
        obj = getattr(cographs, name)
        if not name.startswith("_") and not inspect.ismodule(obj):
            lines += _describe(f"cographs.{name}", obj)
    for path in SOURCES:
        module = importlib.import_module(f"cographs.{path.stem}")
        for name in sorted(getattr(module, "__all__", ())):
            lines += _describe(f"cographs.{path.stem}.{name}",
                               getattr(module, name))
    return lines


def test_public_api_is_pinned():
    # a change to the public API shows here as a diff against the pinned
    # listing; rewrite tests/public_api.txt from public_api() when intended
    pinned = (ROOT / "tests" / "public_api.txt").read_text(encoding="utf-8")
    assert public_api() == pinned.splitlines()
