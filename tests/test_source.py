"""Rules on the library's own source text."""

import ast
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
