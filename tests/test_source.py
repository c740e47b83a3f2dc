"""Rules on the library's own source text."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cographs")
                 .glob("*.py"))


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
