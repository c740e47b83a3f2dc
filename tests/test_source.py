"""Rules on the library's own source text."""

import ast
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
