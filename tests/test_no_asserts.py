"""The package raises explicit errors: an assert statement vanishes under
python -O, so none may appear in src/contesteq."""

import ast
from pathlib import Path

import pytest

import contesteq

SOURCES = sorted(Path(contesteq.__file__).parent.glob("*.py"))


def test_the_package_is_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"assert statements in {path.name} at lines {lines}"
