"""Invariants in the package raise typed errors, never bare asserts:
``python -O`` strips assert statements, and with them the check."""

import ast
from pathlib import Path

import curvezeta

SOURCES = sorted(Path(curvezeta.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
