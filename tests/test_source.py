"""Checks on the package's own source code."""

import ast
import pathlib

import volformer


def test_no_assert_statements():
    """python -O strips assert statements, so none may guard a condition
    in the package: a check that must hold raises an error instead."""
    sources = sorted(pathlib.Path(volformer.__file__).parent.rglob("*.py"))
    assert "tensor.py" in {path.name for path in sources}
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
