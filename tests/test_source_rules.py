"""Rules the package's source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import zipftree

PACKAGE = Path(zipftree.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so every check the package
    # relies on must raise an exception instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
