"""Every name a package module takes with `from ... import` is used there.

Deleting a duplicate helper tends to leave its imports behind; this keeps
them from piling up.  `__init__.py` re-exports on purpose and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pgshapes"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by `from ... import` that no expression reads."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from a import b, c as d\nfrom __future__ import annotations\nd()\n"
    assert unused_imports(source) == ["b"]


def test_modules_found():
    assert {"shapes.py", "semantics.py", "transforms.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
