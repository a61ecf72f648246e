"""Every name a package module takes with `from ... import` is used there,
and every private top-level name is used somewhere in the package.

Deleting a duplicate helper tends to leave its imports, or helpers only it
called, behind; this keeps them from piling up.  `__init__.py` re-exports
on purpose and is skipped by the import check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pgshapes"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level names with one leading underscore, by defining statement."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node
    return out


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read, imported or taken as attributes in tree, outside skip."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """`module:name` for each private top-level name that nothing but its
    own definition refers to."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    dead = []
    for module, tree in trees.items():
        elsewhere = set().union(
            *(referenced_names(t) for m, t in trees.items() if m != module)
        )
        for name, node in private_definitions(tree).items():
            if name not in elsewhere and name not in referenced_names(tree, skip=node):
                dead.append(f"{module}:{name}")
    return sorted(dead)


def test_dead_helpers_are_found():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): _dead()\n_shared = 1\n"
                "_table: dict = {}\nx = _used()\n",
        "b.py": "from a import _shared\nclass _Gone: pass\n",
    }
    assert dead_helpers(sources) == ["a.py:_dead", "a.py:_table", "b.py:_Gone"]


def test_no_dead_private_helpers():
    assert dead_helpers({p.name: p.read_text(encoding="utf-8") for p in SOURCES}) == []
