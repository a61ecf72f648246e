"""Every name a package module takes with `from ... import` is used there,
every name the package does not export is read by the package or the
benchmark, and the only functions that can call themselves are the ones
listed in RECURSION_SITES.

Deleting a duplicate helper tends to leave its imports, or helpers only it
called, behind; and a helper only the tests read belongs with the tests.
This keeps both from piling up.  `__init__.py` re-exports on purpose and is
skipped by the import check.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import pgshapes
from pgshapes.shapes import strongly_connected

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pgshapes"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
# The benchmark drives the package from outside, so what it reads is used.
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
EXPORTED = frozenset(pgshapes.__all__)


def texts(paths) -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in paths}


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


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level names other than dunders, by defining statement."""
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
            if not name.startswith("__"):
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


def dead_helpers(sources: dict[str, str], readers: dict[str, str],
                 exported=frozenset()) -> list[str]:
    """`module:name` for each top-level name of sources outside `exported`
    that nothing but its own definition refers to: no other module of
    sources, no module of readers, and no other statement of its own."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    outside = [referenced_names(ast.parse(text)) for text in readers.values()]
    dead = []
    for module, tree in trees.items():
        elsewhere = set().union(
            *outside, *(referenced_names(t) for m, t in trees.items() if m != module)
        )
        for name, node in definitions(tree).items():
            if (name not in exported and name not in elsewhere
                    and name not in referenced_names(tree, skip=node)):
                dead.append(f"{module}:{name}")
    return sorted(dead)


def test_dead_helpers_are_found():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): _dead()\n_shared = 1\n"
                "_table: dict = {}\nx = _used()\n__all__ = ['api', 'x']\n"
                "def api(): pass\ndef timed(): pass\ndef tested(): pass\n",
        "b.py": "from a import _shared\nclass _Gone: pass\nclass Kept: pass\n",
    }
    # Tests are not readers: a name only they read is left over.
    readers = {"bench.py": "import a, b\na.timed(b.Kept())\n"}
    assert dead_helpers(sources, readers, exported={"api", "x"}) == [
        "a.py:_dead", "a.py:_table", "a.py:tested", "b.py:_Gone",
    ]


def test_no_dead_private_helpers():
    # Private here means outside pgshapes.__all__.
    assert dead_helpers(texts(SOURCES), texts(BENCHMARK), EXPORTED) == []


# ---------------------------------------------------------------------------
# Methods of the classes the package does not export: only the package and
# the benchmark build them, so a method neither names is left over.  Names
# are not resolved to classes: any attribute of the same name keeps a method
# alive.


def name_counts(tree: ast.AST) -> Counter:
    """How often each name is read, imported or taken as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    )


def dead_methods(sources: dict[str, str], readers: dict[str, str],
                 exported=frozenset()) -> list[str]:
    """`module:Class.method` for each method of a top-level class of sources
    outside `exported`, dunders aside, that nothing in sources or readers
    names outside the method itself."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    counts = sum(
        (name_counts(t) for t in [*trees.values(), *map(ast.parse, readers.values())]),
        Counter(),
    )
    dead = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name in exported:
                continue
            for fn in cls.body:
                if (isinstance(fn, FUNCTIONS) and not fn.name.startswith("__")
                        and counts[fn.name] == name_counts(fn)[fn.name]):
                    dead.append(f"{module}:{cls.name}.{fn.name}")
    return sorted(dead)


def test_dead_methods_are_found():
    sources = {
        "a.py": "class _Budget:\n"
                "    def __init__(self): self.spend()\n"
                "    def spend(self): pass\n"
                "    def finish(self): self.finish()\n"
                "    def report(self): pass\n"
                "    def peek(self): pass\n"
                "class Public:\n    def unused(self): pass\n"
                "class Internal:\n    def probe(self): pass\n",
    }
    # Tests are not readers: a method only they call is left over.
    readers = {"bench.py": "from a import _Budget\n_Budget().report()\n"}
    assert dead_methods(sources, readers, exported={"Public"}) == [
        "a.py:Internal.probe", "a.py:_Budget.finish", "a.py:_Budget.peek",
    ]


def test_no_dead_private_methods():
    # Private here means outside pgshapes.__all__.
    assert dead_methods(texts(SOURCES), texts(BENCHMARK), EXPORTED) == []


# ---------------------------------------------------------------------------
# Recursion sites: MAX_NESTING bounds the depth of each one, so a new
# recursive helper has to be listed here and bounded the same way.

RECURSION_SITES = {
    "parser.py": {  # the recursive descent
        "_Parser.or_constraint", "_Parser.and_constraint", "_Parser.unary_constraint",
        "_Parser.primary_constraint", "_Parser.counting", "_Parser.predicate_and",
        "_Parser.predicate_atom", "_Parser.path", "_Parser.path_seq",
        "_Parser.path_prefix", "_Parser.path_postfix", "_Parser.path_primary",
    },
    # Grounding recurses at compile time through these two.  The compiled
    # functions recurse into each other through variables, which this
    # static call graph cannot see; MAX_NESTING bounds that recursion too,
    # and tests/test_cli.py validates the deepest nesting the parser accepts.
    "semantics.py": {"matches_predicate", "_grounding.compiled", "_grounding.moved"},
    "printer.py": {"render_target"},
    "transforms.py": {"_conjunction"},
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(fn: ast.AST):
    """The nodes of a function's body outside the functions and classes
    defined in it (their definitions included)."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def call_graph(source: str) -> dict[str, set[str]]:
    """Each function and method of a module, by dotted name (`f.inner`,
    `Class.method`), and the ones it names: a function by a plain name in
    scope, a method of its own class through `self` or `cls`."""
    tree = ast.parse(source)
    graph: dict[str, set[str]] = {}

    def visit(fn, name, scope, methods):
        inner = [n for n in own_nodes(fn) if isinstance(n, FUNCTIONS)]
        scope = {**scope, **{f.name: f"{name}.{f.name}" for f in inner}}
        graph[name] = set()
        for node in own_nodes(fn):
            if isinstance(node, ast.Name) and node.id in scope:
                graph[name].add(scope[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in ("self", "cls") and node.attr in methods):
                graph[name].add(methods[node.attr])
        for f in inner:
            visit(f, f"{name}.{f.name}", scope, methods)

    top = {n.name: n.name for n in tree.body if isinstance(n, FUNCTIONS)}
    for fn in (n for n in tree.body if isinstance(n, FUNCTIONS)):
        visit(fn, fn.name, top, {})
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        fns = [n for n in cls.body if isinstance(n, FUNCTIONS)]
        methods = {f.name: f"{cls.name}.{f.name}" for f in fns}
        for fn in fns:
            visit(fn, methods[fn.name], top, methods)
    return graph


def recursion_sites(source: str) -> set[str]:
    """The functions on a cycle of the module's call graph."""
    graph = call_graph(source)
    names = sorted(graph)
    ids = {n: i for i, n in enumerate(names)}
    components = strongly_connected([[ids[m] for m in graph[n]] for n in names])
    return {
        names[v] for component in components for v in component
        if len(component) > 1 or names[v] in graph[names[v]]
    }


def test_recursive_helpers_are_found():
    source = (
        "def _depth(x):\n    return 1 + _depth(x.inner) if x else 0\n"
        "def even(n):\n    return n == 0 or odd(n - 1)\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n"
        "def flat(xs):\n    return [_depth(x) for x in xs]\n"
        "def outer(t):\n    def walk(u):\n        return [walk(c) for c in u]\n"
        "    return walk(t)\n"
        "class P:\n    def unary(self):\n        return self.unary() if self.more else self.atom()\n"
        "    def atom(self):\n        return 1\n"
    )
    assert recursion_sites(source) == {"_depth", "even", "odd", "outer.walk", "P.unary"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_recursion_sites_are_the_listed_ones(path):
    found = recursion_sites(path.read_text(encoding="utf-8"))
    assert found == RECURSION_SITES.get(path.name, set())
