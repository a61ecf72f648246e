"""Shape abstract syntax: path expressions, value predicates, targets,
constraints, shapes, and linked shape sets.

Node and edge constraints share one class hierarchy; which forms are legal
where is a linking check (see link_shapes), keyed off the owning shape's
kind.  Source spans ride along on every node but never participate in
equality, so structural comparison survives reformatting.

The tree structure is read off each class's declared field types, so a
walk never lists classes: a field typed `Constraint` is an operand, a field
typed `PathExpr` is a path (a sub-path inside a path expression), and any
other field is data.  A form that moves evaluation from one kind of element
to the other says so in its `operand_kind` (edges for the incoming and
outgoing forms, nodes for src and dst); a form that holds a path evaluates
its operand at nodes.  iter_constraints, constraint_paths, map_children,
fold, rewrite, child_kind, kind_walk, mentioned_names and link_shapes are
built on that rule alone.

The rule is applied once per class, not per node.  Each field type has an
operand table (_OPERANDS) that maps a class, on its first lookup, to a
getter of its fields of that type as a tuple, so a walk reads a node's
operands with one dict lookup and one call.  _FORMS adds what linking and
kind_walk read off a constraint class: its operand kind, whether it holds a
path, whether it is a core form, whether it has a count, and the kind its
operands are evaluated at (child_kind's rule, applied there alone).

link_shapes runs every check on kind_walk's list of each shape's (subterm,
kind) pairs: kinds, references and counts.  The same loop collects the
names referenced and notes whether every subterm is a core form;
desugar_shapes reads the note (ShapeSet.sugar_free) instead of walking each
linked shape again.

Trees are DAGs: desugaring `= n p . c` shares `c` between two subtrees,
so k nested exact counts hold 2^k paths to their innermost operand.  So
every walk visits each object once, by identity, on a list used as an
explicit stack, and other modules walk trees only through these functions
(fold for per-node rules over their operands' results).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import count
from operator import attrgetter, is_
from typing import Callable, ClassVar, Iterable, Iterator, NamedTuple, Sequence

from .errors import KindMismatch, UnknownShapeName
from .graph import EDGE, NODE
from .values import CMP_OPS, SET_COMPARATORS, VALUE_TYPES, Value


@dataclass(frozen=True)
class Span:
    """Half-open byte offsets plus the 1-based line/column of the start."""

    start: int
    end: int
    line: int
    column: int


def _span_field():
    return field(default=None, compare=False, repr=False, kw_only=True)


# ---------------------------------------------------------------------------
# Path expressions


@dataclass(frozen=True)
class PathExpr:
    span: Span | None = _span_field()


@dataclass(frozen=True)
class EdgeLabel(PathExpr):
    name: str


@dataclass(frozen=True)
class Inverse(PathExpr):
    inner: PathExpr


@dataclass(frozen=True)
class Seq(PathExpr):
    first: PathExpr
    second: PathExpr


@dataclass(frozen=True)
class Alt(PathExpr):
    first: PathExpr
    second: PathExpr


@dataclass(frozen=True)
class Star(PathExpr):
    inner: PathExpr


@dataclass(frozen=True)
class Plus(PathExpr):
    inner: PathExpr


@dataclass(frozen=True)
class Opt(PathExpr):
    inner: PathExpr


def _no_operands(node) -> tuple:
    return ()


class _Operands(dict):
    """Each class to a function from its objects to their fields typed
    `type_name`, in order, as a tuple; `names` holds the fields' names.
    Both are read off the class's declared field types on its first lookup,
    so a walk pays one dict lookup per node."""

    def __init__(self, type_name: str):
        super().__init__()
        self.type_name = type_name
        self.names: dict[type, tuple[str, ...]] = {}

    def __missing__(self, cls: type) -> Callable[[object], tuple]:
        names = tuple(f.name for f in fields(cls) if f.type == self.type_name)
        if len(names) > 1:
            get = attrgetter(*names)
        elif names:
            one = attrgetter(names[0])
            get = lambda node: (one(node),)
        else:
            get = _no_operands
        self.names[cls] = names
        self[cls] = get
        return get


# Field type name -> its operand table.
_OPERANDS = {name: _Operands(name) for name in ("Constraint", "PathExpr", "ValuePredicate")}
_CONSTRAINTS = _OPERANDS["Constraint"]
_PATHS = _OPERANDS["PathExpr"]


def fold(root, rule: Callable, type_name: str = "Constraint"):
    """rule(node, results) at every object under root through the fields
    typed `type_name`, where results lists the rule's results at node's
    operands; the result at root.  Objects are folded operands first and
    first operand first, each once however many paths lead to it.  A result
    is dropped once its last reader has read it, so a fold that builds text
    holds about two levels of a chain at a time."""
    operands = _OPERANDS[type_name]
    # One walk lists each object once, as (object, operands) after its
    # operands, and alone again wherever another operand field holds it;
    # `rereads` counts those listings.
    order, rereads, entered, stack = [], {}, set(), [root]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # an entered object, its operands now listed
            order.append(node)
        elif id(node) in entered:
            rereads[id(node)] = rereads.get(id(node), 0) + 1
            order.append(node)
        else:
            entered.add(id(node))
            below = operands[type(node)](node)
            stack.append((node, below))
            stack += reversed(below)
    # A result waits on `results` until its reader takes it; one that is
    # read again waits in `kept` until its last reread.
    results, kept = [], {}
    for item in order:
        if type(item) is tuple:
            node, below = item
            if below:
                result = rule(node, results[-len(below):])
                del results[-len(below):]
            else:
                result = rule(node, [])
            if id(node) in rereads:
                kept[id(node)] = result
        else:
            left = rereads[id(item)] - 1
            rereads[id(item)] = left
            result = kept[id(item)] if left else kept.pop(id(item))
        results.append(result)
    return results[0]


# ---------------------------------------------------------------------------
# Value predicates


@dataclass(frozen=True)
class ValuePredicate:
    span: Span | None = _span_field()


@dataclass(frozen=True)
class AnyValue(ValuePredicate):
    pass


@dataclass(frozen=True)
class TypeIs(ValuePredicate):
    type_name: str

    def __post_init__(self):
        if self.type_name not in VALUE_TYPES:
            raise ValueError(f"bad value type: {self.type_name!r}")


@dataclass(frozen=True)
class Cmp(ValuePredicate):
    op: str
    constant: Value

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"bad comparison operator: {self.op!r}")


@dataclass(frozen=True)
class PredAnd(ValuePredicate):
    first: ValuePredicate
    second: ValuePredicate


@dataclass(frozen=True)
class PredNot(ValuePredicate):
    inner: ValuePredicate


# ---------------------------------------------------------------------------
# Targets


@dataclass(frozen=True)
class Target:
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Nothing(Target):
    """The empty target: the shape constrains only what references it."""


@dataclass(frozen=True)
class TargetExact(Target):
    element: str


@dataclass(frozen=True)
class TargetLabel(Target):
    label: str


@dataclass(frozen=True)
class TargetKey(Target):
    key: str


@dataclass(frozen=True)
class TargetKeyValue(Target):
    value: Value
    key: str


@dataclass(frozen=True)
class TargetAnd(Target):
    """Sugar: both sub-targets must match.  One level deep only."""

    first: Target
    second: Target


@dataclass(frozen=True)
class TargetOr(Target):
    """Sugar: either sub-target matches.  One level deep only."""

    first: Target
    second: Target


# ---------------------------------------------------------------------------
# Constraints


@dataclass(frozen=True)
class Constraint:
    span: Span | None = _span_field()
    # The kind of element the operands are evaluated at, for the forms that
    # move from one kind to the other; None keeps the context's kind.
    operand_kind: ClassVar[str | None] = None


@dataclass(frozen=True)
class Top(Constraint):
    pass


@dataclass(frozen=True)
class ShapeRef(Constraint):
    name: str


@dataclass(frozen=True)
class Exact(Constraint):
    """True exactly at the element with this id."""

    element: str


@dataclass(frozen=True)
class HasLabel(Constraint):
    label: str


@dataclass(frozen=True)
class Not(Constraint):
    inner: Constraint


@dataclass(frozen=True)
class And(Constraint):
    first: Constraint
    second: Constraint


@dataclass(frozen=True)
class QualPath(Constraint):
    """At least `count` nodes reached over `path` satisfy `inner`."""

    count: int
    path: PathExpr
    inner: Constraint


@dataclass(frozen=True)
class QualIncoming(Constraint):
    """At least `count` incoming edges satisfy `inner` (edges counted)."""

    operand_kind = EDGE
    count: int
    inner: Constraint


@dataclass(frozen=True)
class QualOutgoing(Constraint):
    operand_kind = EDGE
    count: int
    inner: Constraint


@dataclass(frozen=True)
class QualKey(Constraint):
    """At least `count` values under `key` match the predicate (two-valued)."""

    count: int
    key: str
    predicate: ValuePredicate


@dataclass(frozen=True)
class PathCmp(Constraint):
    """Compare the node sets reached over two paths (two-valued)."""

    op: str
    first: PathExpr
    second: PathExpr

    def __post_init__(self):
        if self.op not in SET_COMPARATORS:
            raise ValueError(f"bad set comparator: {self.op!r}")


@dataclass(frozen=True)
class PathKeyCmp(Constraint):
    """Compare value sets gathered under a key over each path (two-valued)."""

    op: str
    first_path: PathExpr
    first_key: str
    second_path: PathExpr
    second_key: str

    def __post_init__(self):
        if self.op not in SET_COMPARATORS:
            raise ValueError(f"bad set comparator: {self.op!r}")


@dataclass(frozen=True)
class KeyCmp(Constraint):
    """Compare the element's own value sets under two keys (two-valued)."""

    op: str
    first_key: str
    second_key: str

    def __post_init__(self):
        if self.op not in SET_COMPARATORS:
            raise ValueError(f"bad set comparator: {self.op!r}")


@dataclass(frozen=True)
class Src(Constraint):
    """The edge's source node satisfies `inner`."""

    operand_kind = NODE
    inner: Constraint


@dataclass(frozen=True)
class Dst(Constraint):
    """The edge's destination node satisfies `inner`."""

    operand_kind = NODE
    inner: Constraint


# Sugared constraint forms, each with a core reading (sugar.desugar_form):
# `a | b` is `!(!a & !b)`, `<= n B` is `!(>= n+1 B)`, and `= n B` is
# `>= n B & !(>= n+1 B)`.  These never reach evaluation; desugar first.


@dataclass(frozen=True)
class Or(Constraint):
    first: Constraint
    second: Constraint


@dataclass(frozen=True)
class AtMostPath(Constraint):
    count: int
    path: PathExpr
    inner: Constraint


@dataclass(frozen=True)
class AtMostIncoming(Constraint):
    operand_kind = EDGE
    count: int
    inner: Constraint


@dataclass(frozen=True)
class AtMostOutgoing(Constraint):
    operand_kind = EDGE
    count: int
    inner: Constraint


@dataclass(frozen=True)
class AtMostKey(Constraint):
    count: int
    key: str
    predicate: ValuePredicate


@dataclass(frozen=True)
class ExactlyPath(Constraint):
    count: int
    path: PathExpr
    inner: Constraint


@dataclass(frozen=True)
class ExactlyIncoming(Constraint):
    operand_kind = EDGE
    count: int
    inner: Constraint


@dataclass(frozen=True)
class ExactlyOutgoing(Constraint):
    operand_kind = EDGE
    count: int
    inner: Constraint


@dataclass(frozen=True)
class ExactlyKey(Constraint):
    count: int
    key: str
    predicate: ValuePredicate


# The counting forms by operator: over a path, incoming edges, outgoing
# edges, and a key's values.  The parser, the printer and the desugaring
# read this one table.
COUNTING_FORMS = {
    ">=": (QualPath, QualIncoming, QualOutgoing, QualKey),
    "<=": (AtMostPath, AtMostIncoming, AtMostOutgoing, AtMostKey),
    "=": (ExactlyPath, ExactlyIncoming, ExactlyOutgoing, ExactlyKey),
}


CORE_CONSTRAINTS = (
    Top,
    ShapeRef,
    Exact,
    HasLabel,
    Not,
    And,
    QualPath,
    QualIncoming,
    QualOutgoing,
    QualKey,
    PathCmp,
    PathKeyCmp,
    KeyCmp,
    Src,
    Dst,
)


class _Form(NamedTuple):
    """What linking and kind_walk read off a constraint class."""

    operands: Callable[[Constraint], tuple]  # its _CONSTRAINTS getter
    operand_kind: str | None
    holds_path: bool
    core: bool                               # one of CORE_CONSTRAINTS
    counted: bool                            # has a `count` field
    inner: dict[str, str]                    # child_kind, by the form's kind


class _Forms(dict):
    """Each constraint class to its _Form, built on the class's first lookup."""

    def __missing__(self, cls: type) -> _Form:
        holds_path = _PATHS[cls] is not _no_operands
        # A form that moves evaluation says where to; a path ends at nodes.
        inner = {kind: cls.operand_kind or (NODE if holds_path else kind)
                 for kind in (NODE, EDGE)}
        form = self[cls] = _Form(
            _CONSTRAINTS[cls], cls.operand_kind, holds_path, cls in CORE_CONSTRAINTS,
            any(f.name == "count" for f in fields(cls)), inner,
        )
        return form


_FORMS = _Forms()


def iter_constraints(c: Constraint) -> list[Constraint]:
    """The objects of a constraint tree (core forms and sugar), each once,
    parents first and first operand first."""
    out, seen, stack = [], set(), [c]
    while stack:
        sub = stack.pop()
        if id(sub) not in seen:
            seen.add(id(sub))
            out.append(sub)
            stack += reversed(_CONSTRAINTS[type(sub)](sub))
    return out


def _children(c: Constraint) -> tuple[Constraint, ...]:
    return _CONSTRAINTS[type(c)](c)


def constraint_paths(c: Constraint) -> Iterator[PathExpr]:
    """The path expressions held by the constraint objects inside c."""
    for sub in iter_constraints(c):
        yield from _PATHS[type(sub)](sub)


def _rebuilt(c, new: Sequence, field_type: str = "Constraint"):
    """c with its fields typed `field_type` set to `new`, in order; c itself
    when every one is unchanged."""
    table = _OPERANDS[field_type]
    old = table[type(c)](c)
    if all(map(is_, new, old)):
        return c
    changed = {n: v for n, v, o in zip(table.names[type(c)], new, old) if v is not o}
    return type(c)(**{**vars(c), **changed})


def map_children(c: Constraint, f: Callable, field_type: str = "Constraint"):
    """c rebuilt with f applied to each operand (each field typed
    `field_type`); c itself when f returns every one unchanged."""
    operands = _OPERANDS[field_type][type(c)](c)
    return _rebuilt(c, [f(k) for k in operands], field_type) if operands else c


def map_paths(c: Constraint, f: Callable[[PathExpr], PathExpr]) -> Constraint:
    """c rebuilt with f applied to each path it holds directly."""
    return map_children(c, f, "PathExpr")


def rewrite(c: Constraint, rule: Callable[[Constraint], Constraint]) -> Constraint:
    """c rebuilt bottom-up: rule maps each object with its operands already
    rewritten.  A fold, so a shared subterm is rewritten once and its
    result stays shared."""
    return fold(c, lambda node, new: rule(_rebuilt(node, new) if new else node))


def child_kind(c: Constraint, kind: str) -> str:
    """The kind of element c's operands are evaluated at, when c itself is
    evaluated at an element of `kind`."""
    return _FORMS[type(c)].inner[kind]


_EMIT = object()  # on kind_walk's stack: the pair below is complete


def kind_walk(
    c: Constraint, kind: str, stop: Callable | None = None
) -> tuple[list[tuple[Constraint, str]], list[tuple[Constraint, str]]]:
    """The (subterm, kind) pairs under c, evaluated at an element of `kind`,
    each once, depth first and first operand first: listed parents first,
    and listed operands first.  The operands of a subterm that `stop` holds
    for are not entered.  An explicit stack lets a chain of any length fit."""
    pre, post, seen, stack = [], [], set(), [(c, kind)]
    while stack:
        item = stack.pop()
        if item is _EMIT:
            post.append(stack.pop())
            continue
        sub, ctx = item
        if (id(sub), ctx) in seen:
            continue
        seen.add((id(sub), ctx))
        pre.append(item)
        form = _FORMS[type(sub)]
        below = form.operands(sub)
        if below and (stop is None or not stop(sub)):
            stack += (item, _EMIT)
            inner = form.inner[ctx]
            stack += [(k, inner) for k in reversed(below)]
        else:
            post.append(item)
    return pre, post


def conjuncts(c, conj: type = And, neg: type = Not) -> list:
    """The operands of the `conj` chain at c, left to right, on a list:
    c alone when it is no chain.  Double `neg`ations are seen through (`!!c`
    is c in three-valued logic too), so a desugared `|` chain comes apart."""
    out, todo = [], [c]
    while todo:
        c = todo.pop()
        if isinstance(c, conj):
            todo += (c.second, c.first)
        elif isinstance(c, neg) and isinstance(c.inner, neg):
            todo.append(c.inner.inner)
        else:
            out.append(c)
    return out


def is_sugar_free(c: Constraint) -> bool:
    return all(_FORMS[type(sub)].core for sub in iter_constraints(c))


def mentioned_names(core: Iterable[Shape]) -> tuple[set[str], set[str], set[str]]:
    """The labels, the property keys and the element ids that desugared
    shapes mention in their targets, constraints and paths: one walk over
    every constraint and path object, each once."""
    labels: set[str] = set()
    keys: set[str] = set()
    ids: set[str] = set()
    stack = []
    for sh in core:
        if isinstance(sh.target, TargetLabel):
            labels.add(sh.target.label)
        elif isinstance(sh.target, (TargetKey, TargetKeyValue)):
            keys.add(sh.target.key)
        elif isinstance(sh.target, TargetExact):
            ids.add(sh.target.element)
        stack.append(sh.constraint)
    seen = set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        cls = type(x)
        if cls is EdgeLabel:
            labels.add(x.name)
        elif cls is HasLabel:
            labels.add(x.label)
        elif cls is QualKey:
            keys.add(x.key)
        elif cls is PathKeyCmp or cls is KeyCmp:
            keys.update((x.first_key, x.second_key))
        elif cls is Exact:
            ids.add(x.element)
        # A constraint's operands and paths, or a path's sub-paths.
        stack += _CONSTRAINTS[cls](x)
        stack += _PATHS[cls](x)
    return labels, keys, ids


# ---------------------------------------------------------------------------
# Shapes and shape sets


@dataclass(frozen=True)
class Shape:
    name: str
    kind: str  # NODE or EDGE
    constraint: Constraint
    target: Target
    span: Span | None = _span_field()

    def __post_init__(self):
        if self.kind not in (NODE, EDGE):
            raise ValueError(f"bad shape kind: {self.kind!r}")
        if not self.name:
            raise ValueError("empty shape name")


class ShapeSet:
    """An ordered collection of uniquely named shapes.

    link_shapes() returns a set with reference metadata attached; evaluation
    and solving require a linked set.
    """

    __slots__ = (
        "_shapes", "_by_name", "_linked", "_references", "_cycle_count", "_sugar_free",
    )

    def __init__(self, shapes: Iterable[Shape]):
        self._shapes = tuple(shapes)
        by_name: dict[str, Shape] = {}
        for s in self._shapes:
            if s.name in by_name:
                raise UnknownShapeName(f"duplicate shape name: {s.name!r}")
            by_name[s.name] = s
        self._by_name = by_name
        self._linked = False
        self._references: dict[str, frozenset[str]] = {}
        self._cycle_count = 0
        self._sugar_free = False

    @property
    def shapes(self) -> tuple[Shape, ...]:
        return self._shapes

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._shapes)

    @property
    def linked(self) -> bool:
        return self._linked

    @property
    def references(self) -> dict[str, frozenset[str]]:
        """Shape name -> names its constraint references (linked sets only)."""
        return dict(self._references)

    @property
    def cycle_count(self) -> int:
        """Number of strongly connected reference components with a cycle."""
        return self._cycle_count

    @property
    def sugar_free(self) -> bool:
        """Whether every constraint is in core forms, as linking noted
        (False on a set that is not linked)."""
        return self._sugar_free

    def get(self, name: str) -> Shape:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownShapeName(f"no such shape: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Shape]:
        return iter(self._shapes)

    def __len__(self) -> int:
        return len(self._shapes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShapeSet):
            return NotImplemented
        return self._shapes == other._shapes

    def __repr__(self) -> str:
        return f"ShapeSet({', '.join(self.names)})"


def _link_shape(shape: Shape, by_name: dict[str, Shape]) -> tuple[frozenset[str], bool]:
    """Node-only forms (those that hold a path or count edges) sit at
    nodes, src and dst at edges, each reference names a shape of its
    position's kind, and no count is negative: checked on each (subterm,
    kind) pair once, in kind_walk's parents-first order.  Returns the names
    the shape references and whether every subterm is a core form."""
    references, core = set(), True
    for c, ctx in kind_walk(shape.constraint, shape.kind)[0]:
        cls = type(c)
        _, operand_kind, holds_path, is_core, counted, _ = _FORMS[cls]
        # A form that moves its operands to one kind starts from the other;
        # a path runs between nodes.
        if operand_kind == ctx or (holds_path and ctx == EDGE):
            where = "an edge" if ctx == EDGE else "a node"
            raise KindMismatch(
                f"shape {shape.name!r}: {cls.__name__} in {where} constraint"
            )
        if cls is ShapeRef:
            ref = by_name.get(c.name)
            if ref is None:
                raise UnknownShapeName(
                    f"shape {shape.name!r} references unknown shape {c.name!r}"
                )
            if ref.kind != ctx:
                raise KindMismatch(
                    f"shape {shape.name!r} references {ref.kind} shape {c.name!r} "
                    f"in a {ctx} position"
                )
            references.add(c.name)
        elif counted and c.count < 0:
            raise ValueError(f"shape {shape.name!r}: negative count {c.count}")
        core = core and is_core
    return frozenset(references), core


def link_shapes(shapes: Iterable[Shape] | ShapeSet) -> ShapeSet:
    """Resolve shape references, check kinds, and record the reference
    graph and whether every constraint is in core forms."""
    if isinstance(shapes, ShapeSet):
        linked = ShapeSet.__new__(ShapeSet)
        linked._shapes, linked._by_name = shapes._shapes, shapes._by_name
    else:
        linked = ShapeSet(shapes)
    references: dict[str, frozenset[str]] = {}
    sugar_free = True
    for s in linked._shapes:
        references[s.name], core = _link_shape(s, linked._by_name)
        sugar_free = sugar_free and core
    linked._linked = True
    linked._references = references
    linked._cycle_count = _count_cyclic_components(references)
    linked._sugar_free = sugar_free
    return linked


def _count_cyclic_components(references: dict[str, frozenset[str]]) -> int:
    """Strongly connected reference components that contain a cycle: more
    than one shape, or one shape that references itself."""
    names = sorted(references)
    index = {name: i for i, name in enumerate(names)}
    succ = [[index[w] for w in references[v] if w in index] for v in names]
    return sum(
        1 for component in strongly_connected(succ)
        if len(component) > 1 or component[0] in succ[component[0]]
    )


def strongly_connected(succ: Sequence[Iterable[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components of the graph on vertices
    0 .. len(succ) - 1 with an edge v -> w for every w in succ[v].

    Components come in emit order: each one after every component it
    reaches.  Roots are tried in ascending order and successors in the order
    succ lists them.  The depth-first walk keeps its own stack, so a chain of
    any length fits.
    """
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    components: list[list[int]] = []
    walk: list[tuple[int, Iterator[int]]] = []  # open vertices, next successor
    visits = count()

    def visit(v: int):
        index[v] = low[v] = next(visits)
        stack.append(v)
        on_stack[v] = True
        walk.append((v, iter(succ[v])))

    for root in range(len(succ)):
        if index[root] < 0:
            visit(root)
        while walk:
            v, successors = walk[-1]
            for w in successors:
                if index[w] < 0:
                    visit(w)
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                walk.pop()
                if walk:
                    parent = walk[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components
