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
its operand at nodes.  iter_constraints, iter_paths, constraint_paths,
map_children, fold, rewrite, child_kind and kind_walk are built on that
rule alone.

Trees are DAGs: desugaring `= n p . c` shares `c` between two subtrees,
so k nested exact counts hold 2^k paths to their innermost operand.  So
every walk visits each object once, by identity, on an explicit stack, and
other modules walk trees only through these functions (fold for per-node
rules over their operands' results).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cache, partial
from itertools import count
from operator import attrgetter
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

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


@cache
def _typed_fields(cls: type, type_name: str) -> tuple[str, ...]:
    """The fields of cls declared with type `type_name`, in order."""
    return tuple(f.name for f in fields(cls) if f.type == type_name)


@cache
def _getter(cls: type, type_name: str) -> Callable[[object], tuple]:
    """An object of class cls to the tuple of its fields typed `type_name`."""
    names = _typed_fields(cls, type_name)
    get = attrgetter(*names) if names else lambda node: ()
    return (lambda node: (get(node),)) if len(names) == 1 else get


def _operands(node, type_name: str) -> tuple:
    return _getter(type(node), type_name)(node)


_EMIT = object()  # on the walk's stack: the item below is complete


def _walk(root, operands: Callable, pre: bool = False, key: Callable = id):
    """Every item reachable from root through `operands`, once by `key`,
    depth first and first operand first: as (item, its operands) after its
    operands, or alone before them with `pre`.  A shared subterm is walked
    once, and an explicit stack lets a chain of any length fit."""
    seen = set()
    stack = [root]
    while stack:
        item = stack.pop()
        if item is _EMIT:
            yield stack.pop()
            continue
        item_key = key(item)
        if item_key in seen:
            continue
        seen.add(item_key)
        below = operands(item)
        if pre:
            yield item
        else:
            stack += ((item, below), _EMIT)
        stack.extend(reversed(below))


def fold(root, rule: Callable, type_name: str = "Constraint"):
    """rule(node, results) at every object under root through the fields
    typed `type_name`, where results lists the rule's results at node's
    operands; the result at root.  Each object is folded once, however many
    paths lead to it, and a result is dropped after its last use."""
    order = list(_walk(root, partial(_operands, type_name=type_name)))
    last_use = {id(k): node for node, below in order for k in below}
    done = {}
    for node, below in order:
        done[id(node)] = rule(node, [done[id(k)] for k in below])
        for k in below:
            if last_use[id(k)] is node:
                done.pop(id(k), None)
    return done[id(root)]


def iter_paths(p: PathExpr) -> Iterator[PathExpr]:
    """Pre-order walk over a path expression, each object once."""
    return _walk(p, partial(_operands, type_name="PathExpr"), pre=True)


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


def iter_constraints(c: Constraint) -> Iterator[Constraint]:
    """Pre-order walk over a constraint tree (core forms and sugar), each
    object once."""
    return _walk(c, _children, pre=True)


def _children(c: Constraint) -> tuple[Constraint, ...]:
    return _operands(c, "Constraint")


def constraint_paths(c: Constraint) -> Iterator[PathExpr]:
    """The path expressions held by the constraint objects inside c."""
    for sub in iter_constraints(c):
        yield from _operands(sub, "PathExpr")


def _rebuilt(c, new: Sequence, field_type: str = "Constraint"):
    """c with its fields typed `field_type` set to `new`, in order; c itself
    when every one is unchanged."""
    names = _typed_fields(type(c), field_type)
    changed = {n: v for n, v in zip(names, new) if v is not getattr(c, n)}
    return replace(c, **changed) if changed else c


def map_children(c: Constraint, f: Callable, field_type: str = "Constraint"):
    """c rebuilt with f applied to each operand (each field typed
    `field_type`); c itself when f returns every one unchanged."""
    return _rebuilt(c, [f(k) for k in _operands(c, field_type)], field_type)


def map_paths(c: Constraint, f: Callable[[PathExpr], PathExpr]) -> Constraint:
    """c rebuilt with f applied to each path it holds directly."""
    return map_children(c, f, "PathExpr")


def rewrite(c: Constraint, rule: Callable[[Constraint], Constraint]) -> Constraint:
    """c rebuilt bottom-up: rule maps each object with its operands already
    rewritten.  A fold, so a shared subterm is rewritten once and its
    result stays shared."""
    return fold(c, lambda node, new: rule(_rebuilt(node, new)))


def child_kind(c: Constraint, kind: str) -> str:
    """The kind of element c's operands are evaluated at, when c itself is
    evaluated at an element of `kind`."""
    if c.operand_kind is not None:
        return c.operand_kind
    return NODE if _typed_fields(type(c), "PathExpr") else kind


def kind_walk(
    c: Constraint, kind: str, pre: bool = False, stop: Callable | None = None
) -> Iterator[tuple]:
    """Each (subterm, kind) pair under c, evaluated at an element of `kind`,
    once (see _walk, which pairs each with its operands unless `pre`); the
    operands of a subterm that `stop` holds for are not entered."""

    def operands(item):
        sub, ctx = item
        below = _children(sub)
        if not below or (stop is not None and stop(sub)):
            return ()
        inner = child_kind(sub, ctx)
        return [(k, inner) for k in below]

    return _walk((c, kind), operands, pre, key=lambda item: (id(item[0]), item[1]))


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


def constraint_references(c: Constraint) -> frozenset[str]:
    return frozenset(
        sub.name for sub in iter_constraints(c) if isinstance(sub, ShapeRef)
    )


def is_sugar_free(c: Constraint) -> bool:
    return all(isinstance(sub, CORE_CONSTRAINTS) for sub in iter_constraints(c))


def mentioned_names(core: Iterable[Shape]) -> tuple[set[str], set[str], set[str]]:
    """The labels, the property keys and the element ids that desugared
    shapes mention in their targets, constraints and paths."""
    labels: set[str] = set()
    keys: set[str] = set()
    ids: set[str] = set()
    for sh in core:
        if isinstance(sh.target, TargetLabel):
            labels.add(sh.target.label)
        elif isinstance(sh.target, (TargetKey, TargetKeyValue)):
            keys.add(sh.target.key)
        elif isinstance(sh.target, TargetExact):
            ids.add(sh.target.element)
        for c in iter_constraints(sh.constraint):
            if isinstance(c, HasLabel):
                labels.add(c.label)
            elif isinstance(c, QualKey):
                keys.add(c.key)
            elif isinstance(c, (PathKeyCmp, KeyCmp)):
                keys.update((c.first_key, c.second_key))
            elif isinstance(c, Exact):
                ids.add(c.element)
        for p in constraint_paths(sh.constraint):
            labels.update(
                q.name for q in iter_paths(p) if isinstance(q, EdgeLabel)
            )
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

    __slots__ = ("_shapes", "_by_name", "_linked", "_references", "_cycle_count")

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


def _check_kinds(shape: Shape, by_name: dict[str, Shape]):
    """Node-only forms (those that hold a path or count edges) sit at
    nodes, src and dst at edges, each reference names a shape of its
    position's kind, and no count is negative.  Each (subterm, kind) pair
    is checked once."""
    for c, ctx in kind_walk(shape.constraint, shape.kind, pre=True):
        # A form that moves its operands to one kind starts from the other;
        # a path runs between nodes.
        if c.operand_kind == ctx or (
            ctx == EDGE and _typed_fields(type(c), "PathExpr")
        ):
            where = "an edge" if ctx == EDGE else "a node"
            raise KindMismatch(
                f"shape {shape.name!r}: {type(c).__name__} in {where} constraint"
            )
        if isinstance(c, ShapeRef):
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
        if vars(c).get("count", 0) < 0:
            raise ValueError(f"shape {shape.name!r}: negative count {c.count}")


def link_shapes(shapes: Iterable[Shape] | ShapeSet) -> ShapeSet:
    """Resolve shape references, check kinds, and record the reference graph."""
    result = shapes if isinstance(shapes, ShapeSet) else ShapeSet(shapes)
    by_name = {s.name: s for s in result}
    references: dict[str, frozenset[str]] = {}
    for s in result:
        _check_kinds(s, by_name)
        references[s.name] = constraint_references(s.constraint)
    linked = ShapeSet(result.shapes)
    linked._linked = True
    linked._references = references
    linked._cycle_count = _count_cyclic_components(references)
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
