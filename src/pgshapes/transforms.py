"""Instance rewrites that keep the conformance verdict.

Three constructions: path elimination (composite path expressions become
fresh edge labels over materialized reachability edges), operator folding
(every constraint shrinks to at most one operator by moving subformulas
into fresh untargeted shapes), and single-target reduction (one fresh root
shape targeting one fresh node stands in for every original target).

verify_normalized checks that a shape set is in the normal form these
rewrites produce and then applies is_strictly_faithful, which reads the
grounded instance; on a normalized set every constraint is a single
operator over atomic operands, so each atom's equation is one connective.

Two rules keep the rewrites honest.  Fresh names never collide with any
name already in use, per namespace.  And whenever a transform adds edges to
the graph, those edges carry a fresh marker label and every incoming or
outgoing edge-counting body in the pre-existing shapes is guarded with the
marker's negation; without the guard the added edges would inflate edge
counts and flip verdicts on shapes that bound them from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import NotNormalized, PathsPresent
from .graph import EDGE, NODE, PropertyGraph, build_graph
from .printer import render_path
from .semantics import (
    Assignment,
    Atom,
    FaithfulnessVerdict,
    eval_path,
    is_strictly_faithful,
    target_atoms,
)
from .shapes import (
    And,
    EdgeLabel,
    Exact,
    HasLabel,
    Not,
    Nothing,
    PathExpr,
    QualOutgoing,
    QualPath,
    Shape,
    ShapeRef,
    ShapeSet,
    TargetExact,
    TargetKey,
    TargetKeyValue,
    TargetLabel,
    Top,
    _children,
    child_kind,
    constraint_paths,
    is_sugar_free,
    kind_walk,
    link_shapes,
    map_children,
    map_paths,
    mentioned_names,
    rewrite,
)
from .sugar import desugar_shapes

ATOMIC_CONSTRAINTS = (Top, HasLabel, Exact, ShapeRef)
PLAIN_TARGETS = (Nothing, TargetExact, TargetLabel, TargetKey, TargetKeyValue)


@dataclass(frozen=True)
class TransformTrace:
    """What a transform introduced, for diagnostics and report mapping."""

    fresh_nodes: tuple[str, ...] = ()
    fresh_edges: tuple[str, ...] = ()
    fresh_labels: tuple[str, ...] = ()
    fresh_shapes: tuple[str, ...] = ()
    # Rendered composite path -> the label now standing in for it.
    path_labels: tuple[tuple[str, str], ...] = ()
    # Fresh shape -> the shape whose subformula it carries.
    shape_sources: tuple[tuple[str, str], ...] = ()
    # (shape, target element, fresh edge, fresh label) per original target.
    target_edges: tuple[tuple[str, str, str, str], ...] = ()
    marker: str | None = None


class _Fresh:
    """Counter-suffixed names skipping everything already taken."""

    def __init__(self, taken):
        self.taken = set(taken)
        self.counters: dict[str, int] = {}

    def name(self, prefix: str) -> str:
        i = self.counters.get(prefix, 0)
        while f"{prefix}{i}" in self.taken:
            i += 1
        out = f"{prefix}{i}"
        self.counters[prefix] = i + 1
        self.taken.add(out)
        return out


def _rewrite(c, path_labels, marker):
    """Swap composite paths for their labels (path_labels maps id(path) to
    its label); guard edge-counting bodies."""

    def swap(p: PathExpr) -> PathExpr:
        return EdgeLabel(path_labels[id(p)]) if id(p) in path_labels else p

    def guard(body):
        return And(body, Not(HasLabel(marker)))

    def step(c):
        if path_labels:
            c = map_paths(c, swap)
        if marker is not None and c.operand_kind == EDGE:
            c = map_children(c, guard)
        return c

    return rewrite(c, step)


# ---------------------------------------------------------------------------
# Path elimination


def eliminate_paths(
    g: PropertyGraph, shapes: ShapeSet
) -> tuple[PropertyGraph, ShapeSet, TransformTrace]:
    """Replace every composite path by a fresh label over materialized edges.

    For each composite path p, every pair (n, m) with m reachable from n
    over p gets a fresh edge labeled with p's fresh label plus the marker.
    Plain label paths are left alone; if no composite path occurs, the
    instance comes back unchanged.
    """
    core = desugar_shapes(shapes)
    # Composite paths by canonical text: comparing or hashing the paths
    # themselves would recurse through them.
    composite: dict[str, PathExpr] = {}
    texts: dict[int, str] = {}
    for sh in core:
        for p in constraint_paths(sh.constraint):
            if not isinstance(p, EdgeLabel) and id(p) not in texts:
                texts[id(p)] = render_path(p)
                composite.setdefault(texts[id(p)], p)
    if not composite:
        return g, core, TransformTrace()

    labels = _Fresh({*g.by_label, *mentioned_names(core)[0]})
    ids = _Fresh({*g.nodes, *g.edges})
    path_map = {text: labels.name("__p") for text in composite}
    marker = labels.name("__m")

    ends: dict[str, tuple[str, str]] = {}
    tags: dict[str, tuple[str, str]] = {}
    cache: dict = {}
    for text, p in composite.items():
        for n in g.nodes:
            for m in sorted(eval_path(g, n, p, cache)):
                eid = ids.name("__pe")
                ends[eid], tags[eid] = (n, m), (path_map[text], marker)

    path_labels = {key: path_map[text] for key, text in texts.items()}
    rebuilt = [
        Shape(sh.name, sh.kind, _rewrite(sh.constraint, path_labels, marker),
              sh.target, span=sh.span)
        for sh in core
    ]
    trace = TransformTrace(
        fresh_edges=tuple(ends),
        fresh_labels=(*path_map.values(), marker),
        path_labels=tuple(path_map.items()),
        marker=marker,
    )
    return build_graph((), ends, ends, tags, base=g), link_shapes(rebuilt), trace


# ---------------------------------------------------------------------------
# Operator folding


def _is_normal(c) -> bool:
    if isinstance(c, ATOMIC_CONSTRAINTS):
        return True
    return all(isinstance(k, ATOMIC_CONSTRAINTS) for k in _children(c))


def _cancel_double_negation(c):
    return c.inner.inner if isinstance(c, Not) and isinstance(c.inner, Not) else c


def _moved(c, kind: str, refs: dict):
    """c with its operands swapped for the fresh shapes that hold them
    (refs, by id and kind), unless it is normal and stays whole."""
    if _is_normal(c):
        return c
    inner = child_kind(c, kind)
    return map_children(c, lambda k: refs[id(k), inner])


def fold_operators(shapes: ShapeSet) -> tuple[ShapeSet, TransformTrace]:
    """Flatten every constraint to at most one operator.

    Subformulas move into fresh shapes (target nothing) referenced where
    they stood; a shape already in normal form is kept as is.  Output size
    is bounded by the input size plus twice the total operator count.
    """
    core = desugar_shapes(shapes)
    for sh in core:
        for p in constraint_paths(sh.constraint):
            if not isinstance(p, EdgeLabel):
                raise PathsPresent(
                    f"shape {sh.name!r} still holds path {render_path(p)};"
                    " eliminate paths first"
                )
    names = _Fresh(core.names)
    fresh: list[Shape] = []
    sources: list[tuple[str, str]] = []
    rebuilt = []
    for sh in core:
        # One level of the constraint stays; operands leave, even atomic
        # ones, so the result depends only on the top operator.  Each
        # (subterm, kind) pair moves once: names go out parents first,
        # shapes are built operands first.  `!!c` is c in Kleene logic and
        # cancels first, so a desugared `|` chain spends no shape on it.
        constraint = rewrite(sh.constraint, _cancel_double_negation)
        walk = partial(kind_walk, constraint, sh.kind, stop=_is_normal)
        refs = {}
        for c, kind in list(walk(pre=True))[1:]:
            refs[id(c), kind] = ShapeRef(names.name("__f"))
            sources.append((refs[id(c), kind].name, sh.name))
        *operands, _ = walk()
        fresh += [Shape(refs[id(c), kind].name, kind, _moved(c, kind, refs), Nothing())
                  for (c, kind), _ in operands]
        c = _moved(constraint, sh.kind, refs)
        rebuilt.append(Shape(sh.name, sh.kind, c, sh.target, span=sh.span))
    trace = TransformTrace(
        fresh_shapes=tuple(name for name, _ in sources),
        shape_sources=tuple(sources),
    )
    return link_shapes(rebuilt + fresh), trace


# ---------------------------------------------------------------------------
# Single-target reduction


def reduce_to_single_target(
    g: PropertyGraph, shapes: ShapeSet
) -> tuple[PropertyGraph, ShapeSet, Atom, TransformTrace]:
    """Concentrate all targets into one fresh root shape on one fresh node.

    Every original target atom becomes a uniquely labeled fresh edge from
    the new node and one conjunct in the root constraint: node targets are
    reached directly, edge targets through their source node plus an
    outgoing restriction pinned to the edge.  Original targets all become
    nothing; conformance is unchanged and hinges on the returned root atom.
    """
    core = desugar_shapes(shapes)
    labels = _Fresh({*g.by_label, *mentioned_names(core)[0]})
    ids = _Fresh({*g.nodes, *g.edges})
    snames = _Fresh(core.names)

    n0 = ids.name("__n")
    targets = target_atoms(g, core)
    ends: dict[str, tuple[str, str]] = {}
    tags: dict[str, tuple[str, str]] = {}
    conjuncts = []
    rows = []
    marker = labels.name("__m") if targets else None
    for atom in targets:
        label = labels.name("__t")
        eid = ids.name("__e")
        if atom.kind == NODE:
            reach = atom.element
            conjuncts.append(
                QualPath(1, EdgeLabel(label), ShapeRef(atom.shape))
            )
        else:
            reach = g.endpoints(atom.element)[0]
            conjuncts.append(
                QualPath(
                    1,
                    EdgeLabel(label),
                    QualOutgoing(
                        1, And(Exact(atom.element), ShapeRef(atom.shape))
                    ),
                )
            )
        ends[eid], tags[eid] = (n0, reach), (label, marker)
        rows.append((atom.shape, atom.element, eid, label))

    root_constraint = _conjunction(conjuncts) if conjuncts else Top()
    root_name = snames.name("__s")
    rebuilt = [
        Shape(sh.name, sh.kind,
              _rewrite(sh.constraint, {}, marker), Nothing(), span=sh.span)
        for sh in core
    ]
    rebuilt.append(Shape(root_name, NODE, root_constraint, TargetExact(n0)))
    g2 = build_graph((n0,), ends, ends, tags, base=g)
    trace = TransformTrace(
        fresh_nodes=(n0,),
        fresh_edges=tuple(ends),
        fresh_labels=tuple(row[3] for row in rows) + ((marker,) if marker else ()),
        fresh_shapes=(root_name,),
        target_edges=tuple(rows),
        marker=marker,
    )
    return g2, link_shapes(rebuilt), Atom(root_name, n0, NODE), trace


def _conjunction(conjuncts: list):
    """A balanced And over a non-empty list, so depth grows with log n."""
    if len(conjuncts) == 1:
        return conjuncts[0]
    half = len(conjuncts) // 2
    return And(_conjunction(conjuncts[:half]), _conjunction(conjuncts[half:]))


def normalize_instance(g: PropertyGraph, shapes: ShapeSet):
    """Pipeline: eliminate paths, fold operators, reduce to one target."""
    g1, s1, t1 = eliminate_paths(g, shapes)
    s2, t2 = fold_operators(s1)
    g3, s3, root, t3 = reduce_to_single_target(g1, s2)
    return g3, s3, root, (t1, t2, t3)


# ---------------------------------------------------------------------------
# Verification of normalized instances


def _check_normalized(shapes: ShapeSet):
    for sh in shapes:
        for p in constraint_paths(sh.constraint):
            if not isinstance(p, EdgeLabel):
                raise PathsPresent(
                    f"shape {sh.name!r} holds composite path {render_path(p)}"
                )
        if not is_sugar_free(sh.constraint):
            raise NotNormalized(f"shape {sh.name!r} contains sugared forms")
        if not _is_normal(sh.constraint):
            raise NotNormalized(
                f"shape {sh.name!r} nests operators; fold first"
            )
        if not isinstance(sh.target, PLAIN_TARGETS):
            raise NotNormalized(f"shape {sh.name!r} has a compound target")


def is_normalized(shapes: ShapeSet) -> bool:
    try:
        _check_normalized(shapes)
    except (NotNormalized, PathsPresent):
        return False
    return True


def verify_normalized(
    g: PropertyGraph, shapes: ShapeSet, sigma: Assignment
) -> FaithfulnessVerdict:
    """The strict-faithfulness verdict of a normalized instance.

    Checks that the shape set is normalized (label-only paths, sugar-free,
    one operator over atomic operands, plain targets), then checks it with
    is_strictly_faithful: on such a set each grounded equation is one
    connective over references and constants, so no check recurses further.
    """
    _check_normalized(shapes)
    return is_strictly_faithful(g, shapes, sigma)
