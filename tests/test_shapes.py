import dataclasses
import hashlib
import random
import tracemalloc

import pytest

from pgshapes import shapes as S
from pgshapes.errors import KindMismatch, UnknownShapeName
from pgshapes.graph import EDGE, NODE
from pgshapes.printer import render_constraint
from pgshapes.shapes import Shape, ShapeSet, Span, link_shapes
from pgshapes.sugar import desugar_constraint
from pgshapes.values import IntValue

from randgen import gen_graph, gen_shapes, operator_count


def node_shape(name, constraint, target=None, kind=NODE):
    return Shape(name, kind, constraint, target or S.Nothing())


def test_ast_nodes_are_frozen_and_structural():
    a = S.And(S.HasLabel("A"), S.Not(S.Top()))
    b = S.And(S.HasLabel("A"), S.Not(S.Top()))
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.first = S.Top()


def test_spans_do_not_affect_equality():
    span = Span(0, 5, 1, 1)
    assert S.HasLabel("A", span=span) == S.HasLabel("A")
    assert hash(S.HasLabel("A", span=span)) == hash(S.HasLabel("A"))
    assert S.HasLabel("A", span=span).span == span
    # span is keyword-only everywhere
    with pytest.raises(TypeError):
        S.Top(span)


def test_predicate_validation():
    with pytest.raises(ValueError):
        S.TypeIs("float")
    with pytest.raises(ValueError):
        S.Cmp("approx", IntValue(1))
    p = S.EdgeLabel("r")
    for bad in (lambda: S.PathCmp("approx", p, p), lambda: S.PathKeyCmp("approx", p, "k", p, "k"),
                lambda: S.KeyCmp("approx", "k", "k")):
        with pytest.raises(ValueError, match="bad set comparator: 'approx'"):
            bad()
    S.TypeIs("date")
    S.Cmp("geq", IntValue(1))


def test_constraint_walks():
    c = S.And(
        S.QualPath(1, S.Seq(S.EdgeLabel("r"), S.EdgeLabel("q")), S.ShapeRef("s1")),
        S.Not(S.QualOutgoing(2, S.ShapeRef("e1"))),
    )
    shapes = [node_shape("c", c), node_shape("s1", S.Top()), node_shape("e1", S.Top(), kind=EDGE)]
    assert link_shapes(shapes).references["c"] == {"s1", "e1"}
    assert operator_count(c) == 4  # And, QualPath, Not, QualOutgoing
    paths = list(S.constraint_paths(c))
    assert paths == [S.Seq(S.EdgeLabel("r"), S.EdgeLabel("q"))]
    assert S.is_sugar_free(c)
    assert not S.is_sugar_free(S.Or(S.Top(), S.Top()))
    assert not S.is_sugar_free(S.Not(S.AtMostKey(0, "k", S.AnyValue())))


def test_mentioned_names_cover_nested_paths():
    p = S.Alt(S.Star(S.EdgeLabel("a")), S.Inverse(S.EdgeLabel("b")))
    shape = node_shape("s", S.And(S.QualPath(1, p, S.HasLabel("A")), S.KeyCmp("eq", "k", "j")))
    assert S.mentioned_names([shape]) == ({"a", "b", "A"}, {"k", "j"}, set())


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape("s", "graph", S.Top(), S.Nothing())
    with pytest.raises(ValueError):
        Shape("", NODE, S.Top(), S.Nothing())


def test_shape_set_names_unique_and_ordered():
    s1 = node_shape("a", S.Top())
    s2 = node_shape("b", S.Top())
    ss = ShapeSet([s2, s1])
    assert ss.names == ("b", "a")
    assert ss.get("a") is s1
    assert "a" in ss
    with pytest.raises(UnknownShapeName):
        ss.get("zzz")
    with pytest.raises(UnknownShapeName):
        ShapeSet([s1, node_shape("a", S.Not(S.Top()))])


def test_link_resolves_references():
    s1 = node_shape("s1", S.ShapeRef("s2"))
    s2 = node_shape("s2", S.Top())
    linked = link_shapes([s1, s2])
    assert linked.linked
    assert linked.references == {"s1": frozenset({"s2"}), "s2": frozenset()}
    with pytest.raises(UnknownShapeName):
        link_shapes([s1])


def test_link_checks_reference_kind():
    s1 = node_shape("s1", S.ShapeRef("e1"))
    e1 = node_shape("e1", S.Top(), kind=EDGE)
    with pytest.raises(KindMismatch):
        link_shapes([s1, e1])
    # Fine when the edge shape is referenced from an edge position.
    s2 = node_shape("s2", S.QualOutgoing(1, S.ShapeRef("e1")))
    link_shapes([s2, e1])


def test_link_checks_form_placement():
    with pytest.raises(KindMismatch):
        link_shapes([node_shape("e", S.QualPath(1, S.EdgeLabel("r"), S.Top()), kind=EDGE)])
    with pytest.raises(KindMismatch):
        link_shapes([node_shape("e", S.QualIncoming(1, S.Top()), kind=EDGE)])
    with pytest.raises(KindMismatch):
        link_shapes([node_shape("n", S.Src(S.Top()))])
    with pytest.raises(KindMismatch):
        link_shapes([node_shape("n", S.PathCmp("eq", S.EdgeLabel("r"), S.EdgeLabel("r")), kind=EDGE)])
    # Context switches: edge bodies inside counting, node bodies inside src/dst.
    link_shapes([node_shape("n", S.QualOutgoing(1, S.Src(S.HasLabel("A"))))])
    link_shapes([node_shape("e", S.Src(S.QualPath(1, S.EdgeLabel("r"), S.Top())), kind=EDGE)])
    with pytest.raises(KindMismatch):
        link_shapes([node_shape("n", S.QualPath(1, S.EdgeLabel("r"), S.Src(S.Top())))])


def test_link_rejects_negative_counts():
    with pytest.raises(ValueError):
        link_shapes([node_shape("n", S.QualKey(-1, "k", S.AnyValue()))])
    link_shapes([node_shape("n", S.QualKey(0, "k", S.AnyValue()))])


P = S.EdgeLabel("r")
NODE_ONLY = (
    "QualPath", "QualIncoming", "QualOutgoing", "PathCmp", "PathKeyCmp",
    "AtMostPath", "AtMostIncoming", "AtMostOutgoing",
    "ExactlyPath", "ExactlyIncoming", "ExactlyOutgoing",
)
EDGE_ONLY = ("Src", "Dst")
EDGE_BODIED = tuple(
    name for name in NODE_ONLY if name.endswith(("Incoming", "Outgoing"))
)
COUNTED = (
    "QualPath", "QualIncoming", "QualOutgoing", "QualKey",
    "AtMostPath", "AtMostIncoming", "AtMostOutgoing", "AtMostKey",
    "ExactlyPath", "ExactlyIncoming", "ExactlyOutgoing", "ExactlyKey",
)


def every_form(inner=S.Top(), count=1, ref="s"):
    """One instance of each constraint class, by class name."""
    key = S.AnyValue()
    forms = [
        S.Top(), S.ShapeRef(ref), S.Exact("100"), S.HasLabel("A"),
        S.Not(inner), S.And(inner, S.Top()),
        S.QualPath(count, P, inner), S.QualIncoming(count, inner),
        S.QualOutgoing(count, inner), S.QualKey(count, "k", key),
        S.PathCmp("eq", P, P), S.PathKeyCmp("eq", P, "k", P, "k"),
        S.KeyCmp("eq", "k", "k"), S.Src(inner), S.Dst(inner),
        S.Or(S.Top(), inner),
        S.AtMostPath(count, P, inner), S.AtMostIncoming(count, inner),
        S.AtMostOutgoing(count, inner), S.AtMostKey(count, "k", key),
        S.ExactlyPath(count, P, inner), S.ExactlyIncoming(count, inner),
        S.ExactlyOutgoing(count, inner), S.ExactlyKey(count, "k", key),
    ]
    return {type(c).__name__: c for c in forms}


FORMS = sorted(every_form())


def test_every_form_covers_every_constraint_class():
    assert set(FORMS) == {cls.__name__ for cls in S.Constraint.__subclasses__()}
    assert set(NODE_ONLY + EDGE_ONLY + COUNTED) <= set(FORMS)
    assert (len(NODE_ONLY), len(EDGE_BODIED), len(COUNTED)) == (11, 6, 12)


@pytest.mark.parametrize("name", FORMS)
@pytest.mark.parametrize("kind", [NODE, EDGE])
def test_form_placement(name, kind):
    misplaced = name in (NODE_ONLY if kind == EDGE else EDGE_ONLY)
    shape = node_shape("s", every_form()[name], kind=kind)
    if misplaced:
        with pytest.raises(KindMismatch):
            link_shapes([shape])
    else:
        link_shapes([shape])


@pytest.mark.parametrize(
    "name", [n for n in FORMS if S._children(every_form()[n])]
)
def test_operands_are_checked_at_their_kind(name):
    # Each form sits in a shape of a kind where it is legal; its operand
    # must be a constraint of the kind the form evaluates operands at.
    kind = EDGE if name in EDGE_ONLY else NODE
    if name in EDGE_BODIED:
        operand_kind = EDGE
    elif name in EDGE_ONLY or name in NODE_ONLY:
        operand_kind = NODE
    else:
        operand_kind = kind
    assert S.child_kind(every_form()[name], kind) == operand_kind
    legal = S.Src(S.Top()) if operand_kind == EDGE else S.QualPath(1, P, S.Top())
    illegal = S.QualPath(1, P, S.Top()) if operand_kind == EDGE else S.Src(S.Top())
    link_shapes([node_shape("s", every_form(inner=legal)[name], kind=kind)])
    with pytest.raises(KindMismatch):
        link_shapes([node_shape("s", every_form(inner=illegal)[name], kind=kind)])


@pytest.mark.parametrize("name", COUNTED)
def test_counted_forms_reject_negative_counts(name):
    link_shapes([node_shape("s", every_form(count=0)[name])])
    with pytest.raises(ValueError, match="negative count -1"):
        link_shapes([node_shape("s", every_form(count=-1)[name])])


def test_map_children_rebuilds_only_on_change():
    c = S.QualPath(2, P, S.HasLabel("A"), span=Span(0, 5, 1, 1))
    assert S.map_children(c, lambda k: k) is c
    out = S.map_children(c, S.Not)
    assert out == S.QualPath(2, P, S.Not(S.HasLabel("A")))
    assert out.span == c.span
    assert S.map_children(S.Top(), S.Not) == S.Top()


def test_walks_take_long_chains():
    c = S.Top()
    for i in range(5000):
        c = S.And(c, S.HasLabel(f"l{i}"))
    assert sum(1 for _ in S.iter_constraints(c)) == 10001
    assert S.rewrite(c, lambda k: k) is c
    link_shapes([node_shape("s", c)])


def nested_exact_counts(depth):
    """`= 1 :knows .` nested depth times, desugared: each level shares its
    operand between two subtrees, so the innermost one has 2^depth paths."""
    c = S.Top()
    for _ in range(depth):
        c = S.ExactlyPath(1, S.EdgeLabel("knows"), c)
    return desugar_constraint(c)


def test_fold_visits_shared_subterms_once():
    c = nested_exact_counts(30)
    seen = []
    size = S.fold(c, lambda node, operands: seen.append(node) or 1 + sum(operands))
    # And, QualPath, Not, QualPath per level, plus the innermost true.
    assert len(seen) == len({id(node) for node in seen}) == 4 * 30 + 1
    assert size > 2 ** 30  # the tree the DAG unfolds to
    assert sum(1 for _ in S.iter_constraints(c)) == 4 * 30 + 1
    assert operator_count(c) == 4 * 30
    assert S.rewrite(c, lambda k: k) is c
    assert link_shapes([node_shape("s", c)]).references == {"s": frozenset()}


def test_fold_results_follow_the_operands():
    # fold hands each rule its operands' results in field order.
    c = S.And(S.Not(S.HasLabel("A")), S.QualPath(2, P, S.Top()))

    def text(node, operands):
        return f"{type(node).__name__}({', '.join(operands)})"

    assert S.fold(c, text) == "And(Not(HasLabel()), QualPath(Top()))"
    path = S.Seq(S.Inverse(S.EdgeLabel("a")), S.EdgeLabel("b"))
    assert S.fold(path, text, "PathExpr") == "Seq(Inverse(EdgeLabel()), EdgeLabel())"


def test_fold_drops_each_result_after_its_last_use():
    # Each level of a left-deep chain renders its operand's text again, so
    # a fold that kept every level would hold text quadratic in the chain
    # (about 500 times the output here); one that drops each result once
    # its parent has read it holds a few times the output.
    c = S.HasLabel("l" * 100)
    for i in range(1000):
        c = S.And(c, S.HasLabel(f"l{i:099}"))
    tracemalloc.start()
    try:
        text = render_constraint(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 100_000
    assert peak < 10 * len(text)


def test_conjuncts_see_through_double_negation():
    a, b, c = S.HasLabel("A"), S.HasLabel("B"), S.HasLabel("C")
    assert S.conjuncts(S.And(S.And(a, S.Not(S.Not(b))), c)) == [a, b, c]
    chain = a
    for _ in range(5000):
        chain = S.Or(chain, b)
    chain = desugar_constraint(chain)  # !(!!(!(...) & !b) & !b)
    assert len(S.conjuncts(chain.inner)) == 5001
    assert S.conjuncts(S.Not(a)) == [S.Not(a)]


def test_cycle_count():
    top = S.Top()

    def shapes_of(refs):
        return [
            node_shape(name, S.And(*(map(S.ShapeRef, rs))) if len(rs) == 2
                       else (S.ShapeRef(rs[0]) if rs else top))
            for name, rs in refs.items()
        ]

    assert link_shapes(shapes_of({"a": [], "b": ["a"]})).cycle_count == 0
    assert link_shapes(shapes_of({"a": ["a"]})).cycle_count == 1
    assert link_shapes(shapes_of({"a": ["b"], "b": ["a"]})).cycle_count == 1
    assert link_shapes(
        shapes_of({"a": ["b"], "b": ["a"], "c": ["c"], "d": ["a", "c"]})
    ).cycle_count == 2
    assert link_shapes(
        shapes_of({"a": ["b", "c"], "b": [], "c": ["b"]})
    ).cycle_count == 0


def test_generated_shape_sets_always_link():
    rng = random.Random(7)
    for _ in range(60):
        g = gen_graph(rng)
        linked = link_shapes(gen_shapes(rng, g, sugar=True))
        assert linked.linked


# ---------------------------------------------------------------------------
# What linking returns, or the error it raises first, on seeded random shape
# sets and on three mutations of each: a reference renamed to a shape that
# does not exist, one shape's kind flipped, and one count made negative.
# A fourth line applies all three at once, so it pins which error comes
# first.  The mutations rebuild trees by their dataclass fields, apart from
# the walks under test.

LINK_SEEDS = range(200)
LINK_DIGEST = "86f5a02f2dc1ac33c3a35570dc8c3fcfb07833c1845ca7884a30849daebdd95e"


def subterms(c):
    """c and every constraint below it, pre-order, by dataclass fields."""
    out, todo = [], [c]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(reversed([getattr(c, f.name) for f in dataclasses.fields(c)
                              if isinstance(getattr(c, f.name), S.Constraint)]))
    return out


def replaced(c, old, new):
    """c with the subterm `old` (by identity) replaced by `new`."""
    if c is old:
        return new
    changes = {f.name: replaced(getattr(c, f.name), old, new)
               for f in dataclasses.fields(c) if isinstance(getattr(c, f.name), S.Constraint)}
    return dataclasses.replace(c, **changes) if changes else c


def mutated(rng, shapes, how):
    """shapes with one seeded mutation, or None when none applies."""
    spots = [(i, sub) for i, sh in enumerate(shapes) for sub in subterms(sh.constraint)]
    if how == "kind":
        i = rng.randrange(len(shapes))
        sh = shapes[i]
        spot, new = None, Shape(sh.name, EDGE if sh.kind == NODE else NODE,
                                sh.constraint, sh.target)
    else:
        if how == "reference":
            picks = [s for s in spots if isinstance(s[1], S.ShapeRef)] or spots
        else:
            picks = [s for s in spots if isinstance(vars(s[1]).get("count"), int)]
        if not picks:
            return None
        i, spot = rng.choice(picks)
        if how == "reference":
            sub = S.ShapeRef("missing")
        else:
            sub = dataclasses.replace(spot, count=-1 - spot.count)
        sh = shapes[i]
        new = Shape(sh.name, sh.kind, replaced(sh.constraint, spot, sub), sh.target)
    return shapes[:i] + [new] + shapes[i + 1:]


def link_outcome(shapes) -> str:
    if shapes is None:
        return "none"
    try:
        linked = link_shapes(shapes)
    except Exception as exc:  # the type and message are what is pinned
        return f"{type(exc).__name__}: {exc}"
    refs = sorted((name, sorted(names)) for name, names in linked.references.items())
    return f"{refs} {linked.cycle_count}"


def test_linking_is_pinned():
    h = hashlib.sha256()
    for seed in LINK_SEEDS:
        rng = random.Random(f"link:{seed}")
        g = gen_graph(rng)
        shapes = gen_shapes(rng, g, max_shapes=4, sugar=seed % 2 == 0,
                            compound_targets=seed % 3 == 0)
        lines = [link_outcome(shapes)]
        every = shapes
        for how in ("reference", "kind", "count"):
            lines.append(link_outcome(mutated(rng, shapes, how)))
            every = mutated(rng, every, how) or every
        lines.append(link_outcome(every))  # the first of several errors
        h.update(f"seed {seed}\n{chr(10).join(lines)}\n".encode("utf-8"))
    assert h.hexdigest() == LINK_DIGEST
