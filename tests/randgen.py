"""Seeded random graphs, paths, constraints, and shape sets for the tests.

The generators take an explicit random.Random so failures reproduce from the
seed alone.  Sizes stay small on purpose: brute-force conformance has to
stay feasible as the oracle.  operator_count measures a constraint the way
the folding bound counts it.
"""

from __future__ import annotations

import datetime
import random

from pgshapes import shapes as S
from pgshapes.graph import EDGE, NODE, Label, build_graph
from pgshapes.semantics import atoms
from pgshapes.shapes import Shape, link_shapes
from pgshapes.values import DateValue, IntValue, StrValue

NODE_LABELS = ("Alpha", "Beta", "Gamma")
EDGE_LABELS = ("knows", "likes", "sees")
KEYS = ("k1", "k2")
CMP_OPS = ("eq", "neq", "lt", "leq", "gt", "geq")
SET_OPS = CMP_OPS + ("subset", "subseteq", "superset", "superseteq", "disjoint")


def gen_value(rng: random.Random):
    pick = rng.randrange(3)
    if pick == 0:
        return IntValue(rng.choice((-2, 0, 1, 3, 7)))
    if pick == 1:
        return StrValue(rng.choice(("a", "b", "cd")))
    return DateValue(datetime.date(2020, rng.choice((1, 6)), rng.choice((1, 15))))


def gen_graph(rng: random.Random, max_nodes: int = 4, max_edges: int = 6):
    node_ids = [str(100 + i) for i in range(rng.randint(1, max_nodes))]
    edge_ids = [str(200 + i) for i in range(rng.randint(0, max_edges))]
    endpoints = {
        e: (rng.choice(node_ids), rng.choice(node_ids)) for e in edge_ids
    }
    labelings = {}
    for n in node_ids:
        chosen = [l for l in NODE_LABELS if rng.random() < 0.4]
        if chosen:
            labelings[n] = [Label(l, NODE) for l in chosen]
    for e in edge_ids:
        chosen = [l for l in EDGE_LABELS if rng.random() < 0.5]
        if chosen:
            labelings[e] = [Label(l, EDGE) for l in chosen]
    properties = {}
    for x in node_ids + edge_ids:
        for key in KEYS:
            if rng.random() < 0.3:
                properties[(x, key)] = [
                    gen_value(rng) for _ in range(rng.randint(1, 2))
                ]
    return build_graph(
        node_ids, edge_ids, endpoints=endpoints, labelings=labelings,
        properties=properties,
    )


def gen_path(rng: random.Random, depth: int = 2):
    if depth <= 0 or rng.random() < 0.5:
        return S.EdgeLabel(rng.choice(EDGE_LABELS))
    pick = rng.randrange(6)
    if pick == 0:
        return S.Inverse(gen_path(rng, depth - 1))
    if pick == 1:
        return S.Seq(gen_path(rng, depth - 1), gen_path(rng, depth - 1))
    if pick == 2:
        return S.Alt(gen_path(rng, depth - 1), gen_path(rng, depth - 1))
    if pick == 3:
        return S.Star(gen_path(rng, depth - 1))
    if pick == 4:
        return S.Plus(gen_path(rng, depth - 1))
    return S.Opt(gen_path(rng, depth - 1))


def gen_predicate(rng: random.Random, depth: int = 1):
    if depth > 0 and rng.random() < 0.25:
        if rng.random() < 0.5:
            return S.PredAnd(gen_predicate(rng, depth - 1), gen_predicate(rng, depth - 1))
        return S.PredNot(gen_predicate(rng, depth - 1))
    pick = rng.randrange(3)
    if pick == 0:
        return S.AnyValue()
    if pick == 1:
        return S.TypeIs(rng.choice(("int", "string", "date")))
    return S.Cmp(rng.choice(CMP_OPS), gen_value(rng))


def gen_constraint(
    rng: random.Random,
    kind: str,
    depth: int,
    node_refs: tuple[str, ...],
    edge_refs: tuple[str, ...],
    element_ids: tuple[str, ...],
    sugar: bool,
):
    refs = node_refs if kind == NODE else edge_refs
    labels = NODE_LABELS if kind == NODE else EDGE_LABELS
    leaves = ["top", "label", "key"]
    if refs:
        leaves.append("ref")
    if element_ids:
        leaves.append("exact")
    if sugar:
        leaves.append("bottom")
    if depth <= 0 or rng.random() < 0.3:
        pick = rng.choice(leaves)
        if pick == "top":
            return S.Top()
        if pick == "bottom":
            return S.Not(S.Top())
        if pick == "label":
            return S.HasLabel(rng.choice(labels))
        if pick == "key":
            return S.QualKey(rng.randint(1, 2), rng.choice(KEYS), gen_predicate(rng))
        if pick == "ref":
            return S.ShapeRef(rng.choice(refs))
        return S.Exact(rng.choice(element_ids))

    ops = ["not", "and", "keycmp"]
    if kind == NODE:
        ops += ["qual_path", "qual_in", "qual_out", "cmp", "pathkeycmp"]
    else:
        ops += ["src", "dst"]
    if sugar:
        ops += ["or", "at_most", "exactly", "exists", "forall", "key_forms"]

    def sub(sub_kind, d=depth - 1):
        return gen_constraint(
            rng, sub_kind, d, node_refs, edge_refs, element_ids, sugar
        )

    pick = rng.choice(ops)
    if pick == "not":
        return S.Not(sub(kind))
    if pick == "and":
        return S.And(sub(kind), sub(kind))
    if pick == "or":
        return S.Or(sub(kind), sub(kind))
    if pick == "cmp":
        return S.PathCmp(rng.choice(SET_OPS), gen_path(rng), gen_path(rng))
    if pick == "keycmp":
        return S.KeyCmp(rng.choice(SET_OPS), rng.choice(KEYS), rng.choice(KEYS))
    if pick == "pathkeycmp":
        return S.PathKeyCmp(
            rng.choice(SET_OPS), gen_path(rng), rng.choice(KEYS),
            gen_path(rng), rng.choice(KEYS),
        )
    if pick == "qual_path":
        return S.QualPath(rng.randint(1, 2), gen_path(rng), sub(NODE))
    if pick == "qual_in":
        return S.QualIncoming(rng.randint(1, 2), sub(EDGE))
    if pick == "qual_out":
        return S.QualOutgoing(rng.randint(1, 2), sub(EDGE))
    if pick == "src":
        return S.Src(sub(NODE))
    if pick == "dst":
        return S.Dst(sub(NODE))
    if pick == "at_most":
        count = rng.randint(0, 2)
        if kind == NODE:
            which = rng.randrange(3)
            if which == 0:
                return S.AtMostPath(count, gen_path(rng), sub(NODE))
            if which == 1:
                return S.AtMostIncoming(count, sub(EDGE))
            return S.AtMostOutgoing(count, sub(EDGE))
        return S.Not(sub(kind, depth - 1))
    if pick == "exactly":
        count = rng.randint(0, 2)
        if kind == NODE:
            which = rng.randrange(3)
            if which == 0:
                return S.ExactlyPath(count, gen_path(rng), sub(NODE))
            if which == 1:
                return S.ExactlyIncoming(count, sub(EDGE))
            return S.ExactlyOutgoing(count, sub(EDGE))
        return S.And(sub(kind), S.Top())
    if pick == "exists":
        if kind == NODE:
            which = rng.randrange(3)
            if which == 0:
                return S.QualPath(1, gen_path(rng), sub(NODE))
            if which == 1:
                return S.QualIncoming(1, sub(EDGE))
            return S.QualOutgoing(1, sub(EDGE))
        return S.QualKey(1, rng.choice(KEYS), gen_predicate(rng))
    if pick == "forall":
        if kind == NODE:
            which = rng.randrange(3)
            if which == 0:
                return S.Not(S.QualPath(1, gen_path(rng), S.Not(sub(NODE))))
            if which == 1:
                return S.Not(S.QualIncoming(1, S.Not(sub(EDGE))))
            return S.Not(S.QualOutgoing(1, S.Not(sub(EDGE))))
        key = rng.choice(KEYS)
        return S.Not(S.QualKey(1, key, S.PredNot(gen_predicate(rng))))
    if pick == "key_forms":
        which = rng.randrange(3)
        key, pred = rng.choice(KEYS), gen_predicate(rng)
        if which == 0:
            return S.AtMostKey(rng.randint(0, 2), key, pred)
        if which == 1:
            return S.ExactlyKey(rng.randint(0, 2), key, pred)
        return S.QualKey(1, key, pred)
    raise AssertionError(pick)


def gen_target(rng: random.Random, g, kind: str, compound: bool = False):
    labels = NODE_LABELS if kind == NODE else EDGE_LABELS
    elements = g.nodes if kind == NODE else g.edges

    def plain():
        pick = rng.randrange(5)
        if pick == 0:
            return S.Nothing()
        if pick == 1:
            return S.TargetLabel(rng.choice(labels))
        if pick == 2:
            return S.TargetKey(rng.choice(KEYS))
        if pick == 3:
            return S.TargetKeyValue(gen_value(rng), rng.choice(KEYS))
        if elements:
            return S.TargetExact(rng.choice(elements))
        return S.Nothing()

    if compound and rng.random() < 0.4:
        if rng.random() < 0.5:
            return S.TargetAnd(plain(), plain())
        return S.TargetOr(plain(), plain())
    return plain()


def gen_shapes(
    rng: random.Random,
    g,
    max_shapes: int = 3,
    depth: int = 3,
    sugar: bool = False,
    compound_targets: bool = False,
    with_exact: bool = True,
):
    count = rng.randint(1, max_shapes)
    kinds = [rng.choice((NODE, EDGE)) for _ in range(count)]
    names = [f"s{i}" for i in range(count)]
    node_refs = tuple(n for n, k in zip(names, kinds) if k == NODE)
    edge_refs = tuple(n for n, k in zip(names, kinds) if k == EDGE)
    built = []
    for name, kind in zip(names, kinds):
        ids = (g.nodes if kind == NODE else g.edges) if with_exact else ()
        constraint = gen_constraint(
            rng, kind, rng.randint(0, depth), node_refs, edge_refs, ids, sugar
        )
        target = gen_target(rng, g, kind, compound=compound_targets)
        built.append(Shape(name, kind, constraint, target))
    # Bias toward instances where conformance is not vacuous.
    if all(isinstance(sh.target, S.Nothing) for sh in built) and rng.random() < 0.8:
        sh = built[0]
        built[0] = Shape(sh.name, sh.kind, sh.constraint, gen_target(rng, g, sh.kind))
    return built


def gen_instance(
    rng: random.Random,
    max_atoms: int = 12,
    sugar: bool = False,
    compound_targets: bool = False,
    max_free: int = 9,
):
    """A (graph, linked shape set) pair with at most max_atoms atoms.

    max_free caps the atoms whose shape mentions a reference, since those
    are the ones full enumeration has to branch on.
    """
    while True:
        g = gen_graph(rng)
        built = gen_shapes(
            rng, g, sugar=sugar, compound_targets=compound_targets
        )
        shapes = link_shapes(built)
        total = sum(
            len(g.nodes) if sh.kind == NODE else len(g.edges) for sh in built
        )
        if total > max_atoms or total == 0:
            continue
        free = sum(
            len(g.nodes) if sh.kind == NODE else len(g.edges)
            for sh in built
            if S.constraint_references(sh.constraint)
        )
        if free > max_free:
            continue
        return g, shapes


def operator_count(c: S.Constraint) -> int:
    """The core objects in c that have operands, each object counted once."""
    return sum(
        1 for sub in S.iter_constraints(c)
        if isinstance(sub, S.CORE_CONSTRAINTS) and S._children(sub)
    )
