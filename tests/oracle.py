"""Independent reference semantics used as a test oracle.

Everything here recomputes results from first principles with different
machinery than the package: truth values are Fractions (0, 1/2, 1), paths
are evaluated through full binary relations with a transitive-closure loop,
and sugared forms are evaluated directly from their intended meaning rather
than by rewriting.  Keep this module free of imports from pgshapes modules
other than the AST dataclasses and the graph container.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from pgshapes import shapes as S
from pgshapes import values as V
from pgshapes.graph import EDGE, NODE, PropertyGraph
from pgshapes.semantics import Atom, TruthValue

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)

FROM_TV = {TruthValue.FALSE: ZERO, TruthValue.UNKNOWN: HALF, TruthValue.TRUE: ONE}
TO_TV = {ZERO: TruthValue.FALSE, HALF: TruthValue.UNKNOWN, ONE: TruthValue.TRUE}


# ---------------------------------------------------------------------------
# Paths as relations


def relation(g: PropertyGraph, p) -> frozenset[tuple[str, str]]:
    if isinstance(p, S.EdgeLabel):
        return frozenset(
            g.endpoints(e) for e in g.edges if p.name in g.labels_of(e)
        )
    if isinstance(p, S.Inverse):
        return frozenset((b, a) for (a, b) in relation(g, p.inner))
    if isinstance(p, S.Seq):
        r1, r2 = relation(g, p.first), relation(g, p.second)
        return frozenset((a, c) for (a, b) in r1 for (b2, c) in r2 if b == b2)
    if isinstance(p, S.Alt):
        return relation(g, p.first) | relation(g, p.second)
    if isinstance(p, S.Star):
        ident = frozenset((n, n) for n in g.nodes)
        return ident | _transitive(g, relation(g, p.inner))
    if isinstance(p, S.Plus):
        return _transitive(g, relation(g, p.inner))
    if isinstance(p, S.Opt):
        ident = frozenset((n, n) for n in g.nodes)
        return ident | relation(g, p.inner)
    raise TypeError(f"not a path: {p!r}")


def _transitive(g: PropertyGraph, r: frozenset) -> frozenset:
    closure = set(r)
    while True:
        extra = {
            (a, c)
            for (a, b) in closure
            for (b2, c) in closure
            if b == b2 and (a, c) not in closure
        }
        if not extra:
            return frozenset(closure)
        closure |= extra


def path_nodes(g: PropertyGraph, n: str, p) -> frozenset[str]:
    return frozenset(b for (a, b) in relation(g, p) if a == n)


# ---------------------------------------------------------------------------
# Predicates and set comparison


def pred_holds(f, v) -> bool:
    if isinstance(f, S.AnyValue):
        return True
    if isinstance(f, S.TypeIs):
        return v.type_name == f.type_name
    if isinstance(f, S.Cmp):
        c = f.constant
        if f.op == "eq":
            return v == c
        if f.op == "neq":
            return v != c
        if type(v) is not type(c):
            return False
        return {
            "lt": v.value < c.value,
            "leq": v.value <= c.value,
            "gt": v.value > c.value,
            "geq": v.value >= c.value,
        }[f.op]
    if isinstance(f, S.PredAnd):
        return pred_holds(f.first, v) and pred_holds(f.second, v)
    if isinstance(f, S.PredNot):
        return not pred_holds(f.inner, v)
    raise TypeError(f"not a predicate: {f!r}")


def sets_compare(op: str, a: frozenset, b: frozenset) -> bool:
    if op == "eq":
        return a == b
    if op == "neq":
        return a != b
    if op == "subset":
        return a <= b and a != b
    if op == "subseteq":
        return a <= b
    if op == "superset":
        return b <= a and a != b
    if op == "superseteq":
        return b <= a
    if op == "disjoint":
        return not (a & b)
    if len(a) == 1 and len(b) == 1:
        (x,) = a
        (y,) = b
        if isinstance(x, (V.IntValue, V.StrValue, V.DateValue)) and type(x) is type(y):
            return {
                "lt": x.value < y.value,
                "leq": x.value <= y.value,
                "gt": x.value > y.value,
                "geq": x.value >= y.value,
            }[op]
    return False


# ---------------------------------------------------------------------------
# Constraint evaluation (core and sugar, straight from the definitions)


def ref_eval(g: PropertyGraph, sigma, x: str, c, kind: str) -> Fraction:
    """sigma maps (shape name, element) -> Fraction."""

    def at_least(count, results, pool):
        if sum(1 for r in results if r == ONE) >= count:
            return ONE
        if pool - sum(1 for r in results if r == ZERO) < count:
            return ZERO
        return HALF

    def at_most(count, results, pool):
        # Dual reading: certain once even the undecided cannot exceed count.
        if sum(1 for r in results if r == ONE) > count:
            return ZERO
        if pool - sum(1 for r in results if r == ZERO) <= count:
            return ONE
        return HALF

    def node_results(p, inner):
        targets = sorted(path_nodes(g, x, p))
        return [ref_eval(g, sigma, m, inner, NODE) for m in targets], len(targets)

    def edge_results(direction, inner):
        if direction == "in":
            pool = [e for e in g.edges if g.endpoints(e)[1] == x]
        else:
            pool = [e for e in g.edges if g.endpoints(e)[0] == x]
        return [ref_eval(g, sigma, e, inner, EDGE) for e in pool], len(pool)

    def key_hits(key, predicate):
        return sum(1 for v in g.property_values(x, key) if pred_holds(predicate, v))

    if isinstance(c, S.Top):
        return ONE
    if isinstance(c, S.ShapeRef):
        return sigma[(c.name, x)]
    if isinstance(c, S.Exact):
        return ONE if c.element == x else ZERO
    if isinstance(c, S.HasLabel):
        return ONE if c.label in g.labels_of(x) else ZERO
    if isinstance(c, S.Not):
        return ONE - ref_eval(g, sigma, x, c.inner, kind)
    if isinstance(c, S.And):
        return min(
            ref_eval(g, sigma, x, c.first, kind),
            ref_eval(g, sigma, x, c.second, kind),
        )
    if isinstance(c, S.Or):
        return max(
            ref_eval(g, sigma, x, c.first, kind),
            ref_eval(g, sigma, x, c.second, kind),
        )
    if isinstance(c, S.QualPath):
        return at_least(c.count, *node_results(c.path, c.inner))
    if isinstance(c, S.QualIncoming):
        return at_least(c.count, *edge_results("in", c.inner))
    if isinstance(c, S.QualOutgoing):
        return at_least(c.count, *edge_results("out", c.inner))
    if isinstance(c, S.QualKey):
        return ONE if key_hits(c.key, c.predicate) >= c.count else ZERO
    if isinstance(c, S.AtMostPath):
        return at_most(c.count, *node_results(c.path, c.inner))
    if isinstance(c, S.AtMostIncoming):
        return at_most(c.count, *edge_results("in", c.inner))
    if isinstance(c, S.AtMostOutgoing):
        return at_most(c.count, *edge_results("out", c.inner))
    if isinstance(c, S.AtMostKey):
        return ONE if key_hits(c.key, c.predicate) <= c.count else ZERO
    if isinstance(c, S.ExactlyPath):
        results, pool = node_results(c.path, c.inner)
        return min(at_least(c.count, results, pool), at_most(c.count, results, pool))
    if isinstance(c, S.ExactlyIncoming):
        results, pool = edge_results("in", c.inner)
        return min(at_least(c.count, results, pool), at_most(c.count, results, pool))
    if isinstance(c, S.ExactlyOutgoing):
        results, pool = edge_results("out", c.inner)
        return min(at_least(c.count, results, pool), at_most(c.count, results, pool))
    if isinstance(c, S.ExactlyKey):
        return ONE if key_hits(c.key, c.predicate) == c.count else ZERO
    if isinstance(c, S.PathCmp):
        return (
            ONE
            if sets_compare(c.op, path_nodes(g, x, c.first), path_nodes(g, x, c.second))
            else ZERO
        )
    if isinstance(c, S.PathKeyCmp):
        a = frozenset(
            v
            for m in path_nodes(g, x, c.first_path)
            for v in g.property_values(m, c.first_key)
        )
        b = frozenset(
            v
            for m in path_nodes(g, x, c.second_path)
            for v in g.property_values(m, c.second_key)
        )
        return ONE if sets_compare(c.op, a, b) else ZERO
    if isinstance(c, S.KeyCmp):
        return (
            ONE
            if sets_compare(
                c.op,
                g.property_values(x, c.first_key),
                g.property_values(x, c.second_key),
            )
            else ZERO
        )
    if isinstance(c, S.Src):
        return ref_eval(g, sigma, g.endpoints(x)[0], c.inner, NODE)
    if isinstance(c, S.Dst):
        return ref_eval(g, sigma, g.endpoints(x)[1], c.inner, NODE)
    raise TypeError(f"oracle cannot evaluate {type(c).__name__}")


# ---------------------------------------------------------------------------
# Targets (including compound forms) and conformance by full enumeration


def ref_targets(g: PropertyGraph, shape) -> frozenset[str]:
    elements = g.nodes if shape.kind == NODE else g.edges

    def match(q) -> frozenset[str]:
        if isinstance(q, S.Nothing):
            return frozenset()
        if isinstance(q, S.TargetExact):
            return frozenset(x for x in elements if x == q.element)
        if isinstance(q, S.TargetLabel):
            return frozenset(x for x in elements if q.label in g.labels_of(x))
        if isinstance(q, S.TargetKey):
            return frozenset(x for x in elements if g.property_values(x, q.key))
        if isinstance(q, S.TargetKeyValue):
            return frozenset(
                x for x in elements if q.value in g.property_values(x, q.key)
            )
        if isinstance(q, S.TargetAnd):
            return match(q.first) & match(q.second)
        if isinstance(q, S.TargetOr):
            return match(q.first) | match(q.second)
        raise TypeError(f"oracle cannot match target {type(q).__name__}")

    return match(shape.target)


def ref_conforms(g: PropertyGraph, shape_list) -> bool:
    """Conformance by enumerating every assignment.  Exponential; keep tiny."""
    keys = []
    for sh in shape_list:
        for x in g.nodes if sh.kind == NODE else g.edges:
            keys.append((sh.name, x))
    by_name = {sh.name: sh for sh in shape_list}
    for combo in itertools.product((ONE, ZERO, HALF), repeat=len(keys)):
        sigma = dict(zip(keys, combo))
        ok = True
        for (name, x), v in sigma.items():
            sh = by_name[name]
            if ref_eval(g, sigma, x, sh.constraint, sh.kind) != v:
                ok = False
                break
        if not ok:
            continue
        for sh in shape_list:
            for x in ref_targets(g, sh):
                if sigma[(sh.name, x)] != ONE:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def sigma_from_assignment(assignment) -> dict:
    return {(a.shape, a.element): FROM_TV[v] for a, v in assignment.items()}


def sigma_to_tv(sigma) -> dict:
    return {key: TO_TV[v] for key, v in sigma.items()}
