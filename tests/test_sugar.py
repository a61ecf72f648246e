import random

import pytest

from pgshapes import shapes as S
from pgshapes.errors import UnsupportedTarget
from pgshapes.graph import EDGE, NODE
from pgshapes.semantics import (
    Assignment,
    Atom,
    TruthValue,
    eval_edge_constraint,
    eval_node_constraint,
)
from pgshapes.shapes import Shape, is_sugar_free
from pgshapes.sugar import desugar_constraint, desugar_shapes, desugar_targets, target_constraint
from pgshapes.values import EQ, IntValue

from oracle import FROM_TV, ref_eval
from randgen import gen_constraint, gen_instance

TOP = S.Top()
P = S.EdgeLabel("r")


def test_rewrite_table():
    d = desugar_constraint
    assert d(S.Or(S.HasLabel("A"), S.HasLabel("B"))) == S.Not(
        S.And(S.Not(S.HasLabel("A")), S.Not(S.HasLabel("B")))
    )
    assert d(S.AtMostPath(2, P, TOP)) == S.Not(S.QualPath(3, P, TOP))
    assert d(S.AtMostIncoming(0, TOP)) == S.Not(S.QualIncoming(1, TOP))
    assert d(S.AtMostOutgoing(1, TOP)) == S.Not(S.QualOutgoing(2, TOP))
    assert d(S.AtMostKey(1, "k", S.AnyValue())) == S.Not(
        S.QualKey(2, "k", S.AnyValue())
    )
    assert d(S.ExactlyPath(1, P, TOP)) == S.And(
        S.QualPath(1, P, TOP), S.Not(S.QualPath(2, P, TOP))
    )
    assert d(S.ExactlyKey(0, "k", S.AnyValue())) == S.And(
        S.QualKey(0, "k", S.AnyValue()), S.Not(S.QualKey(1, "k", S.AnyValue()))
    )
    assert d(S.ExactlyIncoming(2, TOP)) == S.And(
        S.QualIncoming(2, TOP), S.Not(S.QualIncoming(3, TOP))
    )
    assert d(S.ExactlyOutgoing(0, TOP)) == S.And(
        S.QualOutgoing(0, TOP), S.Not(S.QualOutgoing(1, TOP))
    )
    # An exact count holds its operand once, shared by both halves.
    out = d(S.ExactlyPath(1, P, S.HasLabel("A")))
    assert out.first.inner is out.second.inner.inner


def test_desugar_rewrites_under_operators():
    c = S.QualPath(1, P, S.Or(S.Top(), S.Not(S.Top())))
    out = desugar_constraint(c)
    assert is_sugar_free(out)
    assert out == S.QualPath(
        1, P, S.Not(S.And(S.Not(S.Top()), S.Not(S.Not(S.Top()))))
    )


def test_desugar_idempotent():
    rng = random.Random(99)
    for _ in range(200):
        kind = rng.choice((NODE, EDGE))
        c = gen_constraint(rng, kind, 3, ("s0",) if kind == NODE else (),
                           ("e0",) if kind == EDGE else (), ("100",), sugar=True)
        once = desugar_constraint(c)
        assert is_sugar_free(once)
        assert desugar_constraint(once) is once


def test_desugar_preserves_meaning():
    rng = random.Random(31337)
    for _ in range(250):
        g, shapes = gen_instance(rng, sugar=True)
        sigma_frac = {}
        assign = {}
        for sh in shapes:
            for x in g.nodes if sh.kind == NODE else g.edges:
                tv = rng.choice(
                    (TruthValue.FALSE, TruthValue.UNKNOWN, TruthValue.TRUE)
                )
                sigma_frac[(sh.name, x)] = FROM_TV[tv]
                assign[Atom(sh.name, x, sh.kind)] = tv
        assignment = Assignment(assign)
        for sh in shapes:
            core = desugar_constraint(sh.constraint)
            for x in g.nodes if sh.kind == NODE else g.edges:
                if sh.kind == NODE:
                    got = eval_node_constraint(g, assignment, x, core)
                else:
                    got = eval_edge_constraint(g, assignment, x, core)
                want = ref_eval(g, sigma_frac, x, sh.constraint, sh.kind)
                assert FROM_TV[got] == want, (sh.name, x, sh.constraint)


def test_target_constraint_forms():
    assert target_constraint(S.Nothing()) == S.Not(S.Top())
    assert target_constraint(S.TargetExact("100")) == S.Exact("100")
    assert target_constraint(S.TargetLabel("A")) == S.HasLabel("A")
    assert target_constraint(S.TargetKey("k")) == S.QualKey(1, "k", S.AnyValue())
    assert target_constraint(S.TargetKeyValue(IntValue(3), "k")) == S.QualKey(
        1, "k", S.Cmp(EQ, IntValue(3))
    )
    with pytest.raises(UnsupportedTarget):
        target_constraint(S.TargetAnd(S.Nothing(), S.Nothing()))


def test_target_conjunction_folds_into_constraint():
    phi = S.QualKey(1, "k", S.AnyValue())
    sh = Shape("s", NODE, phi, S.TargetAnd(S.TargetLabel("A"), S.TargetLabel("B")))
    (out,) = desugar_targets(sh)
    assert out.name == "s"
    assert out.target == S.TargetLabel("A")
    chi = S.HasLabel("B")
    assert out.constraint == S.Or(S.And(phi, chi), S.Not(chi))


def test_target_disjunction_adds_utility_shapes():
    phi = S.HasLabel("A")
    sh = Shape("s", NODE, phi, S.TargetOr(S.TargetLabel("A"), S.TargetKey("k")))
    out = desugar_targets(sh)
    assert [o.name for o in out] == ["s", "s__t0", "s__t1"]
    assert out[0].constraint == phi and out[0].target == S.Nothing()
    assert out[1] == Shape("s__t0", NODE, S.ShapeRef("s"), S.TargetLabel("A"))
    assert out[2] == Shape("s__t1", NODE, S.ShapeRef("s"), S.TargetKey("k"))


def test_an_arm_takes_a_name_no_other_shape_has():
    # Shapes p__t0 and p__t0_ are the user's: p's first arm grows
    # underscores until its name is free, and its second arm keeps its name.
    arms = S.TargetOr(S.TargetLabel("Person"), S.TargetLabel("Org"))
    shapes = desugar_shapes([
        Shape("p", NODE, S.Top(), arms),
        Shape("p__t0", NODE, S.Top(), S.Nothing()),
        Shape("p__t0_", NODE, S.Top(), S.Nothing()),
    ])
    assert shapes.names == ("p", "p__t0__", "p__t1", "p__t0", "p__t0_")
    assert shapes.get("p__t0__") == Shape("p__t0__", NODE, S.ShapeRef("p"), S.TargetLabel("Person"))
    assert shapes.get("p__t0").constraint == S.Top()


def test_target_disjunction_skips_empty_arms():
    sh = Shape("s", NODE, S.Top(), S.TargetOr(S.Nothing(), S.TargetLabel("A")))
    out = desugar_targets(sh)
    assert [o.name for o in out] == ["s", "s__t1"]


def test_plain_targets_pass_through():
    sh = Shape("s", NODE, S.Top(), S.TargetLabel("A"))
    assert desugar_targets(sh) == (sh,)


def test_nested_target_combinators_rejected():
    nested = S.TargetAnd(S.TargetOr(S.Nothing(), S.Nothing()), S.Nothing())
    with pytest.raises(UnsupportedTarget):
        desugar_targets(Shape("s", NODE, S.Top(), nested))
