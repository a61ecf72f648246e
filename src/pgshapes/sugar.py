"""Rewrites from sugared forms to the core language.

Constraint sugar reduces to negation, conjunction, and at-least counting:
`a | b` reads `!(!a & !b)`, an at-most count `<= n B` reads `!(>= n+1 B)`,
and an exact count `= n B` reads `>= n B & !(>= n+1 B)` (the operators of
shapes.COUNTING_FORMS).  Target combinators reduce to plain targets plus
constraint surgery or utility shapes.  Constraint desugaring rewrites
operands first and then the form itself, so idempotence is identity: a
sugar-free constraint comes back as the very same object.
"""

from __future__ import annotations

from .errors import UnsupportedTarget
from .shapes import (
    And,
    AnyValue,
    Cmp,
    Constraint,
    COUNTING_FORMS,
    HasLabel,
    Exact,
    Nothing,
    Not,
    Or,
    QualKey,
    Shape,
    ShapeRef,
    ShapeSet,
    Target,
    TargetAnd,
    TargetExact,
    TargetKey,
    TargetKeyValue,
    TargetLabel,
    TargetOr,
    Top,
    is_sugar_free,
    link_shapes,
    rewrite,
)
from .values import EQ

# Each at-most or exact counting form to its operator and to the at-least
# form over the same kind of operand.
_COUNTED = {
    form: (symbol, at_least)
    for symbol, forms in COUNTING_FORMS.items() if symbol != ">="
    for form, at_least in zip(forms, COUNTING_FORMS[">="])
}


def desugar_constraint(c: Constraint) -> Constraint:
    """Rewrite every sugared form into core connectives."""
    return rewrite(c, desugar_form)


def desugar_form(c: Constraint) -> Constraint:
    """One sugared form in core connectives; its operands are core already."""
    if isinstance(c, Or):
        return Not(And(Not(c.first), Not(c.second)))
    if type(c) not in _COUNTED:
        return c
    symbol, at_least = _COUNTED[type(c)]
    # The same operands, shared by both halves of an exact count.
    operands = dict(vars(c), span=None)
    above = Not(at_least(**dict(operands, count=c.count + 1)))
    return above if symbol == "<=" else And(at_least(**operands), above)


def target_constraint(q: Target) -> Constraint:
    """The constraint satisfied by exactly the elements a plain target matches."""
    if isinstance(q, Nothing):
        return Not(Top())
    if isinstance(q, TargetExact):
        return Exact(q.element)
    if isinstance(q, TargetLabel):
        return HasLabel(q.label)
    if isinstance(q, TargetKey):
        return QualKey(1, q.key, AnyValue())
    if isinstance(q, TargetKeyValue):
        return QualKey(1, q.key, Cmp(EQ, q.value))
    raise UnsupportedTarget(f"no constraint form for target {type(q).__name__}")


def _plain(q: Target, owner: str) -> Target:
    if isinstance(q, (TargetAnd, TargetOr)):
        raise UnsupportedTarget(
            f"shape {owner!r}: target combinators nest only one level"
        )
    return q


def desugar_targets(shape: Shape) -> tuple[Shape, ...]:
    """Rewrite a compound target into plain-target shapes.

    Conjunction folds the second query into the constraint: the shape keeps
    target q1 and requires the original constraint only where q2 also
    matches.  Note the rewritten constraint is what shapes referencing this
    one observe from then on, so the rewrite assumes the shape is not
    referenced elsewhere.  Disjunction introduces one utility shape per arm
    (target qi, constraint a reference to the original shape) and retargets
    the original to nothing, which keeps references intact.

    The output may contain constraint sugar; run desugar_constraint next.
    """
    q = shape.target
    if isinstance(q, TargetAnd):
        q1 = _plain(q.first, shape.name)
        q2 = _plain(q.second, shape.name)
        chi = target_constraint(q2)
        rewritten = Or(And(shape.constraint, chi), Not(chi))
        return (Shape(shape.name, shape.kind, rewritten, q1),)
    if isinstance(q, TargetOr):
        arms = [_plain(q.first, shape.name), _plain(q.second, shape.name)]
        out = [Shape(shape.name, shape.kind, shape.constraint, Nothing())]
        for i, arm in enumerate(arms):
            if isinstance(arm, Nothing):
                continue
            out.append(
                Shape(
                    f"{shape.name}__t{i}",
                    shape.kind,
                    ShapeRef(shape.name),
                    arm,
                )
            )
        return tuple(out)
    return (shape,)


def desugar_shapes(shapes) -> ShapeSet:
    """Targets then constraints rewritten to core forms, relinked; a linked
    set in core forms already comes back as it is."""
    # Each transform desugars its input, so a normalize run would otherwise
    # relink the same core set once per step.
    if isinstance(shapes, ShapeSet) and shapes.linked and all(
        not isinstance(sh.target, (TargetAnd, TargetOr))
        and is_sugar_free(sh.constraint)
        for sh in shapes
    ):
        return shapes
    shapes = list(shapes)
    taken = {sh.name for sh in shapes}
    flat: list[Shape] = []
    for sh in shapes:
        first, *arms = desugar_targets(sh)
        flat.append(first)
        for arm in arms:  # the other shape keeps a clashing name
            name = arm.name
            while name in taken:
                name += "_"
            taken.add(name)
            flat.append(Shape(name, arm.kind, arm.constraint, arm.target))
    return link_shapes(
        [
            Shape(
                sh.name,
                sh.kind,
                desugar_constraint(sh.constraint),
                sh.target,
                span=sh.span,
            )
            for sh in flat
        ]
    )
