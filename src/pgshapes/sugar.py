"""Rewrites from sugared forms to the core language.

Constraint sugar reduces to negation, conjunction, and at-least counting;
target combinators reduce to plain targets plus constraint surgery or
utility shapes.  Constraint desugaring rewrites operands first and then
the form itself, so idempotence is identity: a sugar-free constraint comes
back as the very same object.
"""

from __future__ import annotations

from .errors import UnsupportedTarget
from .shapes import (
    And,
    AnyValue,
    AtMostIncoming,
    AtMostKey,
    AtMostOutgoing,
    AtMostPath,
    Bottom,
    Cmp,
    CORE_CONSTRAINTS,
    Constraint,
    ExactlyIncoming,
    ExactlyKey,
    ExactlyOutgoing,
    ExactlyPath,
    ExistsIncoming,
    ExistsKey,
    ExistsOutgoing,
    ExistsPath,
    ForallIncoming,
    ForallKey,
    ForallOutgoing,
    ForallPath,
    HasLabel,
    Exact,
    Nothing,
    Not,
    Or,
    PredNot,
    QualIncoming,
    QualKey,
    QualOutgoing,
    QualPath,
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
    link_shapes,
    rewrite,
)
from .values import EQ


def desugar_constraint(c: Constraint) -> Constraint:
    """Rewrite every sugared form into core connectives."""
    return rewrite(c, _desugar_form)


def _desugar_form(c: Constraint) -> Constraint:
    """One sugared form in core connectives; its operands are core already."""
    if isinstance(c, CORE_CONSTRAINTS):
        return c
    if isinstance(c, Bottom):
        return Not(Top())
    if isinstance(c, Or):
        return Not(And(Not(c.first), Not(c.second)))
    if isinstance(c, AtMostPath):
        return Not(QualPath(c.count + 1, c.path, c.inner))
    if isinstance(c, AtMostIncoming):
        return Not(QualIncoming(c.count + 1, c.inner))
    if isinstance(c, AtMostOutgoing):
        return Not(QualOutgoing(c.count + 1, c.inner))
    if isinstance(c, AtMostKey):
        return Not(QualKey(c.count + 1, c.key, c.predicate))
    if isinstance(c, ExactlyPath):
        return And(
            QualPath(c.count, c.path, c.inner),
            Not(QualPath(c.count + 1, c.path, c.inner)),
        )
    if isinstance(c, ExactlyIncoming):
        return And(
            QualIncoming(c.count, c.inner), Not(QualIncoming(c.count + 1, c.inner))
        )
    if isinstance(c, ExactlyOutgoing):
        return And(
            QualOutgoing(c.count, c.inner), Not(QualOutgoing(c.count + 1, c.inner))
        )
    if isinstance(c, ExactlyKey):
        return And(
            QualKey(c.count, c.key, c.predicate),
            Not(QualKey(c.count + 1, c.key, c.predicate)),
        )
    if isinstance(c, ExistsPath):
        return QualPath(1, c.path, c.inner)
    if isinstance(c, ExistsIncoming):
        return QualIncoming(1, c.inner)
    if isinstance(c, ExistsOutgoing):
        return QualOutgoing(1, c.inner)
    if isinstance(c, ExistsKey):
        return QualKey(1, c.key, c.predicate)
    # Universal restriction: no witness against the body.
    if isinstance(c, ForallPath):
        return Not(QualPath(1, c.path, Not(c.inner)))
    if isinstance(c, ForallIncoming):
        return Not(QualIncoming(1, Not(c.inner)))
    if isinstance(c, ForallOutgoing):
        return Not(QualOutgoing(1, Not(c.inner)))
    if isinstance(c, ForallKey):
        return Not(QualKey(1, c.key, PredNot(c.predicate)))
    return c


def target_constraint(q: Target) -> Constraint:
    """The constraint satisfied by exactly the elements a plain target matches."""
    if isinstance(q, Nothing):
        return Bottom()
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
    """Targets then constraints rewritten to core forms, relinked."""
    flat: list[Shape] = []
    for sh in shapes:
        flat.extend(desugar_targets(sh))
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
