"""Canonical single-line rendering of shapes back into .progs text.

parse(render(parse(t))) is structurally the identity: parentheses are
emitted exactly where the grammar's precedence would otherwise regroup.
"""

from __future__ import annotations

import re

from .graph import NODE
from .parser import IDENT_PATTERN, INT_PATTERN, KEYWORDS, PRED_OPS
from .shapes import (
    Alt,
    And,
    AnyValue,
    Cmp,
    Constraint,
    COUNTING_FORMS,
    Dst,
    EdgeLabel,
    Exact,
    HasLabel,
    Inverse,
    KeyCmp,
    Not,
    Nothing,
    Opt,
    Or,
    PathCmp,
    PathExpr,
    PathKeyCmp,
    Plus,
    PredAnd,
    PredNot,
    Seq,
    Shape,
    ShapeRef,
    ShapeSet,
    Src,
    Star,
    Target,
    TargetAnd,
    TargetExact,
    TargetKey,
    TargetKeyValue,
    TargetLabel,
    TargetOr,
    Top,
    TypeIs,
    ValuePredicate,
    fold,
)
from .values import value_text

# A bare name or element id is one token to the parser.
_IDENT_RE = re.compile(IDENT_PATTERN)
_ID_RE = re.compile(f"{INT_PATTERN}|{IDENT_PATTERN}")

_PRED_SYMBOL = {op: symbol for symbol, op in PRED_OPS.items()}

# Constraint precedence, loosest first.
_OR, _AND, _UNARY, _PRIMARY = range(4)
# Path precedence.
_ALT, _SEQ, _PREFIX, _POSTFIX, _ATOM = range(5)


def _name(text: str, what: str) -> str:
    if not _IDENT_RE.fullmatch(text) or text in KEYWORDS:
        raise ValueError(f"{what} {text!r} has no concrete spelling")
    return text


def _element_id(text: str) -> str:
    if not _ID_RE.fullmatch(text) or text in KEYWORDS:
        raise ValueError(f"element id {text!r} has no concrete spelling")
    return text


def _wrapped(result: tuple[str, int], level: int) -> str:
    """An operand's (text, precedence), parenthesized where the grammar
    would regroup it at `level`."""
    text, own = result
    return f"({text})" if own < level else text


def render_path(p: PathExpr) -> str:
    return fold(p, _path, "PathExpr")[0]


def _path(p: PathExpr, operands: list) -> tuple[str, int]:
    if isinstance(p, EdgeLabel):
        return f":{_name(p.name, 'edge label')}", _ATOM
    if isinstance(p, (Alt, Seq)):
        first, second = operands
        if isinstance(p, Alt):
            return f"{_wrapped(first, _ALT)} || {_wrapped(second, _SEQ)}", _ALT
        return f"{_wrapped(first, _SEQ)} / {_wrapped(second, _PREFIX)}", _SEQ
    if isinstance(p, (Inverse, Opt)):
        prefix = "^" if isinstance(p, Inverse) else "?"
        return prefix + _wrapped(operands[0], _PREFIX), _PREFIX
    if isinstance(p, (Star, Plus)):
        suffix = "*" if isinstance(p, Star) else "+"
        return _wrapped(operands[0], _POSTFIX) + suffix, _POSTFIX
    raise TypeError(f"not a path: {p!r}")


def _pred(f: ValuePredicate, operands: list) -> tuple[str, int]:
    """(text, 0) for a conjunction, (text, 1) for an atom."""
    if isinstance(f, AnyValue):
        return "any", 1
    if isinstance(f, TypeIs):
        return f.type_name, 1
    if isinstance(f, Cmp):
        return f"{_PRED_SYMBOL[f.op]} {value_text(f.constant)}", 1
    if isinstance(f, PredNot):
        # A comparison after ! must be wrapped: "!=" would lex as one token.
        return "!" + _wrapped(operands[0], 2 if isinstance(f.inner, Cmp) else 1), 1
    if isinstance(f, PredAnd):
        first, second = operands
        return f"{_wrapped(first, 0)} & {_wrapped(second, 1)}", 0
    raise TypeError(f"not a value predicate: {f!r}")


def render_target(q: Target) -> str:
    if isinstance(q, Nothing):
        return ""
    if isinstance(q, TargetLabel):
        return f":{_name(q.label, 'label')}"
    if isinstance(q, TargetExact):
        return f"id {_element_id(q.element)}"
    if isinstance(q, TargetKey):
        return f"key {_name(q.key, 'key')}"
    if isinstance(q, TargetKeyValue):
        return f"key {_name(q.key, 'key')} = {value_text(q.value)}"
    if isinstance(q, (TargetAnd, TargetOr)):
        op = "&" if isinstance(q, TargetAnd) else "|"
        first, second = render_target(q.first), render_target(q.second)
        if not first or not second:
            raise ValueError("empty target has no spelling inside a combinator")
        return f"{first} {op} {second}"
    raise TypeError(f"not a target: {q!r}")


def render_constraint(c: Constraint) -> str:
    return fold(c, _constraint)[0]


def _constraint(c: Constraint, operands: list) -> tuple[str, int]:
    if isinstance(c, Top):
        return "true", _PRIMARY
    if isinstance(c, ShapeRef):
        return _name(c.name, "shape name"), _PRIMARY
    if isinstance(c, Exact):
        return f"id {_element_id(c.element)}", _PRIMARY
    if isinstance(c, HasLabel):
        return f":{_name(c.label, 'label')}", _PRIMARY
    if isinstance(c, (PathCmp, PathKeyCmp, KeyCmp)):
        if isinstance(c, KeyCmp):
            first = f"key {_name(c.first_key, 'key')}"
            second = f"key {_name(c.second_key, 'key')}"
        elif isinstance(c, PathCmp):
            first, second = render_path(c.first), render_path(c.second)
        else:
            first = f"{render_path(c.first_path)} key {_name(c.first_key, 'key')}"
            second = f"{render_path(c.second_path)} key {_name(c.second_key, 'key')}"
        return f"cmp({c.op}, {first}, {second})", _PRIMARY
    if isinstance(c, Not):
        inner = _wrapped(operands[0], _UNARY)
        if inner.startswith("="):
            # An exact-count form after ! must be wrapped: "!=" would lex
            # as one token.
            inner = f"({inner})"
        return f"!{inner}", _UNARY
    if isinstance(c, (Src, Dst)):
        word = "src" if isinstance(c, Src) else "dst"
        return f"{word} {_wrapped(operands[0], _UNARY)}", _UNARY
    if isinstance(c, (And, Or)):
        first, second = operands
        if isinstance(c, And):
            return f"{_wrapped(first, _AND)} & {_wrapped(second, _UNARY)}", _AND
        return f"{_wrapped(first, _OR)} | {_wrapped(second, _AND)}", _OR
    for symbol, (on_path, incoming, outgoing, on_key) in COUNTING_FORMS.items():
        if isinstance(c, (incoming, outgoing)):
            arrow = "<-[" if isinstance(c, incoming) else "->["
            return f"{symbol} {c.count} {arrow} {_wrapped(operands[0], _OR)} ]", _UNARY
        if isinstance(c, on_key):
            predicate = _wrapped(fold(c.predicate, _pred, "ValuePredicate"), 1)
            return f"{symbol} {c.count} key {_name(c.key, 'key')} . {predicate}", _UNARY
        if isinstance(c, on_path):
            inner = _wrapped(operands[0], _UNARY)
            return f"{symbol} {c.count} {render_path(c.path)} . {inner}", _UNARY
    raise TypeError(f"not a constraint: {c!r}")


def render_shape(shape: Shape) -> str:
    head = "NODE" if shape.kind == NODE else "EDGE"
    target = render_target(shape.target)
    target_text = f"[{target}]" if target else "[]"
    return (
        f"{head} {_name(shape.name, 'shape name')} {target_text}"
        f" {{ {render_constraint(shape.constraint)} }};"
    )


def render_shapes(shapes: ShapeSet | tuple[Shape, ...] | list[Shape]) -> str:
    lines = [render_shape(s) for s in shapes]
    return "".join(line + "\n" for line in lines)
