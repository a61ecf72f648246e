"""Fact-base export of a graph plus shapes for answer-set solvers.

Graphs become edge/3, label/2 and property/3 facts; shapes become one
nodeshape/3 or edgeshape/3 fact each, plus constraint/1 and path/1 facts
listing every sub-constraint and sub-path so solver rules can ground.

Solver syntax reserves leading uppercase for variables, so every label,
property key, and shape name has its first letter lowercased; an error is
raised if that renaming would merge two distinct names.  Element ids pass
through unchanged (digits and lowercase names stay bare, anything else is
quoted).  Comment lines start with '%'.  Output is deterministic: facts are
grouped by predicate and sorted within each group.
"""

from __future__ import annotations

import re

from .errors import NameCollision, UnencodableValue
from .graph import EDGE, PropertyGraph
from .shapes import (
    Alt,
    And,
    AnyValue,
    Cmp,
    Constraint,
    Dst,
    EdgeLabel,
    Exact,
    HasLabel,
    Inverse,
    KeyCmp,
    Not,
    Nothing,
    Opt,
    PathCmp,
    PathExpr,
    PathKeyCmp,
    Plus,
    PredAnd,
    PredNot,
    QualIncoming,
    QualKey,
    QualOutgoing,
    QualPath,
    Seq,
    ShapeRef,
    ShapeSet,
    Src,
    Star,
    Target,
    TargetExact,
    TargetKey,
    TargetKeyValue,
    TargetLabel,
    Top,
    TypeIs,
    ValuePredicate,
    fold,
    mentioned_names,
)
from .sugar import desugar_shapes
from .values import DateValue, IntValue, StrValue, Value, quote_string, value_sort_key

_BARE = re.compile(r"^[a-z][A-Za-z0-9_]*$")
_DIGITS = re.compile(r"^[0-9]+$")


def _id_token(x: str) -> str:
    if _DIGITS.match(x) or _BARE.match(x):
        return x
    return quote_string(x)


def _lowered(name: str) -> str:
    low = name[0].lower() + name[1:]
    return low if _BARE.match(low) else quote_string(low)


def _rename_map(names: set[str], what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    sources: dict[str, str] = {}
    for name in sorted(names):
        token = _lowered(name)
        if token in sources:
            raise NameCollision(
                f"{what} {sources[token]!r} and {name!r} both lowercase "
                f"to {token!r}"
            )
        sources[token] = name
        out[name] = token
    return out


def _value_term(v: Value) -> str:
    if isinstance(v, IntValue):
        return f"integer({v.value})"
    if isinstance(v, StrValue):
        return f"string({quote_string(v.value)})"
    if isinstance(v, DateValue):
        d = v.value
        return f"date({d.year},{d.month},{d.day})"
    raise UnencodableValue(f"no fact form for {type(v).__name__}")


# Functors of the forms whose terms are just their operands' terms.
_FUNCTORS = {
    Inverse: "inverse", Seq: "seq", Alt: "alt", Star: "star", Plus: "plus",
    Opt: "opt", PredAnd: "and", PredNot: "neg", Not: "neg", And: "and",
    Src: "src", Dst: "dst",
}


def _compound(x, operands: list) -> str:
    if type(x) not in _FUNCTORS:
        raise UnencodableValue(f"no fact form for {type(x).__name__}")
    return f"{_FUNCTORS[type(x)]}({','.join(operands)})"


def _predicate(v: ValuePredicate, operands: list) -> str:
    if isinstance(v, AnyValue):
        return "any"
    if isinstance(v, TypeIs):
        return v.type_name
    if isinstance(v, Cmp):
        return f"{v.op}({_value_term(v.constant)})"
    return _compound(v, operands)


class _Renderer:
    """Terms for one fact base, one fold per constraint or path; every
    constraint and path term rendered is collected on the way."""

    def __init__(self, labels: dict[str, str], keys: dict[str, str],
                 shape_names: dict[str, str]):
        self.labels = labels
        self.keys = keys
        self.shape_names = shape_names
        self.constraint_terms: set[str] = set()
        self.path_terms: set[str] = set()

    def path(self, p: PathExpr) -> str:
        return fold(p, self._path, "PathExpr")

    def _path(self, p: PathExpr, operands: list) -> str:
        leaf = isinstance(p, EdgeLabel)
        term = f"label({self.labels[p.name]})" if leaf else _compound(p, operands)
        self.path_terms.add(term)
        return term

    def constraint(self, c: Constraint) -> str:
        return fold(c, self._constraint)

    def _constraint(self, c: Constraint, operands: list) -> str:
        term = self._term(c, operands)
        self.constraint_terms.add(term)
        return term

    def _term(self, c: Constraint, operands: list) -> str:
        if isinstance(c, Top):
            return "top"
        if isinstance(c, ShapeRef):
            return self.shape_names[c.name]
        if isinstance(c, Exact):
            return f"exact({_id_token(c.element)})"
        if isinstance(c, HasLabel):
            return f"label({self.labels[c.label]})"
        if isinstance(c, QualPath):
            return f"greaterEq({self.path(c.path)},{operands[0]},{c.count})"
        if isinstance(c, QualIncoming):
            return f"greaterEqIncoming({operands[0]},{c.count})"
        if isinstance(c, QualOutgoing):
            return f"greaterEqOutgoing({operands[0]},{c.count})"
        if isinstance(c, QualKey):
            predicate = fold(c.predicate, _predicate, "ValuePredicate")
            return f"greaterEqKey({self.keys[c.key]},{predicate},{c.count})"
        if isinstance(c, PathCmp):
            return f"pathCmp({c.op},{self.path(c.first)},{self.path(c.second)})"
        if isinstance(c, PathKeyCmp):
            return (
                f"pathKeyCmp({c.op},{self.path(c.first_path)},"
                f"{self.keys[c.first_key]},{self.path(c.second_path)},"
                f"{self.keys[c.second_key]})"
            )
        if isinstance(c, KeyCmp):
            return f"keyCmp({c.op},{self.keys[c.first_key]},{self.keys[c.second_key]})"
        return _compound(c, operands)

    def target(self, t: Target) -> str:
        if isinstance(t, Nothing):
            return "none"
        if isinstance(t, TargetExact):
            return f"exact({_id_token(t.element)})"
        if isinstance(t, TargetLabel):
            return f"label({self.labels[t.label]})"
        if isinstance(t, TargetKey):
            return f"key({self.keys[t.key]})"
        if isinstance(t, TargetKeyValue):
            return f"keyValue({_value_term(t.value)},{self.keys[t.key]})"
        raise UnencodableValue(f"no fact form for {type(t).__name__}")


def _arg_key(token: str) -> tuple:
    return (0, int(token)) if _DIGITS.match(token) else (1, token)


def export_asp(g: PropertyGraph, shapes: ShapeSet) -> str:
    """Render the fact base.  Sugared shapes are rewritten to core forms
    first; an empty graph with no shapes yields an empty document."""
    core = desugar_shapes(shapes)

    labels: set[str] = set()
    keys: set[str] = set()
    for x in (*g.nodes, *g.edges):
        labels.update(g.labels_of(x))
        keys.update(g.property_keys(x))
    shape_labels, shape_keys = mentioned_names(core)
    label_map = _rename_map(labels | shape_labels, "labels")
    key_map = _rename_map(keys | shape_keys, "property keys")
    shape_map = _rename_map({sh.name for sh in core}, "shape names")
    for name, token in shape_map.items():
        if token == "top":
            raise NameCollision(
                f"shape name {name!r} lowercases to the reserved term 'top'"
            )
    r = _Renderer(label_map, key_map, shape_map)

    edge_facts = sorted(
        (
            (_arg_key(src), _arg_key(e), _arg_key(dst)),
            f"edge({_id_token(src)}, {_id_token(e)}, {_id_token(dst)}).",
        )
        for e in g.edges
        for src, dst in [g.endpoints(e)]
    )
    label_facts = sorted(
        (
            (_arg_key(x), label_map[lab]),
            f"label({_id_token(x)}, {label_map[lab]}).",
        )
        for x in (*g.nodes, *g.edges)
        for lab in g.labels_of(x)
    )
    prop_facts = sorted(
        (
            (_arg_key(x), key_map[key], value_sort_key(v)),
            f"property({_id_token(x)}, {key_map[key]}, {_value_term(v)}).",
        )
        for x in (*g.nodes, *g.edges)
        for key in g.property_keys(x)
        for v in g.property_values(x, key)
    )

    shape_rows: list[tuple[str, str, str]] = []
    for sh in core:
        pred = "edgeshape" if sh.kind == EDGE else "nodeshape"
        shape_rows.append(
            (
                pred,
                shape_map[sh.name],
                f"{pred}({shape_map[sh.name]}, "
                f"{r.constraint(sh.constraint)}, {r.target(sh.target)}).",
            )
        )

    groups = [
        ("edges", [fact for _, fact in edge_facts]),
        ("labels", [fact for _, fact in label_facts]),
        ("properties", [fact for _, fact in prop_facts]),
        (
            "constraint terms",
            [f"constraint({t})." for t in sorted(r.constraint_terms)],
        ),
        ("path terms", [f"path({t})." for t in sorted(r.path_terms)]),
        (
            "node shapes",
            [row[2] for row in sorted(shape_rows) if row[0] == "nodeshape"],
        ),
        (
            "edge shapes",
            [row[2] for row in sorted(shape_rows) if row[0] == "edgeshape"],
        ),
    ]
    # One join over every line: the constraint terms can be large.
    lines: list[str] = []
    for name, facts in groups:
        if facts:
            lines += ["", f"% {name}", *facts] if lines else [f"% {name}", *facts]
    return "\n".join([*lines, ""])
