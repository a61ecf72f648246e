"""Fact-base export of a graph plus shapes for answer-set solvers.

Graphs become edge/3, label/2 and property/3 facts, plus a node/1 fact
for each node none of those name; shapes become one
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
from itertools import chain
from typing import Iterator

from .errors import NameCollision, TooLarge, UnencodableValue
from .graph import EDGE, PropertyGraph, _Memo
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

# The most bytes of constraint terms a fact base may spell.  A term spells
# out its whole subterm, so k nested exact counts spell about 2^k bytes, and
# the renderer holds every term in memory.  Terms are rendered as they are
# sized only up to _EAGER_BYTES; past that they are only sized, and are
# rendered once the whole is known to fit under the ceiling.
MAX_TERM_BYTES = 2 ** 30
_EAGER_BYTES = 2 ** 24

_BARE = re.compile(r"[a-z][A-Za-z0-9_]*")
_DIGITS = re.compile(r"[0-9]+")


def _id_token(x: str, key: tuple | None = None) -> str:
    """Id x's token.  Given x's sort key, a digit id is known as one without
    matching it again."""
    if (key or _arg_key(x))[0] == 0 or _BARE.fullmatch(x):
        return x
    return quote_string(x)


def _lowered(name: str) -> str:
    low = name[0].lower() + name[1:]
    return low if _BARE.fullmatch(low) else quote_string(low)


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
    constraint and path term rendered is collected on the way, and `size`
    counts the bytes of the constraint terms folded, each object once."""

    def __init__(self, labels: dict[str, str], keys: dict[str, str],
                 shape_names: dict[str, str]):
        self.labels = labels
        self.keys = keys
        self.shape_names = shape_names
        self.constraint_terms: set[str] = set()
        self.path_terms: set[str] = set()
        self.size = 0
        self.eager = _EAGER_BYTES           # past this, terms are only sized

    def path(self, p: PathExpr) -> str:
        return fold(p, self._path, "PathExpr")

    def _path(self, p: PathExpr, operands: list) -> str:
        leaf = isinstance(p, EdgeLabel)
        term = f"label({self.labels[p.name]})" if leaf else _compound(p, operands)
        self.path_terms.add(term)
        return term

    def constraint(self, c: Constraint) -> str | int:
        """c's term, or only its length once the terms folded so far take
        more than `eager` bytes."""
        return fold(c, self._constraint)

    def _constraint(self, c: Constraint, operands: list) -> str | int:
        if self.size > self.eager:
            # The term's own text, with its operands' lengths added.
            n = len(self._term(c, [""] * len(operands))) + sum(
                o if type(o) is int else len(o) for o in operands
            )
            self.size += n
            return n
        term = self._term(c, operands)
        self.size += len(term)
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
    # Digit ids in numeric order, without int(): it refuses long digit strings.
    digits = token.lstrip("0")
    return (0, len(digits), digits) if _DIGITS.fullmatch(token) else (1, token)


def export_asp(g: PropertyGraph, shapes: ShapeSet) -> str:
    """Render the fact base.  Sugared shapes are rewritten to core forms
    first; an empty graph with no shapes yields an empty document."""
    return "".join(chain.from_iterable(_fact_groups(g, shapes)))


def _fact_groups(g: PropertyGraph, shapes: ShapeSet) -> Iterator[list[str]]:
    """The fact base as text pieces, one list per predicate group, after
    everything that can fail has run.  A constraint or path term is one
    string, held once by the renderer: the pieces refer to it rather than
    copy it into a fact line, so the text is never held twice."""
    core = desugar_shapes(shapes)

    elements = (*g.nodes, *g.edges)
    # Each id's sort key and token, once per element rather than per fact.
    arg = {x: _arg_key(x) for x in elements}
    tok = {x: _id_token(x, arg[x]) for x in elements}
    rows = list(g._rows(sorted(elements, key=arg.__getitem__)))
    labels = {name for _, names, _ in rows for name in names}
    keys = {key for _, _, props in rows for key, _ in props}
    shape_labels, shape_keys, _ = mentioned_names(core)
    label_map = _rename_map(labels | shape_labels, "labels")
    key_map = _rename_map(keys | shape_keys, "property keys")
    shape_map = _rename_map({sh.name for sh in core}, "shape names")
    for name, token in shape_map.items():
        if token == "top":
            raise NameCollision(
                f"shape name {name!r} lowercases to the reserved term 'top'"
            )
    r = _Renderer(label_map, key_map, shape_map)
    terms = [r.constraint(sh.constraint) for sh in core]
    if r.size > MAX_TERM_BYTES:
        raise TooLarge(
            f"the constraint terms would take {r.size} bytes, over the "
            f"ceiling of {MAX_TERM_BYTES} bytes"
        )
    if any(type(term) is int for term in terms):    # some were only sized
        r.size, r.eager = 0, MAX_TERM_BYTES
        terms = [r.constraint(sh.constraint) for sh in core]
    shape_rows = sorted(
        ("edgeshape" if sh.kind == EDGE else "nodeshape", shape_map[sh.name],
         term, r.target(sh.target))
        for sh, term in zip(core, terms)
    )

    label_facts, property_facts = _element_facts(rows, arg, tok, label_map, key_map, keys)
    ends = {x for e in g.edges for x in g.endpoints(e)}
    groups = {
        # Rows come in arg order, and ids equal as numbers in text order, so
        # the node facts are sorted as they come.
        "nodes": [f"node({tok[x]}).\n" for x, names, props in rows
                  if not names and not props and x not in ends and g.has_node(x)],
        "edges": _facts(
            ((arg[src], arg[e], arg[dst]), f"edge({tok[src]}, {tok[e]}, {tok[dst]}).\n")
            for e in g.edges
            for src, dst in [g.endpoints(e)]
        ),
        "labels": label_facts,
        "properties": property_facts,
        "constraint terms": [
            s for t in sorted(r.constraint_terms) for s in ("constraint(", t, ").\n")
        ],
        "path terms": [s for t in sorted(r.path_terms) for s in ("path(", t, ").\n")],
        **{f"{kind} shapes": [
            s for p, name, c, q in shape_rows if p == f"{kind}shape"
            for s in (f"{p}({name}, ", c, f", {q}).\n")
        ] for kind in ("node", "edge")},
    }
    written = [(name, pieces) for name, pieces in groups.items() if pieces]
    return (
        [("\n% " if i else "% ") + name + "\n", *pieces]
        for i, (name, pieces) in enumerate(written)
    )


def _element_facts(rows, arg, tok, label_map, key_map, keys) -> tuple[list[str], list[str]]:
    """Label and property facts of rows in arg order, as if sorted by (arg,
    label) and (arg, key, value), then by text: a run of ids equal as numbers
    ("7", "007") sorts its facts together.  Each label and value set sorts once."""
    label_order = _Memo(lambda names: sorted(label_map[lab] for lab in names))
    value_order = _Memo(lambda values: [f"{_value_term(v)}).\n" for v in (
        values if len(values) == 1 else sorted(values, key=value_sort_key))])
    tokens = [key_map[key] for key in sorted(keys)]
    resort = tokens != sorted(tokens)   # keys come in text, not token, order
    label_facts, property_facts, last = [], [], None
    for i, (x, names, props) in enumerate(rows):
        if arg[x] != last:  # a run starts: its first row and facts
            last, start, labels_at, properties_at = arg[x], i, len(label_facts), len(property_facts)
        t = tok[x]
        for lab in label_order[names]:
            label_facts.append(f"label({t}, {lab}).\n")
        for key, values in sorted(props, key=lambda row: key_map[row[0]]) if resort else props:
            for term in value_order[values]:
                property_facts.append(f"property({t}, {key_map[key]}, {term}")
        if start < i and (i + 1 == len(rows) or arg[rows[i + 1][0]] != last):
            # A run of ids equal as numbers ends: its facts, sorted together.
            label_facts[labels_at:] = _facts(
                (label_map[lab], f"label({tok[x]}, {label_map[lab]}).\n")
                for x, names, _ in rows[start:i + 1] for lab in names)
            property_facts[properties_at:] = _facts(
                ((key_map[key], value_sort_key(v)),
                 f"property({tok[x]}, {key_map[key]}, {_value_term(v)}).\n")
                for x, _, props in rows[start:i + 1] for key, values in props for v in values)
    return label_facts, property_facts


def _facts(keyed) -> list[str]:
    """The facts of (sort key, fact) pairs, in key order."""
    return [fact for _, fact in sorted(keyed)]
