"""Parser for the .progs shape syntax.

One shape per declaration: ``NODE name [target] { constraint };`` or EDGE.
Constraint operators bind ! over & over |; counting bodies after ``.`` and
the src/dst operands take a single unary constraint, so conjunctions there
need parentheses.  parse_shapes desugars and links, so its output contains
core constraints and plain targets only.  Brackets and unary operators nest
at most MAX_NESTING deep.  That bounds the parser's own recursion and every
one left after it (tests/test_imports.py lists them): grounding reaches an
operand that moves to another element, or sits under `!`, by a recursive
call, while evaluation reads the grounded circuit without recursing.
Chains of any length never depend on it: every other pass walks the tree on
an explicit stack (shapes.fold) or takes a chain apart on a list
(shapes.conjuncts).
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import ShapeSyntaxError
from .graph import EDGE, NODE
from .shapes import (
    Alt,
    And,
    AnyValue,
    AtMostIncoming,
    AtMostKey,
    AtMostOutgoing,
    AtMostPath,
    Cmp,
    Constraint,
    Dst,
    EdgeLabel,
    Exact,
    ExactlyIncoming,
    ExactlyKey,
    ExactlyOutgoing,
    ExactlyPath,
    HasLabel,
    Inverse,
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
    QualIncoming,
    QualKey,
    QualOutgoing,
    QualPath,
    Seq,
    Shape,
    ShapeRef,
    ShapeSet,
    Span,
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
    KeyCmp,
)
from .sugar import desugar_shapes
from .values import (
    DateValue,
    EQ,
    GEQ,
    GT,
    IntValue,
    LEQ,
    LT,
    NEQ,
    SET_COMPARATORS,
    StrValue,
    Value,
    parse_date,
)

KEYWORDS = frozenset(
    {"NODE", "EDGE", "true", "src", "dst", "id", "key", "cmp",
     "int", "string", "date", "any"}
)

# One token at a position, alternatives tried in order: operators (the
# multi-character ones first), then dates before integers before names.
# Strings are scanned by hand for their escapes.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r]+)|(?P<newline>\n)"
    r"|(?P<op><-\[|->\[|>=|<=|!=|\|\||[!&|=<>(){}\[\];.,:/*+?^])"
    r"|(?P<DATE>[0-9]{4}-[0-9]{2}-[0-9]{2})|(?P<INT>-?[0-9]+)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
)

PRED_OPS = {"=": EQ, "!=": NEQ, "<": LT, "<=": LEQ, ">": GT, ">=": GEQ}

# The counting forms by operator: over a path, incoming edges, outgoing
# edges, and a key's values.
COUNTING_FORMS = {
    ">=": (QualPath, QualIncoming, QualOutgoing, QualKey),
    "<=": (AtMostPath, AtMostIncoming, AtMostOutgoing, AtMostKey),
    "=": (ExactlyPath, ExactlyIncoming, ExactlyOutgoing, ExactlyKey),
}

MAX_NESTING = 100


@dataclass(frozen=True)
class Token:
    kind: str  # op text, or IDENT/KW/INT/DATE/STRING/EOF
    text: str
    start: int
    end: int
    line: int
    column: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end, self.line, self.column)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    while i < n:
        start, start_line, start_col = i, line, col
        if text[i] == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    if j + 1 >= n:
                        break
                    esc = text[j + 1]
                    if esc == "n":
                        out.append("\n")
                    elif esc == "t":
                        out.append("\t")
                    elif esc == "r":
                        out.append("\r")
                    elif esc in ('"', "\\"):
                        out.append(esc)
                    else:
                        raise ShapeSyntaxError(
                            f"bad string escape \\{esc}",
                            span=Span(j, j + 2, line, col + (j - i)),
                        )
                    j += 2
                else:
                    if text[j] == "\n":
                        break
                    out.append(text[j])
                    j += 1
            if j >= n or text[j] != '"':
                raise ShapeSyntaxError(
                    "unterminated string",
                    span=Span(start, min(j + 1, n), start_line, start_col),
                )
            lexeme = text[start:j + 1]
            tokens.append(Token("STRING", "".join(out), start, j + 1,
                                start_line, start_col))
            col += len(lexeme)
            i = j + 1
            continue
        m = _TOKEN.match(text, i)
        if m is None:
            raise ShapeSyntaxError(
                f"unexpected character {text[i]!r}",
                span=Span(start, start + 1, start_line, start_col),
            )
        kind, lexeme, i = m.lastgroup, m.group(), m.end()
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "op":
            kind = lexeme
        elif kind == "IDENT" and lexeme in KEYWORDS:
            kind = "KW"
        if kind != "space":
            tokens.append(Token(kind, lexeme, start, i, start_line, start_col))
        col += len(lexeme)
    tokens.append(Token("EOF", "", n, n, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            got = self.peek()
            wanted = text or kind
            self.fail(f"expected {wanted!r}, found {got.text or got.kind!r}", got)
        return self.next()

    def fail(self, message: str, token: Token):
        raise ShapeSyntaxError(message, span=token.span)

    def integer(self, token: Token) -> int:
        try:
            return int(token.text)
        except ValueError:  # more digits than int() converts
            self.fail(f"integer over {sys.get_int_max_str_digits()} digits", token)

    @contextmanager
    def nested(self, token: Token):
        """One nesting level, opened at `token`, around the parse inside."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", token)
        yield
        self.depth -= 1

    def span_from(self, start: Token) -> Span:
        prev = self.tokens[max(self.pos - 1, 0)]
        return Span(start.start, prev.end, start.line, start.column)

    # -- document ----------------------------------------------------------

    def document(self) -> list[Shape]:
        shapes = []
        while not self.at("EOF"):
            shapes.append(self.shape())
        return shapes

    def shape(self) -> Shape:
        head = self.peek()
        if self.at("KW", "NODE"):
            kind = NODE
        elif self.at("KW", "EDGE"):
            kind = EDGE
        else:
            self.fail("expected NODE or EDGE", head)
        self.next()
        name_tok = self.peek()
        if name_tok.kind != "IDENT":
            self.fail("expected a shape name", name_tok)
        self.next()
        self.expect("[")
        target = self.target()
        self.expect("]")
        self.expect("{")
        constraint = self.or_constraint()
        self.expect("}")
        self.expect(";")
        return Shape(name_tok.text, kind, constraint, target,
                     span=self.span_from(head))

    # -- targets -----------------------------------------------------------

    def target(self) -> Target:
        start = self.peek()
        if self.at("]"):
            return Nothing(span=start.span)
        first = self.plain_target()
        if self.at("&") or self.at("|"):
            op = self.next()
            second = self.plain_target()
            if self.at("&") or self.at("|"):
                self.fail("target combinators do not chain", self.peek())
            cls = TargetAnd if op.kind == "&" else TargetOr
            return cls(first, second, span=self.span_from(start))
        return first

    def plain_target(self) -> Target:
        start = self.peek()
        if self.at(":"):
            self.next()
            label = self.expect("IDENT")
            return TargetLabel(label.text, span=self.span_from(start))
        if self.at("KW", "id"):
            self.next()
            tok = self.peek()
            if tok.kind not in ("IDENT", "INT"):
                self.fail("expected an element id", tok)
            self.next()
            return TargetExact(tok.text, span=self.span_from(start))
        if self.at("KW", "key"):
            self.next()
            key = self.expect("IDENT")
            if self.at("="):
                self.next()
                value = self.value()
                return TargetKeyValue(value, key.text, span=self.span_from(start))
            return TargetKey(key.text, span=self.span_from(start))
        self.fail("expected a target", start)

    # -- constraints -------------------------------------------------------

    def or_constraint(self) -> Constraint:
        start = self.peek()
        left = self.and_constraint()
        while self.at("|"):
            self.next()
            right = self.and_constraint()
            left = Or(left, right, span=self.span_from(start))
        return left

    def and_constraint(self) -> Constraint:
        start = self.peek()
        left = self.unary_constraint()
        while self.at("&"):
            self.next()
            right = self.unary_constraint()
            left = And(left, right, span=self.span_from(start))
        return left

    def unary_constraint(self) -> Constraint:
        start = self.peek()
        if self.at("!"):
            with self.nested(start):
                self.next()
                inner = self.unary_constraint()
            return Not(inner, span=self.span_from(start))
        if self.at(">=") or self.at("<=") or self.at("="):
            with self.nested(start):
                return self.counting(start)
        if self.at("KW", "src"):
            with self.nested(start):
                self.next()
                inner = self.unary_constraint()
            return Src(inner, span=self.span_from(start))
        if self.at("KW", "dst"):
            with self.nested(start):
                self.next()
                inner = self.unary_constraint()
            return Dst(inner, span=self.span_from(start))
        return self.primary_constraint()

    def counting(self, start: Token) -> Constraint:
        op = self.next().kind  # ">=", "<=", or "="
        count_tok = self.expect("INT")
        count = self.integer(count_tok)
        if count < 0:
            self.fail("count must not be negative", count_tok)
        path_form, in_form, out_form, key_form = COUNTING_FORMS[op]
        if self.at("<-["):
            self.next()
            inner = self.or_constraint()
            self.expect("]")
            return in_form(count, inner, span=self.span_from(start))
        if self.at("->["):
            self.next()
            inner = self.or_constraint()
            self.expect("]")
            return out_form(count, inner, span=self.span_from(start))
        if self.at("KW", "key"):
            self.next()
            key = self.expect("IDENT")
            self.expect(".")
            predicate = self.predicate_atom()
            return key_form(count, key.text, predicate,
                            span=self.span_from(start))
        path = self.path()
        self.expect(".")
        inner = self.unary_constraint()
        return path_form(count, path, inner, span=self.span_from(start))

    def primary_constraint(self) -> Constraint:
        start = self.peek()
        if self.at("("):
            with self.nested(start):
                self.next()
                inner = self.or_constraint()
                self.expect(")")
            return inner
        if self.at("KW", "true"):
            self.next()
            return Top(span=start.span)
        if self.at("KW", "id"):
            self.next()
            tok = self.peek()
            if tok.kind not in ("IDENT", "INT"):
                self.fail("expected an element id", tok)
            self.next()
            return Exact(tok.text, span=self.span_from(start))
        if self.at(":"):
            self.next()
            label = self.expect("IDENT")
            return HasLabel(label.text, span=self.span_from(start))
        if self.at("KW", "cmp"):
            return self.cmp_constraint()
        if self.at("IDENT"):
            tok = self.next()
            return ShapeRef(tok.text, span=tok.span)
        self.fail("expected a constraint", start)

    def cmp_constraint(self) -> Constraint:
        start = self.expect("KW", "cmp")
        self.expect("(")
        op_tok = self.peek()
        if op_tok.kind not in ("IDENT", "KW") or op_tok.text not in SET_COMPARATORS:
            self.fail("expected a set comparator name", op_tok)
        self.next()
        self.expect(",")
        first = self.cmp_operand()
        self.expect(",")
        second = self.cmp_operand()
        self.expect(")")
        span = self.span_from(start)
        op = op_tok.text
        if first[0] == "key" and second[0] == "key":
            return KeyCmp(op, first[1], second[1], span=span)
        if first[0] == "path" and second[0] == "path":
            return PathCmp(op, first[1], second[1], span=span)
        if first[0] == "pathkey" and second[0] == "pathkey":
            return PathKeyCmp(op, first[1], first[2], second[1], second[2],
                              span=span)
        self.fail(
            "cmp operands must both be keys, both paths, or both path keys",
            start,
        )

    def cmp_operand(self):
        if self.at("KW", "key"):
            self.next()
            key = self.expect("IDENT")
            return ("key", key.text)
        path = self.path()
        if self.at("KW", "key"):
            self.next()
            key = self.expect("IDENT")
            return ("pathkey", path, key.text)
        return ("path", path)

    # -- paths ---------------------------------------------------------------

    def path(self) -> PathExpr:
        start = self.peek()
        left = self.path_seq()
        while self.at("||"):
            self.next()
            right = self.path_seq()
            left = Alt(left, right, span=self.span_from(start))
        return left

    def path_seq(self) -> PathExpr:
        start = self.peek()
        left = self.path_prefix()
        while self.at("/"):
            self.next()
            right = self.path_prefix()
            left = Seq(left, right, span=self.span_from(start))
        return left

    def path_prefix(self) -> PathExpr:
        start = self.peek()
        if self.at("^"):
            with self.nested(start):
                self.next()
                inner = self.path_prefix()
            return Inverse(inner, span=self.span_from(start))
        if self.at("?"):
            with self.nested(start):
                self.next()
                inner = self.path_prefix()
            return Opt(inner, span=self.span_from(start))
        return self.path_postfix()

    def path_postfix(self) -> PathExpr:
        start = self.peek()
        p = self.path_primary()
        depth = self.depth
        while self.at("*") or self.at("+"):
            # Each repetition wraps the tree once more without recursing.
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(f"nesting deeper than {MAX_NESTING} levels", self.peek())
            op = self.next()
            cls = Star if op.kind == "*" else Plus
            p = cls(p, span=self.span_from(start))
        self.depth = depth
        return p

    def path_primary(self) -> PathExpr:
        start = self.peek()
        if self.at("("):
            with self.nested(start):
                self.next()
                inner = self.path()
                self.expect(")")
            return inner
        if self.at(":"):
            self.next()
            label = self.expect("IDENT")
            return EdgeLabel(label.text, span=self.span_from(start))
        self.fail("expected a path", start)

    # -- value predicates ----------------------------------------------------

    def predicate_atom(self) -> ValuePredicate:
        start = self.peek()
        if self.at("!"):
            with self.nested(start):
                self.next()
                inner = self.predicate_atom()
            return PredNot(inner, span=self.span_from(start))
        if self.at("("):
            with self.nested(start):
                self.next()
                inner = self.predicate_and()
                self.expect(")")
            return inner
        if self.at("KW", "any"):
            self.next()
            return AnyValue(span=start.span)
        for kw in ("int", "string", "date"):
            if self.at("KW", kw):
                self.next()
                return TypeIs(kw, span=start.span)
        for sym, op in PRED_OPS.items():
            if self.at(sym):
                self.next()
                value = self.value()
                return Cmp(op, value, span=self.span_from(start))
        self.fail("expected a value predicate", start)

    def predicate_and(self) -> ValuePredicate:
        start = self.peek()
        left = self.predicate_atom()
        while self.at("&"):
            self.next()
            right = self.predicate_atom()
            left = PredAnd(left, right, span=self.span_from(start))
        return left

    # -- values ----------------------------------------------------------------

    def value(self) -> Value:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return IntValue(self.integer(tok))
        if tok.kind == "DATE":
            self.next()
            try:
                return DateValue(parse_date(tok.text))
            except ValueError:
                self.fail("not a calendar date", tok)
        if tok.kind == "STRING":
            self.next()
            return StrValue(tok.text)
        self.fail("expected a value", tok)


def parse_shape_document(text: str) -> tuple[Shape, ...]:
    """Parse without desugaring or linking; sugar and compound targets stay."""
    return tuple(_Parser(text).document())


def parse_shapes(text: str) -> ShapeSet:
    """Parse .progs text into a desugared, linked shape set."""
    return desugar_shapes(parse_shape_document(text))
