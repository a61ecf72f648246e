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
from typing import NamedTuple

from .errors import ShapeSyntaxError
from .graph import EDGE, NODE
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
    ESCAPES,
    VALUE_TYPES,
    Value,
    parse_date,
)

KEYWORDS = frozenset(
    {"NODE", "EDGE", "true", "src", "dst", "id", "key", "cmp",
     "int", "string", "date", "any"}
)

# The spellings of names and integers; printer.py writes bare only what
# these match.
IDENT_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"
INT_PATTERN = r"-?[0-9]+"

# One token at a position, alternatives tried in order: operators (the
# multi-character ones first), then dates before integers before names.  A
# string's escapes are decoded after the match; a string that does not
# close matches no alternative.
_STRING_OPEN = r'"(?:[^"\\\n]|\\[\s\S])*'
_TOKEN = re.compile(
    rf"(?P<space>[ \t\r]+)|(?P<newline>\n)|(?P<STRING>{_STRING_OPEN}\")"
    r"|(?P<op><-\[|->\[|>=|<=|!=|\|\||[!&|=<>(){}\[\];.,:/*+?^])"
    rf"|(?P<DATE>[0-9]{{4}}-[0-9]{{2}}-[0-9]{{2}})|(?P<INT>{INT_PATTERN})"
    rf"|(?P<IDENT>{IDENT_PATTERN})"
)
_STRING_PREFIX = re.compile(_STRING_OPEN)
_ESCAPE = re.compile(r"\\([\s\S])")

PRED_OPS = {"=": EQ, "!=": NEQ, "<": LT, "<=": LEQ, ">": GT, ">=": GEQ}

# The prefix operators of constraints and of paths, and the postfix ones.
_PREFIX = {"!": Not, "src": Src, "dst": Dst}
_PATH_PREFIX = {"^": Inverse, "?": Opt}
_PATH_POSTFIX = {"*": Star, "+": Plus}

MAX_NESTING = 100


class Token(NamedTuple):
    kind: str  # an operator's or keyword's own text, or IDENT/INT/DATE/STRING/EOF
    text: str  # a string's text with its escapes decoded
    start: int
    end: int
    line: int
    column: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end, self.line, self.column)


def _unescape(body: str, start: int, line: int, column: int) -> str:
    """The text of a string body that begins at offset `start`."""
    def decode(m: re.Match) -> str:
        if m[1] not in ESCAPES:
            raise ShapeSyntaxError(
                f"bad string escape \\{m[1]}",
                span=Span(start + m.start(), start + m.end(), line, column + m.start()),
            )
        return ESCAPES[m[1]]

    return _ESCAPE.sub(decode, body) if "\\" in body else body


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, line_start, n = 0, 1, 0, len(text)
    while i < n:
        start, column = i, i - line_start + 1
        m = _TOKEN.match(text, i)
        if m is None:
            if text[i] != '"':
                raise ShapeSyntaxError(f"unexpected character {text[i]!r}",
                                       span=Span(i, i + 1, line, column))
            j = _STRING_PREFIX.match(text, i).end()  # stops at a newline, a last backslash or the end
            _unescape(text[i + 1:j], i + 1, line, column + 1)
            raise ShapeSyntaxError("unterminated string",
                                   span=Span(i, min(j + 1, n), line, column))
        kind, i = m.lastgroup, m.end()
        if kind == "space":
            continue
        if kind == "newline":
            line, line_start = line + 1, i
            continue
        lexeme = m[0]
        if kind == "STRING":
            lexeme = _unescape(lexeme[1:-1], start + 1, line, column + 1)
        elif kind == "op" or lexeme in KEYWORDS:
            kind = lexeme
        tokens.append(Token(kind, lexeme, start, i, line, column))
    tokens.append(Token("EOF", "", n, n, line, n - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None) -> Token | None:
        """The next token, consumed, if it is of `kind` (of any kind but
        EOF when `kind` is None); None otherwise."""
        t = self.tokens[self.pos]
        if t.kind == "EOF" or (kind is not None and t.kind != kind):
            return None
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.take(kind)
        if t is None:
            got = self.peek()
            self.fail(f"expected {kind!r}, found {got.text or got.kind!r}", got)
        return t

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

    def chain(self, op: str, operand, form):
        """operand { op operand }, grouped to the left."""
        start = self.peek()
        left = operand()
        while self.take(op):
            left = form(left, operand(), span=self.span_from(start))
        return left

    def element_id(self) -> Token:
        tok = self.take("IDENT") or self.take("INT")
        if tok is None:
            self.fail("expected an element id", self.peek())
        return tok

    # -- document ----------------------------------------------------------

    def document(self) -> list[Shape]:
        shapes = []
        while self.peek().kind != "EOF":
            shapes.append(self.shape())
        return shapes

    def shape(self) -> Shape:
        head = self.take("NODE") or self.take("EDGE")
        if head is None:
            self.fail("expected NODE or EDGE", self.peek())
        name = self.take("IDENT")
        if name is None:
            self.fail("expected a shape name", self.peek())
        self.expect("[")
        target = self.target()
        self.expect("]")
        self.expect("{")
        constraint = self.or_constraint()
        self.expect("}")
        self.expect(";")
        kind = NODE if head.kind == "NODE" else EDGE
        return Shape(name.text, kind, constraint, target, span=self.span_from(head))

    # -- targets -----------------------------------------------------------

    def target(self) -> Target:
        start = self.peek()
        if start.kind == "]":
            return Nothing(span=start.span)
        first = self.plain_target()
        op = self.take("&") or self.take("|")
        if op is None:
            return first
        second = self.plain_target()
        if self.peek().kind in ("&", "|"):
            self.fail("target combinators do not chain", self.peek())
        form = TargetAnd if op.kind == "&" else TargetOr
        return form(first, second, span=self.span_from(start))

    def plain_target(self) -> Target:
        start = self.peek()
        if self.take(":"):
            label = self.expect("IDENT")
            return TargetLabel(label.text, span=self.span_from(start))
        if self.take("id"):
            element = self.element_id()
            return TargetExact(element.text, span=self.span_from(start))
        if self.take("key"):
            key = self.expect("IDENT")
            if self.take("="):
                value = self.value()
                return TargetKeyValue(value, key.text, span=self.span_from(start))
            return TargetKey(key.text, span=self.span_from(start))
        self.fail("expected a target", start)

    # -- constraints -------------------------------------------------------

    def or_constraint(self) -> Constraint:
        return self.chain("|", self.and_constraint, Or)

    def and_constraint(self) -> Constraint:
        return self.chain("&", self.unary_constraint, And)

    def unary_constraint(self) -> Constraint:
        start = self.peek()
        form = _PREFIX.get(start.kind)
        if form is None and start.kind not in COUNTING_FORMS:
            return self.primary_constraint()
        with self.nested(start):
            self.take()
            if form is None:
                return self.counting(start)
            inner = self.unary_constraint()
        return form(inner, span=self.span_from(start))

    def counting(self, start: Token) -> Constraint:
        """The rest of a counting form after its operator `start`."""
        path_form, in_form, out_form, key_form = COUNTING_FORMS[start.kind]
        count_tok = self.expect("INT")
        count = self.integer(count_tok)
        if count < 0:
            self.fail("count must not be negative", count_tok)
        arrow = self.take("<-[") or self.take("->[")
        if arrow:
            inner = self.or_constraint()
            self.expect("]")
            form = in_form if arrow.kind == "<-[" else out_form
            return form(count, inner, span=self.span_from(start))
        if self.take("key"):
            key = self.expect("IDENT")
            self.expect(".")
            predicate = self.predicate_atom()
            return key_form(count, key.text, predicate, span=self.span_from(start))
        path = self.path()
        self.expect(".")
        inner = self.unary_constraint()
        return path_form(count, path, inner, span=self.span_from(start))

    def primary_constraint(self) -> Constraint:
        start = self.peek()
        if start.kind == "(":
            with self.nested(start):
                self.take()
                inner = self.or_constraint()
                self.expect(")")
            return inner
        if self.take("true"):
            return Top(span=start.span)
        if self.take("id"):
            element = self.element_id()
            return Exact(element.text, span=self.span_from(start))
        if self.take(":"):
            label = self.expect("IDENT")
            return HasLabel(label.text, span=self.span_from(start))
        if self.take("cmp"):
            return self.cmp_constraint(start)
        if self.take("IDENT"):
            return ShapeRef(start.text, span=start.span)
        self.fail("expected a constraint", start)

    def cmp_constraint(self, start: Token) -> Constraint:
        """The rest of a cmp(...) form after its keyword `start`."""
        self.expect("(")
        op = self.peek()
        if op.kind != "IDENT" or op.text not in SET_COMPARATORS:
            self.fail("expected a set comparator name", op)
        self.take()
        self.expect(",")
        first = self.cmp_operand()
        self.expect(",")
        second = self.cmp_operand()
        self.expect(")")
        span = self.span_from(start)
        if first[0] != second[0]:
            self.fail(
                "cmp operands must both be keys, both paths, or both path keys",
                start,
            )
        if first[0] == "key":
            return KeyCmp(op.text, first[1], second[1], span=span)
        if first[0] == "path":
            return PathCmp(op.text, first[1], second[1], span=span)
        return PathKeyCmp(op.text, first[1], first[2], second[1], second[2], span=span)

    def cmp_operand(self):
        if self.take("key"):
            return ("key", self.expect("IDENT").text)
        path = self.path()
        if self.take("key"):
            return ("pathkey", path, self.expect("IDENT").text)
        return ("path", path)

    # -- paths ---------------------------------------------------------------

    def path(self) -> PathExpr:
        return self.chain("||", self.path_seq, Alt)

    def path_seq(self) -> PathExpr:
        return self.chain("/", self.path_prefix, Seq)

    def path_prefix(self) -> PathExpr:
        start = self.peek()
        form = _PATH_PREFIX.get(start.kind)
        if form is None:
            return self.path_postfix()
        with self.nested(start):
            self.take()
            inner = self.path_prefix()
        return form(inner, span=self.span_from(start))

    def path_postfix(self) -> PathExpr:
        start = self.peek()
        p = self.path_primary()
        depth = self.depth
        while (form := _PATH_POSTFIX.get(self.peek().kind)) is not None:
            # Each repetition wraps the tree once more without recursing.
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(f"nesting deeper than {MAX_NESTING} levels", self.peek())
            self.take()
            p = form(p, span=self.span_from(start))
        self.depth = depth
        return p

    def path_primary(self) -> PathExpr:
        start = self.peek()
        if start.kind == "(":
            with self.nested(start):
                self.take()
                inner = self.path()
                self.expect(")")
            return inner
        if self.take(":"):
            label = self.expect("IDENT")
            return EdgeLabel(label.text, span=self.span_from(start))
        self.fail("expected a path", start)

    # -- value predicates ----------------------------------------------------

    def predicate_atom(self) -> ValuePredicate:
        start = self.peek()
        if start.kind == "!":
            with self.nested(start):
                self.take()
                inner = self.predicate_atom()
            return PredNot(inner, span=self.span_from(start))
        if start.kind == "(":
            with self.nested(start):
                self.take()
                inner = self.predicate_and()
                self.expect(")")
            return inner
        if self.take("any"):
            return AnyValue(span=start.span)
        if start.kind in VALUE_TYPES:
            self.take()
            return TypeIs(start.kind, span=start.span)
        if start.kind in PRED_OPS:
            self.take()
            value = self.value()
            return Cmp(PRED_OPS[start.kind], value, span=self.span_from(start))
        self.fail("expected a value predicate", start)

    def predicate_and(self) -> ValuePredicate:
        return self.chain("&", self.predicate_atom, PredAnd)

    # -- values ----------------------------------------------------------------

    def value(self) -> Value:
        tok = self.peek()
        if self.take("INT"):
            return IntValue(self.integer(tok))
        if self.take("DATE"):
            try:
                return DateValue(parse_date(tok.text))
            except ValueError:
                self.fail("not a calendar date", tok)
        if self.take("STRING"):
            return StrValue(tok.text)
        self.fail("expected a value", tok)


def parse_shape_document(text: str) -> tuple[Shape, ...]:
    """Parse without desugaring or linking; sugar and compound targets stay."""
    return tuple(_Parser(text).document())


def parse_shapes(text: str) -> ShapeSet:
    """Parse .progs text into a desugared, linked shape set."""
    return desugar_shapes(parse_shape_document(text))
