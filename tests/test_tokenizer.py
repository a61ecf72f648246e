"""The tokenizer against an oracle: the positional scanner it replaced.

`oracle_tokenize` tries the token pattern at each position in turn and, on
a position no token matches, finds an unterminated string's extent with a
second pattern.  `parser._tokenize` must give the same tokens on every text,
or raise ShapeSyntaxError with the same message and span.  The texts are
seeded random runs of token fragments and of hostile pieces: `#`, strings
left open at a newline, at the end or after a trailing backslash, bad
escapes, `\\r\\n` line ends and long `&` chains.
"""

import random
import re

from pgshapes.errors import ShapeSyntaxError
from pgshapes.parser import KEYWORDS, Token, _tokenize
from pgshapes.shapes import Span
from pgshapes.values import ESCAPES

_STRING_OPEN = r'"(?:[^"\\\n]|\\[\s\S])*'
_TOKEN = re.compile(
    rf"(?P<space>[ \t\r]+)|(?P<newline>\n)|(?P<STRING>{_STRING_OPEN}\")"
    r"|(?P<op><-\[|->\[|>=|<=|!=|\|\||[!&|=<>(){}\[\];.,:/*+?^])"
    r"|(?P<DATE>[0-9]{4}-[0-9]{2}-[0-9]{2})|(?P<INT>-?[0-9]+)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
)
_STRING_PREFIX = re.compile(_STRING_OPEN)
_ESCAPE = re.compile(r"\\([\s\S])")


def _unescape(body: str, start: int, line: int, column: int) -> str:
    def decode(m: re.Match) -> str:
        if m[1] not in ESCAPES:
            raise ShapeSyntaxError(
                f"bad string escape \\{m[1]}",
                span=Span(start + m.start(), start + m.end(), line, column + m.start()),
            )
        return ESCAPES[m[1]]

    return _ESCAPE.sub(decode, body) if "\\" in body else body


def oracle_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, line_start, n = 0, 1, 0, len(text)
    while i < n:
        start, column = i, i - line_start + 1
        m = _TOKEN.match(text, i)
        if m is None:
            if text[i] != '"':
                raise ShapeSyntaxError(f"unexpected character {text[i]!r}",
                                       span=Span(i, i + 1, line, column))
            j = _STRING_PREFIX.match(text, i).end()
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


FRAGMENTS = (
    "NODE", "EDGE", "true", "src", "dst", "id", "key", "cmp", "int", "string",
    "date", "any", "s1", "_x", "Name9", "0", "42", "-7", "007", "2020-01-31",
    "9999-99-99", '""', '"text"', '"a\\"b"', '"\\n\\t\\r\\\\"', '"tab\there"',
    "<-[", "->[", ">=", "<=", "!=", "||", "!", "&", "|", "=", "<", ">", "(",
    ")", "{", "}", "[", "]", ";", ".", ",", ":", "/", "*", "+", "?", "^",
    " ", "  ", "\t", "\r", "\n", "\r\n",
)
HOSTILE = (
    "#", "-", "é", "@", "\\", "\x00",
    '"open\n', '"open', '"open\\', '"bad \\q"', '"\\', '"a\\\n"', "\r\n",
)


def random_text(rng: random.Random, hostile: float) -> str:
    pieces = []
    for _ in range(rng.randint(0, 40)):
        pool = HOSTILE if rng.random() < hostile else FRAGMENTS
        pieces.append(rng.choice(pool))
        if rng.random() < 0.5:
            pieces.append(rng.choice((" ", "\n", "\r\n", "\t")))
    return "".join(pieces)


def outcome(tokenize, text: str):
    try:
        return tokenize(text)
    except ShapeSyntaxError as exc:
        span = exc.span
        return ("error", str(exc), (span.start, span.end, span.line, span.column))


def texts():
    rng = random.Random("tokenizer")
    for i in range(3000):
        yield random_text(rng, hostile=(0.0, 0.02, 0.2)[i % 3])
    chain = " & ".join(f"s{i}" for i in range(1000))
    yield f"NODE s [] {{ {chain} }};\n"
    yield f"NODE s [] {{ {chain} }};\r\n" * 3
    yield "&" * 1000 + '"open'
    yield "& " * 1000 + "#"
    yield "\r\n".join(["NODE s [] { >= 1 key k . = \"x\\q\" };"] * 5)


def test_oracle_raises_where_expected():
    assert outcome(oracle_tokenize, 'a "b') == ("error", "unterminated string", (2, 4, 1, 3))


def test_tokenize_matches_the_positional_scanner():
    for text in texts():
        assert outcome(_tokenize, text) == outcome(oracle_tokenize, text), repr(text)
