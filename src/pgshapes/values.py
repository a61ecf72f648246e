"""Typed property values: arbitrary-precision integers, text, calendar dates.

Values of different types are never equal and never ordered against each
other; ordering comparisons across types answer False rather than raising.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass

INT = "int"
STRING = "string"
DATE = "date"

VALUE_TYPES = (INT, STRING, DATE)


@dataclass(frozen=True, slots=True)
class IntValue:
    value: int

    type_name = INT


@dataclass(frozen=True, slots=True)
class StrValue:
    value: str

    type_name = STRING


@dataclass(frozen=True, slots=True)
class DateValue:
    value: datetime.date

    type_name = DATE


Value = IntValue | StrValue | DateValue

_VALUE_CLASSES = (IntValue, StrValue, DateValue)

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_SLASH_DATE = re.compile(r"([0-9]{2})/([0-9]{2})/([0-9]{4})")

# The escapes of a quoted string: the character each one stands for, by the
# letter after its backslash.
ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE_OF = {char: "\\" + letter for letter, char in ESCAPES.items()}
_ESCAPED = re.compile("[" + re.escape("".join(_ESCAPE_OF)) + "]")


def parse_date(text: str) -> datetime.date:
    """Parse ``YYYY-MM-DD`` or the day-first ``DD/MM/YYYY`` notation."""
    if _ISO_DATE.fullmatch(text):  # fromisoformat also takes 20200802, 2020-W01-1
        return datetime.date.fromisoformat(text)
    m = _SLASH_DATE.fullmatch(text)
    if m:
        return datetime.date(int(m.group(3)), int(m.group(2)), int(m.group(1)))
    raise ValueError(f"not a date: {text!r}")


def coerce_value(raw: object) -> Value:
    """Wrap a plain int/str/date as a Value; pass Values through unchanged.

    bool is rejected explicitly: it is an int subclass but has no place in
    the value model.
    """
    if isinstance(raw, _VALUE_CLASSES):
        return raw
    if isinstance(raw, bool):
        raise TypeError("bool is not a property value")
    if isinstance(raw, int):
        return IntValue(raw)
    if isinstance(raw, str):
        return StrValue(raw)
    if isinstance(raw, datetime.date):
        return DateValue(raw)
    raise TypeError(f"not a property value: {raw!r}")


def value_text(v: Value) -> str:
    """Canonical text for a value (ISO dates, double-quoted strings)."""
    if isinstance(v, StrValue):
        return quote_string(v.value)
    if isinstance(v, DateValue):
        return v.value.isoformat()
    return str(v.value)


def quote_string(s: str) -> str:
    return '"' + _ESCAPED.sub(_escape, s) + '"'


def _escape(m: re.Match) -> str:
    return _ESCAPE_OF[m[0]]


def value_sort_key(v: Value) -> tuple:
    # Deterministic ordering across mixed-type sets, for stable output only.
    if isinstance(v, IntValue):
        return (0, str(v.value))
    if isinstance(v, StrValue):
        return (1, v.value)
    return (2, v.value.isoformat())


# Comparison operators usable in value predicates and set comparisons.
EQ, NEQ, LT, LEQ, GT, GEQ = "eq", "neq", "lt", "leq", "gt", "geq"
ORDER_OPS = (LT, LEQ, GT, GEQ)
CMP_OPS = (EQ, NEQ) + ORDER_OPS


def compare_values(op: str, a: Value, b: Value) -> bool:
    """Two-valued comparison.  Cross-type: equal never, ordered never."""
    if op == EQ:
        return a == b
    if op == NEQ:
        return a != b
    if type(a) is not type(b):
        return False
    if op == LT:
        return a.value < b.value
    if op == LEQ:
        return a.value <= b.value
    if op == GT:
        return a.value > b.value
    if op == GEQ:
        return a.value >= b.value
    raise ValueError(f"unknown comparison operator: {op!r}")


# Set comparators (over value sets or element-id sets).
SUBSET, SUBSETEQ, SUPERSET, SUPERSETEQ, DISJOINT = (
    "subset",
    "subseteq",
    "superset",
    "superseteq",
    "disjoint",
)
SET_COMPARATORS = (
    EQ,
    NEQ,
    SUBSET,
    SUBSETEQ,
    SUPERSET,
    SUPERSETEQ,
    DISJOINT,
    LT,
    LEQ,
    GT,
    GEQ,
)


def compare_sets(op: str, left: frozenset, right: frozenset) -> bool:
    """Two-valued set comparison.

    The ordering comparators apply only when both operands are singleton
    sets of same-typed values; in every other case (non-singletons, id sets,
    mixed types) they answer False.
    """
    if op == EQ:
        return left == right
    if op == NEQ:
        return left != right
    if op == SUBSET:
        return left < right
    if op == SUBSETEQ:
        return left <= right
    if op == SUPERSET:
        return left > right
    if op == SUPERSETEQ:
        return left >= right
    if op == DISJOINT:
        return left.isdisjoint(right)
    if op in ORDER_OPS:
        if len(left) != 1 or len(right) != 1:
            return False
        (a,) = left
        (b,) = right
        if not isinstance(a, _VALUE_CLASSES) or not isinstance(b, _VALUE_CLASSES):
            return False
        return compare_values(op, a, b)
    raise ValueError(f"unknown set comparator: {op!r}")
