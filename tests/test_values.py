import dataclasses
import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgshapes.graph import EDGE, NODE
from pgshapes.semantics import Atom
from pgshapes.values import (
    DateValue,
    IntValue,
    StrValue,
    coerce_value,
    compare_sets,
    compare_values,
    parse_date,
    value_text,
)


def test_parse_date_iso():
    assert parse_date("2020-08-02") == datetime.date(2020, 8, 2)


def test_parse_date_slash_is_day_first():
    assert parse_date("02/08/2020") == datetime.date(2020, 8, 2)


@pytest.mark.parametrize(
    "bad",
    ["2020-13-01", "08/02", "soon", "2020/08/02", "", "2020-08-02\n", "02/08/2020\n",
     "\u0662\u0660\u0662\u0660-01-02", "02/01/\u0662\u0660\u0662\u0660"],
)
def test_parse_date_rejects(bad):
    with pytest.raises(ValueError):
        parse_date(bad)


def test_coerce_value():
    assert coerce_value(3) == IntValue(3)
    assert coerce_value("x") == StrValue("x")
    assert coerce_value(datetime.date(1970, 1, 1)) == DateValue(datetime.date(1970, 1, 1))
    assert coerce_value(IntValue(1)) == IntValue(1)
    with pytest.raises(TypeError):
        coerce_value(True)
    with pytest.raises(TypeError):
        coerce_value(1.5)


def test_value_text():
    assert value_text(IntValue(-7)) == "-7"
    assert value_text(StrValue('say "hi"\n')) == '"say \\"hi\\"\\n"'
    assert value_text(DateValue(datetime.date(2020, 8, 2))) == "2020-08-02"


def test_compare_same_type():
    assert compare_values("eq", IntValue(3), IntValue(3))
    assert not compare_values("eq", IntValue(3), IntValue(4))
    assert compare_values("neq", StrValue("a"), StrValue("b"))
    assert compare_values("lt", IntValue(2), IntValue(3))
    assert compare_values("leq", IntValue(3), IntValue(3))
    assert not compare_values("gt", IntValue(3), IntValue(3))
    assert compare_values("geq", DateValue(datetime.date(2021, 1, 1)),
                          DateValue(datetime.date(2020, 1, 1)))
    assert compare_values("lt", StrValue("a"), StrValue("b"))


def test_compare_across_types():
    # Distinct types never compare equal and never order.
    a, b = IntValue(1), StrValue("1")
    assert not compare_values("eq", a, b)
    assert compare_values("neq", a, b)
    for op in ("lt", "leq", "gt", "geq"):
        assert not compare_values(op, a, b)
        assert not compare_values(op, b, a)


@given(st.integers(), st.integers())
def test_compare_matches_python_ints(x, y):
    assert compare_values("lt", IntValue(x), IntValue(y)) == (x < y)
    assert compare_values("eq", IntValue(x), IntValue(y)) == (x == y)
    assert compare_values("geq", IntValue(x), IntValue(y)) == (x >= y)


def test_big_integers_are_exact():
    big = 10**40
    assert compare_values("lt", IntValue(big), IntValue(big + 1))
    assert not compare_values("eq", IntValue(big), IntValue(big + 1))


SET_A = frozenset({IntValue(1), IntValue(2)})
SET_B = frozenset({IntValue(1), IntValue(2), IntValue(3)})
SET_C = frozenset({IntValue(9)})


def test_compare_sets_inclusion():
    assert compare_sets("subseteq", SET_A, SET_B)
    assert compare_sets("subset", SET_A, SET_B)
    assert not compare_sets("subset", SET_A, SET_A)
    assert compare_sets("subseteq", SET_A, SET_A)
    assert compare_sets("superset", SET_B, SET_A)
    assert compare_sets("superseteq", SET_B, SET_B)
    assert compare_sets("disjoint", SET_A, SET_C)
    assert not compare_sets("disjoint", SET_A, SET_B)
    assert compare_sets("eq", SET_A, SET_A)
    assert compare_sets("neq", SET_A, SET_B)


def test_compare_sets_ordering_needs_singletons():
    assert compare_sets("lt", frozenset({IntValue(1)}), frozenset({IntValue(2)}))
    assert not compare_sets("lt", SET_A, SET_C)
    assert not compare_sets("lt", frozenset(), frozenset({IntValue(2)}))
    # Singletons of different types do not order either.
    assert not compare_sets("lt", frozenset({IntValue(1)}), frozenset({StrValue("z")}))


def test_compare_sets_ordering_rejects_bare_ids():
    # Sets of graph identifiers only support the set comparators.
    ids = frozenset({"100"})
    assert compare_sets("eq", ids, ids)
    assert not compare_sets("lt", ids, frozenset({"101"}))


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        compare_values("like", IntValue(1), IntValue(1))
    with pytest.raises(ValueError):
        compare_sets("like", SET_A, SET_B)


RECORDS = [
    (IntValue(1), "IntValue(value=1)"),
    (StrValue("1"), "StrValue(value='1')"),
    (DateValue(datetime.date(2020, 1, 2)), "DateValue(value=datetime.date(2020, 1, 2))"),
    (Atom("s", "1", NODE), "Atom(shape='s', element='1', kind='node')"),
    (Atom("s", "1", EDGE), "Atom(shape='s', element='1', kind='edge')"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=["int", "str", "date", "node", "edge"])
def test_slotted_records_keep_value_semantics(record, text):
    twin = dataclasses.replace(record)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert repr(record) == text
    assert not hasattr(record, "__dict__")
    for other, _ in RECORDS:
        assert (other == record) == (other is record)
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(record, field))
    assert IntValue(1) != StrValue("1") and IntValue(1) != 1
