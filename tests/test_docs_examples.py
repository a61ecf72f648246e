"""The files under docs stay in sync with the code that emits or reads them."""

import re
from pathlib import Path

from pgshapes.asp import export_asp
from pgshapes.jsonio import export_graph_json, import_graph_json
from pgshapes.parser import KEYWORDS, parse_shapes
from pgshapes.printer import render_shapes
from pgshapes.shapes import link_shapes
from pgshapes.values import SET_COMPARATORS

from office import (
    employee_colleague_shape,
    office_graph,
    person_label_shape,
    role_pair_shapes,
    works_since_shape,
)

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


def test_office_json_golden():
    expected = export_graph_json(office_graph())
    assert DOCS.joinpath("office.json").read_bytes() == expected


def test_office_json_imports_back():
    data = DOCS.joinpath("office.json").read_bytes()
    assert import_graph_json(data) == office_graph()


def test_office_asp_golden():
    expected = export_asp(
        office_graph(), link_shapes([employee_colleague_shape()])
    )
    assert DOCS.joinpath("office.asp").read_text() == expected


def test_progs_examples_render_from_fixtures():
    cases = {
        "employee-colleague.progs": [employee_colleague_shape()],
        "office-shapes.progs": role_pair_shapes(),
        "person-check.progs": [person_label_shape()],
        "works-for-meta.progs": [works_since_shape()],
    }
    for name, shapes in cases.items():
        text = DOCS.joinpath(name).read_text()
        assert text == render_shapes(shapes)
        parse_shapes(text)


def grammar_production(name):
    """The quoted terminals of one production of docs/grammar.ebnf."""
    grammar = DOCS.parent.joinpath("grammar.ebnf").read_text()
    (body,) = re.findall(rf"^{name}\s+=(.*?);\s*$", grammar, re.M | re.S)
    return re.findall(r'"([^"]*)"', body)


def test_grammar_lists_the_keywords_and_comparators():
    assert sorted(grammar_production("keyword")) == sorted(KEYWORDS)
    assert tuple(grammar_production("comparator")) == SET_COMPARATORS
