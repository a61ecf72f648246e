"""A small employment graph and shapes over it, for the tests.

The graph has two employees and a company: Tim works for Wernham Hogg and is
a colleague of Gareth (in both directions), who also works for the company.
It is small enough to trace by hand and rich enough to exercise labels,
multi-valued properties, edge properties, and dates, so a good share of the
tests use it, and the files under docs/examples are its renderings
(tests/test_docs_examples.py keeps them in sync).
"""

from __future__ import annotations

import datetime

from pgshapes.graph import EDGE, NODE, PropertyGraph, build_graph
from pgshapes.shapes import (
    And,
    Cmp,
    HasLabel,
    Nothing,
    QualKey,
    QualPath,
    Shape,
    ShapeRef,
    ShapeSet,
    Src,
    TargetKeyValue,
    TargetLabel,
    TypeIs,
    link_shapes,
)
from pgshapes.shapes import EdgeLabel as PathLabel
from pgshapes.values import DateValue, GEQ, STRING, StrValue


def office_graph() -> PropertyGraph:
    return build_graph(
        nodes=[100, 101, 102],
        edges=[200, 201, 202, 203],
        endpoints={
            200: (100, 101),
            201: (100, 102),
            202: (102, 100),
            203: (102, 101),
        },
        labelings={
            100: ["Person", "Employee"],
            101: ["Company"],
            102: ["Employee"],
            200: ["worksFor"],
            201: ["colleagueOf"],
            202: ["colleagueOf"],
            203: ["worksFor"],
        },
        properties={
            (100, "name"): ["Tim Canterbury"],
            (100, "age"): [30],
            (101, "name"): ["Wernham Hogg"],
            (102, "name"): ["Gareth Keenan"],
            (102, "role"): ["sales", "team leader"],
            (200, "since"): [datetime.date(1970, 1, 1)],
            (203, "since"): [datetime.date(2020, 8, 2)],
        },
    )


def person_label_shape() -> Shape:
    """Every Employee must also carry the Person label."""
    return Shape("PersonShape", NODE, HasLabel("Person"), TargetLabel("Employee"))


def employee_colleague_shape(target: bool = True) -> Shape:
    """Every Employee has at least one colleague labeled Person (shape s1)."""
    return Shape(
        "s1",
        NODE,
        QualPath(1, PathLabel("colleagueOf"), HasLabel("Person")),
        TargetLabel("Employee") if target else Nothing(),
    )


def role_pair_shapes() -> ShapeSet:
    """Shape s2: Gareth's node needs two string roles and must satisfy s1.

    s1 rides along untargeted; s2 references it.
    """
    s2 = Shape(
        "s2",
        NODE,
        And(QualKey(2, "role", TypeIs(STRING)), ShapeRef("s1")),
        TargetKeyValue(StrValue("Gareth Keenan"), "name"),
    )
    return link_shapes([s2, employee_colleague_shape(target=False)])


def works_since_shape() -> Shape:
    """Edge shape s3: worksFor edges need a Person source and a recent date."""
    return Shape(
        "s3",
        EDGE,
        And(
            Src(HasLabel("Person")),
            QualKey(1, "since", Cmp(GEQ, DateValue(datetime.date(2020, 1, 1)))),
        ),
        TargetLabel("worksFor"),
    )
