"""Reader/writer for the JSON graph document format."""

import datetime
import json
import random

import pytest

from pgshapes.errors import DanglingEdge, IdClash, SchemaError
from pgshapes.fixtures import office_graph
from pgshapes.graph import build_graph
from pgshapes.jsonio import export_graph_json, import_graph_json
from pgshapes.values import DateValue, value_sort_key

from randgen import gen_graph


def office_document() -> dict:
    return {
        "nodes": [
            {
                "id": "100",
                "labels": ["Person", "Employee"],
                "properties": {
                    "name": [{"type": "string", "value": "Tim Canterbury"}],
                    "age": [{"type": "int", "value": 30}],
                },
            },
            {
                "id": "101",
                "labels": ["Company"],
                "properties": {
                    "name": [{"type": "string", "value": "Wernham Hogg"}]
                },
            },
            {
                "id": "102",
                "labels": ["Employee"],
                "properties": {
                    "name": [{"type": "string", "value": "Gareth Keenan"}],
                    "role": [
                        {"type": "string", "value": "sales"},
                        {"type": "string", "value": "team leader"},
                    ],
                },
            },
        ],
        "relationships": [
            {
                "id": "200",
                "labels": ["worksFor"],
                "start": "100",
                "end": "101",
                "properties": {
                    "since": [{"type": "date", "value": "1970-01-01"}]
                },
            },
            {"id": "201", "labels": ["colleagueOf"], "start": "100", "end": "102"},
            {"id": "202", "labels": ["colleagueOf"], "start": "102", "end": "100"},
            {
                "id": "203",
                "labels": ["worksFor"],
                "start": "102",
                "end": "101",
                "properties": {
                    "since": [{"type": "date", "value": "2020-08-02"}]
                },
            },
        ],
    }


def test_import_office_document():
    g = import_graph_json(json.dumps(office_document()))
    assert g == office_graph()


def test_office_round_trip():
    g = office_graph()
    assert import_graph_json(export_graph_json(g)) == g


def test_empty_document():
    g = import_graph_json(b'{"nodes":[],"relationships":[]}')
    assert g.nodes == ()
    assert g.edges == ()


def test_export_empty_graph():
    out = export_graph_json(build_graph([]))
    assert out == b'{\n  "nodes": [],\n  "relationships": []\n}\n'


def test_export_is_deterministic():
    g = office_graph()
    assert export_graph_json(g) == export_graph_json(g)


def test_integer_ids_normalize():
    doc = {"nodes": [{"id": 100}], "relationships": []}
    g = import_graph_json(json.dumps(doc))
    assert g.nodes == ("100",)


def test_singular_label_field():
    doc = {
        "nodes": [{"id": "1"}, {"id": "2"}],
        "relationships": [
            {"id": "3", "label": "knows", "start": "1", "end": "2"}
        ],
    }
    g = import_graph_json(json.dumps(doc))
    assert g.labels_of("3") == frozenset({"knows"})


def test_both_label_fields_rejected():
    doc = {
        "nodes": [{"id": "1"}],
        "relationships": [
            {"id": "2", "label": "a", "labels": ["b"], "start": "1", "end": "1"}
        ],
    }
    with pytest.raises(SchemaError):
        import_graph_json(json.dumps(doc))


def test_dangling_relationship():
    doc = {
        "nodes": [{"id": "1"}],
        "relationships": [{"id": "2", "start": "1", "end": "99"}],
    }
    with pytest.raises(DanglingEdge):
        import_graph_json(json.dumps(doc))


def test_duplicate_ids():
    doc = {"nodes": [{"id": "1"}, {"id": 1}], "relationships": []}
    with pytest.raises(IdClash):
        import_graph_json(json.dumps(doc))


def test_unknown_fields_warn_and_load():
    doc = {
        "nodes": [{"id": "1", "color": "red"}],
        "relationships": [],
        "version": 3,
    }
    with pytest.warns(UserWarning):
        g = import_graph_json(json.dumps(doc))
    assert g.nodes == ("1",)


@pytest.mark.parametrize(
    "doc",
    [
        "[]",
        "not json",
        '{"nodes": []}',
        '{"nodes": {}, "relationships": []}',
        '{"nodes": ["1"], "relationships": []}',
        '{"nodes": [{"labels": []}], "relationships": []}',
        '{"nodes": [{"id": true}], "relationships": []}',
        '{"nodes": [{"id": ""}], "relationships": []}',
        '{"nodes": [{"id": "1", "labels": "A"}], "relationships": []}',
        '{"nodes": [{"id": "1", "labels": [""]}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": []}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": {}}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": []}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"": [{"type": "int", "value": 1}]}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": ["x"]}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int"}]}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": [{"type": "float", "value": 1}]}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": true}]}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": "1"}]}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": [{"type": "string", "value": 1}]}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": "soon"}]}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": "2020-01-02\\n"}]}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": "\u0662\u0660\u0662\u0660-01-02"}]}}], "relationships": []}',
        '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": "02/01/\u0662\u0660\u0662\u0660"}]}}], "relationships": []}',
        '{"nodes": [{"id": "1"}], "relationships": [{"id": "2", "end": "1"}]}',
    ],
)
def test_malformed_documents(doc):
    with pytest.raises(SchemaError):
        import_graph_json(doc)


def test_not_utf8():
    with pytest.raises(SchemaError):
        import_graph_json(b"\xff\xfe{}")


def test_date_and_multivalue_round_trip():
    g = build_graph(
        ["1"],
        properties={
            ("1", "when"): [datetime.date(1999, 12, 31)],
            ("1", "k"): [1, "1", datetime.date(2001, 1, 1)],
        },
    )
    assert import_graph_json(export_graph_json(g)) == g


def test_random_round_trip():
    rng = random.Random(6101)
    for _ in range(60):
        g = gen_graph(rng)
        again = import_graph_json(export_graph_json(g))
        assert again == g
        assert export_graph_json(again) == export_graph_json(g)


# Characters whose escaping the writer must get exactly right: quotes,
# backslashes, every control character, DEL, a JSON-legal line separator,
# non-ASCII and astral text.
ODD_CHARS = '"\\' + "".join(map(chr, range(0x20))) + "\x7f\u2028é中\U0001f600ab"


def odd_text(rng: random.Random, min_size: int = 0) -> str:
    return "".join(rng.choice(ODD_CHARS) for _ in range(rng.randint(min_size, 5)))


def odd_graph(rng: random.Random):
    """A graph with odd text everywhere; integer ids now and then."""
    def ident(prefix, offset, i):
        return offset + i if rng.random() < 0.3 else f"{prefix}{i}{odd_text(rng)}"

    node_ids = [ident("n", 0, i) for i in range(rng.randint(0, 4))]
    edge_ids = [ident("e", 1000, i) for i in range(rng.randint(0, 5) if node_ids else 0)]
    endpoints = {e: (rng.choice(node_ids), rng.choice(node_ids)) for e in edge_ids}
    labelings, properties = {}, {}
    for x in node_ids + edge_ids:
        labelings[x] = [odd_text(rng, 1) for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(0, 2)):
            properties[(x, odd_text(rng, 1))] = [
                rng.choice((
                    rng.randint(-5, 5),
                    -rng.randint(10**299, 10**300 - 1),
                    rng.randint(10**299, 10**300 - 1),
                    odd_text(rng),
                    datetime.date(2020, 1 + rng.randrange(12), 1 + rng.randrange(28)),
                ))
                for _ in range(rng.randint(1, 3))
            ]
    return build_graph(node_ids, edge_ids, endpoints, labelings, properties)


def reference_export(g) -> bytes:
    """The canonical bytes, through the generic encoder."""
    def element(x):
        return {
            "id": x,
            "labels": sorted(g.labels_of(x)),
            "properties": {
                key: [
                    {
                        "type": v.type_name,
                        "value": v.value.isoformat() if isinstance(v, DateValue) else v.value,
                    }
                    for v in sorted(g.property_values(x, key), key=value_sort_key)
                ]
                for key in g.property_keys(x)
            },
        }

    rels = [
        {**element(e), "start": g.endpoints(e)[0], "end": g.endpoints(e)[1]}
        for e in g.edges
    ]
    doc = {"nodes": [element(n) for n in g.nodes], "relationships": rels}
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode()


def test_writer_matches_generic_encoder():
    rng = random.Random(8080)
    graphs = [build_graph([]), office_graph()] + [odd_graph(rng) for _ in range(300)]
    assert any(not g.nodes for g in graphs[2:])
    for g in graphs:
        out = export_graph_json(g)
        assert out == reference_export(g)
        assert import_graph_json(out) == g


@pytest.mark.parametrize(
    "doc",
    [
        r'{"nodes": [{"id": "\ud800"}], "relationships": []}',
        r'{"nodes": [{"id": "1", "labels": ["a\uDC00"]}], "relationships": []}',
        r'{"nodes": [{"id": "1", "properties": {"k\udbff": [{"type": "int", "value": 1}]}}], '
        r'"relationships": []}',
        # A high surrogate before a valid pair, and one that ends the string.
        r'{"nodes": [{"id": "1", "properties": {"k": [{"type": "string", '
        r'"value": "\ud83d\ud83d\ude00"}]}}], "relationships": []}',
        r'{"nodes": [{"id": "\\\ud800"}], "relationships": []}',
        r'{"nodes": [{"id": "1"}], "relationships": [], "extra": "\uD800"}',
    ],
    ids=["id", "label", "key", "before-pair", "after-backslash", "unknown-field"],
)
def test_lone_surrogate_escapes_rejected(doc):
    for data in (doc, doc.encode()):
        with pytest.raises(SchemaError, match="lone surrogate"):
            import_graph_json(data)


def test_lone_surrogate_in_text_rejected():
    with pytest.raises(SchemaError, match="not UTF-8"):
        import_graph_json('{"nodes": [{"id": "\ud800"}], "relationships": []}')


def test_surrogate_pairs_and_escaped_backslashes_load():
    doc = r'{"nodes": [{"id": "\ud83d\ude00"}, {"id": "\\ud800"}], "relationships": []}'
    for data in (doc, doc.encode()):
        assert import_graph_json(data).nodes == ("\\ud800", "\U0001f600")


@pytest.mark.parametrize(
    "doc",
    [
        '{"nodes": [{"id": %s}], "relationships": []}' % ("9" * 5000),
        '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": -%s}]}}], '
        '"relationships": []}' % ("9" * 5000),
    ],
    ids=["id", "value"],
)
def test_long_integers_rejected(doc):
    with pytest.raises(SchemaError, match="integer over"):
        import_graph_json(doc.encode())


def test_deep_nesting_rejected():
    with pytest.raises(SchemaError, match="nested too deep"):
        import_graph_json(b"[" * 100_000)
