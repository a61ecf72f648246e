"""Reader/writer for the JSON graph document format."""

import datetime
import json
import random
import warnings

import pytest

from pgshapes import graph
from pgshapes.errors import DanglingEdge, IdClash, PgShapesError, SchemaError
from pgshapes.graph import INCOMING, OUTGOING, build_graph
from pgshapes.jsonio import export_graph_json, import_graph_json
from pgshapes.values import DateValue, IntValue, StrValue, value_sort_key

from office import office_graph
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


# Each malformed document, with the exception class and message import
# raises for it.
MALFORMED = {
    "[]": (SchemaError, "document must be a JSON object"),
    "not json": (SchemaError, "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    '{"nodes": []}': (SchemaError, "document missing 'relationships'"),
    '{"nodes": {}, "relationships": []}': (SchemaError, "'nodes' must be a list"),
    '{"nodes": ["1"], "relationships": []}': (SchemaError, "nodes[0]: must be an object"),
    '{"nodes": [{"labels": []}], "relationships": []}': (SchemaError, "nodes[0]: missing 'id'"),
    '{"nodes": [{"id": true}], "relationships": []}':
        (SchemaError, "nodes[0]: 'id' must be a string or integer id"),
    '{"nodes": [{"id": ""}], "relationships": []}': (SchemaError, "nodes[0]: empty id"),
    '{"nodes": [{"id": "1", "labels": "A"}], "relationships": []}':
        (SchemaError, "nodes[0]: 'labels' must be a list"),
    '{"nodes": [{"id": "1", "labels": [""]}], "relationships": []}':
        (SchemaError, "nodes[0]: label must be a non-empty string"),
    '{"nodes": [{"id": "1", "labels": [["A"]]}], "relationships": []}':
        (SchemaError, "nodes[0]: label must be a non-empty string"),
    '{"nodes": [{"id": "1", "labels": [{}]}], "relationships": []}':
        (SchemaError, "nodes[0]: label must be a non-empty string"),
    '{"nodes": [{"id": "1", "properties": []}], "relationships": []}':
        (SchemaError, "nodes[0]: 'properties' must be an object"),
    '{"nodes": [{"id": "1", "properties": {"k": {}}}], "relationships": []}':
        (SchemaError, "nodes[0]: values of 'k' must be a list"),
    '{"nodes": [{"id": "1", "properties": {"k": []}}], "relationships": []}':
        (SchemaError, "nodes[0]: empty value list for 'k'"),
    '{"nodes": [{"id": "1", "properties": {"": [{"type": "int", "value": 1}]}}], "relationships": []}':
        (SchemaError, "nodes[0]: property key must be a non-empty string"),
    '{"nodes": [{"id": "1", "properties": {"k": ["x"]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': value entry must be an object"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int"}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': value entry needs 'type' and 'value'"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "float", "value": 1}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': unknown value type tag 'float'"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": true}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': int value must be a JSON integer"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": "1"}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': int value must be a JSON integer"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "string", "value": 1}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': string value must be JSON text"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": "soon"}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': not a date: 'soon'"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": 20200102}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': date value must be ISO text"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": "2020-02-30"}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': day is out of range for month"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": "2020-13-01"}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': month must be in 1..12"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": "2020-01-02\\n"}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': not a date: '2020-01-02\\n'"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": "٢٠٢٠-01-02"}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': not a date: '٢٠٢٠-01-02'"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": "02/01/٢٠٢٠"}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': not a date: '02/01/٢٠٢٠'"),
    # A multi-valued list whose later entry is faulty.
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": 1}, '
    '{"type": "int", "value": true}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': int value must be a JSON integer"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "string", "value": "a"}, '
    '{"type": "date", "value": "2020-01-02"}, "x"]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': value entry must be an object"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "date", "value": "2020-01-02"}, '
    '{"type": "date", "value": "2020-02-30"}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': day is out of range for month"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": 1}, '
    '{"type": "string", "value": "a"}, {"type": "int"}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': value entry needs 'type' and 'value'"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": 1}, '
    '{"type": "float", "value": 1}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': unknown value type tag 'float'"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": 1}, '
    '{"type": "int", "value": 2}, {"type": "date", "value": "soon"}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': not a date: 'soon'"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "string", "value": "a"}, '
    '{"type": "string", "value": 2}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': string value must be JSON text"),
    '{"nodes": [{"id": "1"}], "relationships": [{"id": "2", "end": "1"}]}':
        (SchemaError, "relationships[0]: missing 'start'"),
}

# Which fault import reports when a document holds several: schema faults
# first, in document order; then duplicate node ids, duplicate edge ids and
# ids used as both; then the first dangling relationship in document order.
PRECEDENCE = {
    '{"nodes": [{"id": "1"}, {"id": "1"}, {"id": ""}], "relationships": []}':
        (SchemaError, "nodes[2]: empty id"),
    '{"nodes": [{"id": "1"}], "relationships": [{"id": "2", "start": "1", "end": "9"}, '
    '{"id": "1", "start": "1", "end": "1", "properties": {"k": [{"type": "int", "value": 1.5}]}}]}':
        (SchemaError, "relationships[1], key 'k': int value must be a JSON integer"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": 1, "x": 2}, '
    '{"value": 1}]}}], "relationships": []}':
        (SchemaError, "nodes[0], key 'k': value entry needs 'type' and 'value'"),
    # A value seen once is looked up only for a payload of its own type.
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": 1}]}}, '
    '{"id": "2", "properties": {"k": [{"type": "int", "value": true}]}}], "relationships": []}':
        (SchemaError, "nodes[1], key 'k': int value must be a JSON integer"),
    '{"nodes": [{"id": "1", "properties": {"k": [{"type": "int", "value": 1}]}}, '
    '{"id": "2", "properties": {"k": [{"type": "int", "value": 1}]}}, '
    '{"id": "3", "properties": {"k": [{"type": "int", "value": 1.0}]}}], "relationships": []}':
        (SchemaError, "nodes[2], key 'k': int value must be a JSON integer"),
    '{"nodes": [{"id": "1", "labels": ["A"], "label": "B", "properties": []}], "relationships": []}':
        (SchemaError, "nodes[0]: give either 'labels' or 'label', not both"),
    '{"nodes": [{"id": "1"}], "relationships": [{"id": "2", "start": 1, "end": 1.0}]}':
        (SchemaError, "relationships[0]: 'end' must be a string or integer id"),
    '{"nodes": [{"id": 1}, {"id": "1"}], "relationships": []}': (IdClash, "duplicate node id"),
    '{"nodes": [{"id": "1"}, {"id": "1"}], "relationships": '
    '[{"id": "e", "start": "1", "end": "x"}, {"id": "e", "start": "1", "end": "1"}]}':
        (IdClash, "duplicate node id"),
    '{"nodes": [{"id": "1"}, {"id": 2}], "relationships": '
    '[{"id": "e", "start": "1", "end": "x"}, {"id": "e", "start": "1", "end": "1"}]}':
        (IdClash, "duplicate edge id"),
    '{"nodes": [{"id": "1"}, {"id": 2}], "relationships": [{"id": "e", "start": "1", "end": "x"}, '
    '{"id": 2, "start": "1", "end": "1"}, {"id": "1", "start": "1", "end": "1"}]}':
        (IdClash, "ids used as both node and edge: ['1', '2']"),
    '{"nodes": [{"id": "1"}], "relationships": '
    '[{"id": "b", "start": "1", "end": "x"}, {"id": "a", "start": "y", "end": "1"}]}':
        (DanglingEdge, "edge 'b' endpoint not a node: (1, x)"),
}


def assert_import_raises(doc, error, message):
    with pytest.raises(PgShapesError) as raised:
        import_graph_json(doc)
    assert (type(raised.value), str(raised.value)) == (error, message)


@pytest.mark.parametrize("doc", MALFORMED)
def test_malformed_documents(doc):
    assert_import_raises(doc, *MALFORMED[doc])


@pytest.mark.filterwarnings("ignore:.*unknown fields")
@pytest.mark.parametrize("doc", PRECEDENCE, ids=range(len(PRECEDENCE)))
def test_import_reports_the_first_fault_in_a_fixed_order(doc):
    assert_import_raises(doc, *PRECEDENCE[doc])


def _rows(doc):
    """The build_graph arguments a document stands for, read without jsonio."""
    value = {"int": int, "string": str, "date": datetime.date.fromisoformat}
    elements = doc["nodes"] + doc["relationships"]
    return dict(
        nodes=[n["id"] for n in doc["nodes"]],
        edges=[r["id"] for r in doc["relationships"]],
        endpoints={r["id"]: (r["start"], r["end"]) for r in doc["relationships"]},
        labelings={x["id"]: [x["label"]] if "label" in x else x.get("labels", [])
                   for x in elements},
        properties={
            (x["id"], key): [value[v["type"]](v["value"]) for v in entries]
            for x in elements for key, entries in x.get("properties", {}).items()
        },
    )


def _perturbed(rng, doc):
    """doc with integer ids now and then, elements, labels and keys shuffled,
    singular labels, repeated value entries and unknown fields, and now and
    then a reused id or an endpoint that names no node."""
    def ident(x):
        return int(x) if rng.random() < 0.3 else x

    for name in ("nodes", "relationships"):
        rng.shuffle(doc[name])
        for obj in doc[name]:
            for field in ("id", "start", "end"):
                if field in obj:
                    obj[field] = ident(obj[field])
            rng.shuffle(obj["labels"])
            if name == "relationships" and len(obj["labels"]) == 1 and rng.random() < 0.5:
                obj["label"] = obj.pop("labels")[0]
            props = list(obj["properties"].items())
            rng.shuffle(props)
            obj["properties"] = {k: vs + vs[:rng.randint(0, 1)] for k, vs in props}
            if rng.random() < 0.1:
                obj["note"] = 1
    nodes, rels = doc["nodes"], doc["relationships"]
    fault = rng.randrange(8)
    if fault == 0 and len(nodes) > 1:
        nodes[-1]["id"] = nodes[0]["id"]
    elif fault == 1 and rels:
        rels[-1]["id"] = rng.choice(nodes)["id"]
    elif fault == 2 and len(rels) > 1:
        rels[0]["id"] = rels[-1]["id"]
    elif fault == 3 and rels:
        rng.choice(rels)["end"] = "nowhere"
    return doc


@pytest.mark.filterwarnings("ignore:.*unknown fields")
def test_import_builds_what_build_graph_builds_from_the_same_rows():
    rng = random.Random(1212)
    for _ in range(150):
        doc = _perturbed(rng, json.loads(export_graph_json(gen_graph(rng))))
        text = json.dumps(doc)
        try:
            expected = build_graph(**_rows(doc))
        except PgShapesError as exc:
            assert_import_raises(text, type(exc), str(exc))
            continue
        g = import_graph_json(text)
        assert g == expected
        for x in g.nodes + g.edges:
            assert g.property_keys(x) == expected.property_keys(x)
        for n in g.nodes:
            for d in (OUTGOING, INCOMING):
                assert g.adjacent_edges(n, d) == expected.adjacent_edges(n, d)


def test_import_normalizes_no_row_again(monkeypatch):
    # The decoder hands text ids and typed value sets straight to the
    # assembler: nothing passes through build_graph's normalization.
    expected = office_graph()
    text = export_graph_json(expected)
    calls = []
    for name in ("_ident", "coerce_value", "build_graph"):
        real = getattr(graph, name)
        monkeypatch.setattr(graph, name, lambda *a, real=real, name=name, **k:
                            calls.append(name) or real(*a, **k))
    assert import_graph_json(text) == expected
    assert calls == []


def test_unknown_field_warnings_name_the_caller():
    doc = {
        "nodes": [{"id": "1", "color": "red",
                   "properties": {"k": [{"type": "int", "value": 1, "unit": "m"}]}}],
        "relationships": [{"id": "2", "start": "1", "end": "1", "weight": 2}],
        "version": 3,
    }

    def load():
        return import_graph_json(json.dumps(doc))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load()
    assert [str(w.message) for w in caught] == [
        "document: ignoring unknown fields ['version']",
        "nodes[0]: ignoring unknown fields ['color']",
        "nodes[0], key 'k': ignoring unknown fields ['unit']",
        "relationships[0]: ignoring unknown fields ['weight']",
    ]
    for w in caught:
        assert (w.filename, w.lineno) == (__file__, load.__code__.co_firstlineno + 1)


def test_equal_values_and_label_lists_are_shared():
    def node(x, tag, payload):
        return {"id": x, "labels": ["A", "B"], "properties": {"k": [{"type": tag, "value": payload}]}}

    doc = {"nodes": [node("1", "int", 7), node("2", "int", 7),
                     node("3", "date", "2020-08-02"), node("4", "date", "2020-08-02"),
                     node("5", "string", "2020-08-02"),
                     node("6", "date", "02/08/2020"), node("7", "date", "02/08/2020")],
           "relationships": []}
    g = import_graph_json(json.dumps(doc))
    values = {x: g.property_values(x, "k") for x in g.nodes}
    assert values["1"] is values["2"]
    assert values["1"] == {IntValue(7)}
    assert values["3"] is values["4"]
    assert values["3"] == values["6"] == values["7"] == {DateValue(datetime.date(2020, 8, 2))}
    assert values["5"] == {StrValue("2020-08-02")}
    assert g.labels_of("1") is g.labels_of("7")


def test_multi_valued_keys_decode_inline_and_share_the_memos(monkeypatch):
    def entry(tag, payload):
        return {"type": tag, "value": payload}

    doc = {"nodes": [
        {"id": "1", "properties": {"k": [entry("int", 7)], "d": [entry("date", "2020-08-02")]}},
        {"id": "2", "properties": {"k": [entry("int", 7), entry("date", "2020-08-02"),
                                         entry("string", "7"), entry("int", 7)]}},
    ], "relationships": []}
    monkeypatch.setattr("pgshapes.jsonio._decode_values", None)  # never called
    g = import_graph_json(json.dumps(doc))
    day = DateValue(datetime.date(2020, 8, 2))
    assert g.property_values("2", "k") == {IntValue(7), day, StrValue("7")}
    shared = {v: v for v in g.property_values("2", "k")}
    (seven,), (date,) = g.property_values("1", "k"), g.property_values("1", "d")
    assert shared[IntValue(7)] is seven and shared[day] is date


def test_multi_valued_warnings_name_the_caller():
    doc = {"nodes": [{"id": "1", "properties": {"k": [
        {"type": "int", "value": 1}, {"type": "int", "value": 2, "unit": "m"}]}}],
        "relationships": []}

    def load():
        return import_graph_json(json.dumps(doc))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = load()
    assert g.property_values("1", "k") == {IntValue(1), IntValue(2)}
    assert [str(w.message) for w in caught] == [
        "nodes[0], key 'k': ignoring unknown fields ['unit']"]
    assert (caught[0].filename, caught[0].lineno) == (
        __file__, load.__code__.co_firstlineno + 1)


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


def shared_document(rng: random.Random) -> str:
    """A document whose elements draw label lists, keys, ints and dates
    from small pools, so import shares them and export renders them once."""
    label_lists = [[odd_text(rng, 1) for _ in range(rng.randint(0, 3))] for _ in range(3)]
    keys = [odd_text(rng, 1) for _ in range(3)]
    pool = [*({"type": "int", "value": rng.randint(-5, 5)} for _ in range(3)),
            *({"type": "date", "value": f"2020-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}"}
              for _ in range(3)),
            {"type": "string", "value": odd_text(rng)}]

    def element(x):
        return {"id": x, "labels": rng.choice(label_lists), "properties": {
            key: rng.sample(pool, rng.randint(1, 3)) for key in rng.sample(keys, rng.randint(0, 3))}}

    nodes = [element(f"n{i}") for i in range(rng.randint(1, 30))]
    rels = [{**element(f"e{i}"), "start": rng.choice(nodes)["id"], "end": rng.choice(nodes)["id"]}
            for i in range(rng.randint(0, 30))]
    return json.dumps({"nodes": nodes, "relationships": rels})


def test_writer_matches_generic_encoder():
    rng = random.Random(8080)
    graphs = [build_graph([]), office_graph()] + [odd_graph(rng) for _ in range(300)]
    assert any(not g.nodes for g in graphs[2:])
    for g in graphs:
        out = export_graph_json(g)
        assert out == reference_export(g)
        assert import_graph_json(out) == g
        # Imported, the graph shares its label sets, ints and dates.
        assert export_graph_json(import_graph_json(out)) == out
    shared = 0
    for _ in range(100):
        g = import_graph_json(shared_document(rng))
        assert export_graph_json(g) == reference_export(g)
        elements = g.nodes + g.edges
        shared += len({id(g.labels_of(x)) for x in elements}) < len(elements)
    assert shared > 80


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
