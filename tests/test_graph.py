import datetime
import json
import random

import pytest

from pgshapes import graph
from pgshapes.asp import export_asp
from pgshapes.errors import DanglingEdge, IdClash, KindMismatch, UnknownElement
from pgshapes.graph import EDGE, INCOMING, NODE, OUTGOING, Label, build_graph
from pgshapes.jsonio import export_graph_json, import_graph_json
from pgshapes.shapes import link_shapes
from pgshapes.solver import find_faithful_assignment
from pgshapes.values import DateValue, IntValue, StrValue

from office import office_graph, person_label_shape, works_since_shape
from randgen import gen_graph


def test_office_structure():
    g = office_graph()
    assert g.nodes == ("100", "101", "102")
    assert g.edges == ("200", "201", "202", "203")
    assert g.endpoints("200") == ("100", "101")
    assert g.endpoints("203") == ("102", "101")
    assert g.labels_of("100") == {"Person", "Employee"}
    assert g.labels_of("201") == {"colleagueOf"}
    assert g.property_values("100", "age") == {IntValue(30)}
    assert g.property_values("102", "role") == {StrValue("sales"), StrValue("team leader")}
    assert g.property_values("200", "since") == {DateValue(datetime.date(1970, 1, 1))}
    assert g.property_values("101", "age") == frozenset()
    assert g.property_keys("100") == ("age", "name")
    assert g.kind_of("100") == NODE
    assert g.kind_of("200") == EDGE
    assert "100" in g and "200" in g and "999" not in g


def test_int_ids_normalize_to_text():
    g = build_graph([1, 2], [3], endpoints={3: (1, 2)})
    assert g.nodes == ("1", "2")
    assert g.endpoints("3") == ("1", "2")
    with pytest.raises(ValueError, match="empty element id"):
        build_graph([""])
    with pytest.raises(TypeError, match="bool is not an element id"):
        build_graph([True])
    with pytest.raises(TypeError, match="not an element id: 1.5"):
        build_graph([1.5])


def test_duplicate_ids_rejected():
    with pytest.raises(IdClash):
        build_graph(["a", "a"])
    with pytest.raises(IdClash):
        build_graph(["a"], ["e", "e"], endpoints={"e": ("a", "a")})


def test_node_edge_id_overlap_rejected():
    with pytest.raises(IdClash):
        build_graph(["x"], ["x"], endpoints={"x": ("x", "x")})


def test_edges_need_endpoints_on_nodes():
    with pytest.raises(DanglingEdge):
        build_graph(["a"], ["e"])  # no endpoints at all
    with pytest.raises(DanglingEdge):
        build_graph(["a"], ["e"], endpoints={"e": ("a", "zzz")})
    with pytest.raises(DanglingEdge):
        build_graph(["a"], [], endpoints={"ghost": ("a", "a")})


def test_label_namespaces_are_disjoint():
    with pytest.raises(KindMismatch):
        build_graph(["a"], labelings={"a": [Label("worksFor", EDGE)]})
    with pytest.raises(KindMismatch):
        build_graph(
            ["a"], ["e"], endpoints={"e": ("a", "a")},
            labelings={"e": [Label("Person", NODE)]},
        )
    # The same name may exist in both namespaces without conflict.
    g = build_graph(
        ["a"], ["e"], endpoints={"e": ("a", "a")},
        labelings={"a": [Label("thing", NODE)], "e": [Label("thing", EDGE)]},
    )
    assert g.labels_of("a") == {"thing"} == g.labels_of("e")
    with pytest.raises(ValueError, match="bad label kind: 'vertex'"):
        Label("thing", "vertex")
    with pytest.raises(TypeError, match="not a label: 7"):
        build_graph(["a"], labelings={"a": [7]})


def test_unknown_element_rejected():
    with pytest.raises(UnknownElement):
        build_graph(["a"], labelings={"b": ["L"]})
    with pytest.raises(UnknownElement):
        build_graph(["a"], properties={("b", "k"): [1]})
    g = build_graph(["a"])
    with pytest.raises(UnknownElement):
        g.labels_of("b")
    with pytest.raises(UnknownElement):
        g.property_values("b", "k")
    with pytest.raises(UnknownElement):
        g.kind_of("b")
    with pytest.raises(UnknownElement):
        g.property_keys("b")
    with pytest.raises(ValueError):  # before any table is read
        g.adjacent_edges("a", "sideways")
    with pytest.raises(ValueError):
        g.adjacent_edges("b", "sideways")
    with pytest.raises(UnknownElement):
        g.adjacent_edges("b", OUTGOING)
    assert g.adjacent_edges("a", OUTGOING) == () == g.adjacent_edges("a", INCOMING)


def test_value_sets_are_nonempty_and_coerced():
    with pytest.raises(ValueError):
        build_graph(["a"], properties={("a", "k"): []})
    g = build_graph(["a"], properties={("a", "k"): [1, 1, "x"]})
    assert g.property_values("a", "k") == {IntValue(1), StrValue("x")}
    with pytest.raises(TypeError):
        build_graph(["a"], properties={("a", "k"): [True]})
    with pytest.raises(TypeError, match="not a property key: 3"):
        build_graph(["a"], properties={("a", 3): [1]})


def test_self_loop_appears_in_both_directions():
    g = build_graph(["a"], ["e"], endpoints={"e": ("a", "a")})
    assert g.adjacent_edges("a", OUTGOING) == (("e", "a"),)
    assert g.adjacent_edges("a", INCOMING) == (("e", "a"),)
    for d in (OUTGOING, INCOMING):
        with pytest.raises(UnknownElement):  # an edge id is no node
            g.adjacent_edges("e", d)
        with pytest.raises(UnknownElement):
            g.adjacent_edges("b", d)
    with pytest.raises(ValueError):  # also once the tables are built
        g.adjacent_edges("a", "sideways")


def test_multi_edges_kept_apart():
    g = build_graph(
        ["a", "b"], ["e1", "e2"],
        endpoints={"e1": ("a", "b"), "e2": ("a", "b")},
    )
    assert g.adjacent_edges("a", OUTGOING) == (("e1", "b"), ("e2", "b"))
    assert g.adjacent_edges("b", INCOMING) == (("e1", "a"), ("e2", "a"))
    assert g.adjacent_edges("a", INCOMING) == () == g.adjacent_edges("b", OUTGOING)
    with pytest.raises(UnknownElement):
        g.adjacent_edges("e1", INCOMING)


def test_adjacency_indexes_cover_every_edge_once():
    rng = random.Random(4242)
    for _ in range(50):
        g = gen_graph(rng)
        outgoing = [
            (e, n) for n in g.nodes for (e, _m) in g.adjacent_edges(n, OUTGOING)
        ]
        incoming = [
            (e, n) for n in g.nodes for (e, _m) in g.adjacent_edges(n, INCOMING)
        ]
        assert sorted(e for e, _ in outgoing) == sorted(g.edges)
        assert sorted(e for e, _ in incoming) == sorted(g.edges)
        for e, n in outgoing:
            assert g.endpoints(e)[0] == n
        for e, n in incoming:
            assert g.endpoints(e)[1] == n


def test_equality_is_structural():
    def make():
        return build_graph(
            ["a", "b"], ["e"], endpoints={"e": ("a", "b")},
            labelings={"a": ["L"]}, properties={("a", "k"): [1]},
        )

    assert make() == make()
    assert make() != build_graph(["a", "b"])


def test_property_keys_index_matches_a_full_scan():
    # Keys given in any order, to build_graph or in a document, come back
    # sorted, and they are exactly the keys with values.
    rng = random.Random(1107)
    pool = ("z", "k2", "a", "k1", "K", "10", "9", "\u00e9")
    for _ in range(100):
        g = gen_graph(rng, max_nodes=8, max_edges=12)
        xs = g.nodes + g.edges
        rows = [((x, k), [rng.randint(0, 3)])
                for x in xs for k in rng.sample(pool, rng.randint(0, 4))]
        rng.shuffle(rows)
        built = build_graph(g.nodes, g.edges, {e: g.endpoints(e) for e in g.edges},
                            properties=dict(rows))
        doc = json.loads(export_graph_json(built))
        for obj in doc["nodes"] + doc["relationships"]:
            obj["properties"] = dict(reversed(obj["properties"].items()))
        imported = import_graph_json(json.dumps(doc))
        for h in (g, built, imported):
            for x in xs:
                assert h.property_keys(x) == tuple(
                    k for k in sorted(pool) if h.property_values(x, k))


def test_label_adjacency_matches_filtered_adjacent_edges():
    rng = random.Random(3301)
    for _ in range(100):
        g = gen_graph(rng, max_nodes=8, max_edges=12)
        for direction in (OUTGOING, INCOMING):
            for name in ("knows", "likes", "sees", "nope"):
                table = g.label_adjacency(name, direction)
                for n in g.nodes:
                    assert table.get(n, ()) == tuple(
                        pair for pair in g.adjacent_edges(n, direction)
                        if name in g.labels_of(pair[0])
                    )
                assert set(table) <= set(g.nodes)
    with pytest.raises(ValueError):
        g.label_adjacency("knows", "sideways")


def test_import_and_export_build_no_label_index():
    g = import_graph_json(export_graph_json(office_graph()))
    export_graph_json(g)
    assert g._by_label is None and not g._label_adj
    shapes = link_shapes([person_label_shape(), works_since_shape()])
    export_asp(g, shapes)
    assert g._by_label is None and not g._label_adj
    # Shapes that count no edges and step along no label build no adjacency.
    assert not find_faithful_assignment(g, shapes).conforms
    assert not g._label_adj


def _rows(g):
    """build_graph arguments that rebuild g."""
    return dict(
        nodes=g.nodes,
        edges=g.edges,
        endpoints={e: g.endpoints(e) for e in g.edges},
        labelings={x: g.labels_of(x) for x in g.nodes + g.edges if g.labels_of(x)},
        properties={
            (x, k): g.property_values(x, k)
            for x in g.nodes + g.edges for k in g.property_keys(x)
        },
    )


def _extension(rng, g, count):
    nodes = [f"x{i}" for i in range(rng.randint(0, 2))]
    ends = list(g.nodes) + nodes
    endpoints = {f"y{i}": (rng.choice(ends), rng.choice(ends)) for i in range(count)}
    labelings = {
        e: rng.sample(("knows", "likes", "fresh"), rng.randint(0, 2)) for e in endpoints
    }
    return nodes, endpoints, labelings


def _rebuilt(g, nodes, endpoints, labelings):
    """One build_graph call over g's rows and the new ones."""
    rows = _rows(g)
    rows["nodes"] = (*rows["nodes"], *nodes)
    rows["edges"] = (*rows["edges"], *endpoints)
    rows["endpoints"].update(endpoints)
    rows["labelings"].update(labelings)
    return build_graph(**rows)


def test_building_on_a_base_equals_a_full_build():
    rng = random.Random(5150)
    graphs = [office_graph()] + [gen_graph(rng, max_nodes=8, max_edges=12) for _ in range(60)]
    for g in graphs:
        g.label_adjacency("knows", OUTGOING)  # a built base index must not leak
        for n in g.nodes:  # nor a built base adjacency
            g.adjacent_edges(n, OUTGOING), g.adjacent_edges(n, INCOMING)
        nodes, endpoints, labelings = _extension(rng, g, rng.randint(0, 6))
        grown = build_graph(nodes, endpoints, endpoints, labelings, base=g)
        expected = _rebuilt(g, nodes, endpoints, labelings)
        assert grown == expected
        assert dict(grown.by_label) == dict(expected.by_label)
        for n in expected.nodes:
            for d in (OUTGOING, INCOMING):
                assert grown.adjacent_edges(n, d) == expected.adjacent_edges(n, d)
                for name in ("knows", "likes", "fresh"):
                    assert grown.label_adjacency(name, d) == expected.label_adjacency(name, d)
        for x in expected.nodes + expected.edges:
            assert grown.labels_of(x) == expected.labels_of(x)
            assert grown.property_keys(x) == expected.property_keys(x)
            for key in ("k1", "k2", "age", "since"):
                assert grown.property_values(x, key) == expected.property_values(x, key)
        assert g == _rebuilt(g, (), {}, {})  # the base is left as it was
        # Built label indexes carry over for the labels no new row carries.
        carried = {name for names in labelings.values() for name in names}
        assert ("knows" in carried) != (grown._label_adj.get("knows") is g._label_adj["knows"])


def test_a_new_row_with_a_built_label_rebuilds_its_index():
    g = office_graph()
    assert g.label_adjacency("worksFor", OUTGOING) == {"100": (("200", "101"),),
                                                       "102": (("203", "101"),)}
    grown = build_graph(["n"], ["e", "f"], {"e": ("n", "101"), "f": ("n", "n")},
                        {"e": ["worksFor"], "n": ["Person"]}, base=g)
    assert grown.by_label["worksFor"] == {"200", "203", "e"}
    assert grown.by_label["Person"] == {"100", "n"}
    assert grown.by_label["colleagueOf"] is g.by_label["colleagueOf"]
    assert grown.label_adjacency("worksFor", OUTGOING)["n"] == (("e", "101"),)
    assert grown.label_adjacency("worksFor", INCOMING)["101"] == (
        ("200", "100"), ("203", "102"), ("e", "n"))
    assert "f" not in {e for pairs in grown.label_adjacency("worksFor", OUTGOING).values()
                       for e, _ in pairs}


@pytest.mark.parametrize("nodes, edges", [
    (["100"], []),                       # an existing node id
    (["n", "n"], []),                    # a repeated new node id
    (["200"], []),                       # an existing edge id
    ([], [("200", "100", "101")]),       # an existing edge id
    ([], [("e", "100", "101"), ("e", "101", "100")]),
    ([], [("100", "100", "101")]),       # an existing node id
    (["n"], [("n", "100", "101")]),      # a new node id
])
def test_building_on_a_base_rejects_clashing_ids_like_a_full_build(nodes, edges):
    g = office_graph()
    ids = [e for e, _, _ in edges]
    endpoints = {e: (src, dst) for e, src, dst in edges}
    with pytest.raises(IdClash) as full:
        build_graph(nodes=(*g.nodes, *nodes), edges=(*g.edges, *ids),
                    endpoints={**_rows(g)["endpoints"], **endpoints})
    with pytest.raises(IdClash) as grown:
        build_graph(nodes, ids, endpoints, base=g)
    assert str(grown.value) == str(full.value)


def test_building_on_a_base_rejects_dangling_endpoints_like_a_full_build():
    g = office_graph()
    for endpoints in ({"e": ("100", "zzz")}, {"e": ("200", "100")}):
        with pytest.raises(DanglingEdge) as full:
            _rebuilt(g, ["n"], endpoints, {})
        with pytest.raises(DanglingEdge) as grown:
            build_graph(["n"], endpoints, endpoints, base=g)
        assert str(grown.value) == str(full.value)
    with pytest.raises(UnknownElement):  # labels only go on the new elements
        build_graph(["n"], labelings={"100": ["Person"]}, base=g)


LAYER_LABELS = ("knows", "likes", "fresh", "Person")
LAYER_KEYS = ("k1", "k2")


def _layer_rows(rng, step, size, nodes_so_far):
    """size new rows for step: nodes x{step}_i, then edges y{step}_i between
    any nodes so far, with labels and properties from small pools."""
    nodes = [f"x{step}_{i}" for i in range(rng.randint(1, max(1, size // 3)))]
    ends = [*nodes_so_far, *nodes]
    endpoints = {f"y{step}_{i}": (rng.choice(ends), rng.choice(ends))
                 for i in range(size - len(nodes))}
    labelings = {x: rng.sample(LAYER_LABELS, rng.randint(0, 2)) for x in (*nodes, *endpoints)}
    properties = {(x, key): [rng.choice((1, 2, "a", "b"))]
                  for x in (*nodes, *endpoints) for key in LAYER_KEYS if rng.random() < 0.3}
    return dict(nodes=nodes, edges=list(endpoints), endpoints=endpoints,
                labelings=labelings, properties=properties)


def _raises(read):
    try:
        read()
    except UnknownElement as exc:
        return f"UnknownElement: {exc}"
    return "no error"


def _reads(g):
    """Every public read of g, its rows, both exports and a one-label
    path's answers, as one comparable value."""
    xs = g.nodes + g.edges
    unknown = ("nope", "x9_0", "y9_0")
    return {
        "ids": (g.nodes, g.edges, repr(g)),
        "member": [(x, g.has_node(x), g.has_edge(x), x in g) for x in (*xs, *unknown)],
        "kinds": [g.kind_of(x) for x in xs],
        "ends": [g.endpoints(e) for e in g.edges],
        "labels": [g.labels_of(x) for x in xs],
        "keys": [g.property_keys(x) for x in xs],
        "values": [g.property_values(x, key) for x in xs for key in (*LAYER_KEYS, "k3")],
        "rows": [(x, names, tuple(props)) for x, names, props in g._rows(xs)],
        "by_label": dict(g.by_label),
        "adjacent": [g.adjacent_edges(n, d) for n in g.nodes for d in (OUTGOING, INCOMING)],
        "label_adjacency": [dict(g.label_adjacency(name, d))
                            for name in LAYER_LABELS for d in (OUTGOING, INCOMING)],
        "targets": [dict(g._targets(name)) for name in LAYER_LABELS],
        "errors": [_raises(lambda: read(x)) for x in unknown for read in (
            g.kind_of, g.endpoints, g.labels_of, g.property_keys,
            lambda x: g.property_values(x, "k1"),
            lambda x: g.adjacent_edges(x, OUTGOING))],
        "json": export_graph_json(g),
        "asp": export_asp(g, link_shapes([person_label_shape()])),
    }


def _kept(base_layers, new_size):
    """Which layer a build on a two-layer base keeps shared, by where its
    rows came from: "older" holds the first build's rows, "newer" the
    other base layer, "new" the rows of this build."""
    sizes = [layer.size() for layer in base_layers] + [new_size]
    largest = sizes.index(max(sizes))
    if largest == 2:
        return "new"
    return "older" if "x0_0" in base_layers[largest].node_set else "newer"


# Row counts per step, and the layer each build on a two-layer base keeps:
# the first step builds a one-layer graph, each later one builds on the
# graph before.  Together they make each of the three layers the largest.
LAYER_CHAINS = [
    ([30, 4, 3], ["older"]),
    ([4, 30, 3], ["newer"]),       # elimination, then the reduction
    ([4, 3, 30], ["new"]),
    ([20, 3, 12, 40], ["older", "new"]),
    ([3, 25, 4, 6], ["newer", "newer"]),
    ([6, 2], []),
]


@pytest.mark.parametrize("sizes, kept", LAYER_CHAINS)
def test_a_chain_of_layered_builds_reads_like_one_full_build(sizes, kept):
    rng = random.Random(f"layers:{sizes}")
    for _ in range(6):
        steps, graphs, snapshots, shared = [], [], {}, []
        nodes_so_far = []
        for step, size in enumerate(sizes):
            rows = _layer_rows(rng, step, size, nodes_so_far)
            nodes_so_far += rows["nodes"]
            steps.append(rows)
            if not graphs:
                g = build_graph(**rows)
            else:
                base = graphs[-1]
                base_layers = graph._layers(base)
                g = build_graph(**rows, base=base)
                reused = [old for old in base_layers for layer in g._layers
                          if layer.endpoints is old.endpoints]
                if len(base_layers) == 1:
                    # A one-layer base's tables are shared as they are.
                    assert len(reused) == 1 and reused[0].endpoints is base._endpoints
                else:
                    # The largest of the three layers is shared, not copied.
                    which = _kept(base_layers, size)
                    shared.append(which)
                    assert len(reused) == (which != "new")
                    if reused:
                        assert reused[0] is max(base_layers, key=graph._Layer.size)
            # Some graphs are read (indexes built, tuples merged) before the
            # next build, so later builds meet both built and unbuilt bases.
            if rng.random() < 0.5:
                snapshots[step] = _reads(g)
            graphs.append(g)
        assert shared == kept

        for step, g in enumerate(graphs):
            rows = steps[:step + 1]
            full = build_graph(
                [x for r in rows for x in r["nodes"]], [e for r in rows for e in r["edges"]],
                {e: ends for r in rows for e, ends in r["endpoints"].items()},
                {x: names for r in rows for x, names in r["labelings"].items()},
                {xk: vs for r in rows for xk, vs in r["properties"].items()})
            assert type(full) is graph.PropertyGraph and (type(g) is graph.PropertyGraph) == (step == 0)
            assert g == full and full == g
            expected = _reads(full)
            assert _reads(g) == expected
            # What a graph read before the later builds, it reads after them.
            if step in snapshots:
                assert snapshots[step] == expected
