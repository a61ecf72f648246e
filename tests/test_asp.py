"""Fact-base exporter: exact fact forms, renaming rules, determinism."""

import datetime
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pgshapes
from pgshapes import asp
from pgshapes.asp import MAX_TERM_BYTES, export_asp
from pgshapes.errors import NameCollision, TooLarge
from pgshapes.graph import EDGE, NODE, build_graph
from pgshapes.jsonio import export_graph_json, import_graph_json
from pgshapes.shapes import (
    AtMostKey,
    Cmp,
    HasLabel,
    Nothing,
    Shape,
    TargetExact,
    Top,
    link_shapes,
)
from pgshapes.values import GEQ, StrValue, quote_string, value_sort_key

from office import (
    employee_colleague_shape,
    office_graph,
    role_pair_shapes,
    works_since_shape,
)
from randgen import gen_instance


def fact_lines(text: str) -> list[str]:
    return [
        line
        for line in text.splitlines()
        if line and not line.startswith("%")
    ]


def test_office_s1_facts():
    text = export_asp(
        office_graph(), link_shapes([employee_colleague_shape()])
    )
    assert fact_lines(text) == [
        "edge(100, 200, 101).",
        "edge(100, 201, 102).",
        "edge(102, 202, 100).",
        "edge(102, 203, 101).",
        "label(100, employee).",
        "label(100, person).",
        "label(101, company).",
        "label(102, employee).",
        "label(200, worksFor).",
        "label(201, colleagueOf).",
        "label(202, colleagueOf).",
        "label(203, worksFor).",
        "property(100, age, integer(30)).",
        'property(100, name, string("Tim Canterbury")).',
        'property(101, name, string("Wernham Hogg")).',
        'property(102, name, string("Gareth Keenan")).',
        'property(102, role, string("sales")).',
        'property(102, role, string("team leader")).',
        "property(200, since, date(1970,1,1)).",
        "property(203, since, date(2020,8,2)).",
        "constraint(greaterEq(label(colleagueOf),label(person),1)).",
        "constraint(label(person)).",
        "path(label(colleagueOf)).",
        "nodeshape(s1, greaterEq(label(colleagueOf),label(person),1), label(employee)).",
    ]


def test_comments_use_percent():
    text = export_asp(office_graph(), link_shapes([]))
    comment_lines = [l for l in text.splitlines() if l.startswith("%")]
    assert comment_lines
    assert not any("//" in l for l in text.splitlines())


def test_empty_inputs_empty_document():
    assert export_asp(build_graph([]), link_shapes([])) == ""


def test_a_node_no_other_fact_names_has_a_node_fact():
    # Without its node fact, the graph with n1 exported as the empty graph,
    # though `NODE s [id n1] { :P };` fails on the one and holds on the other.
    shapes = link_shapes([Shape("s", NODE, HasLabel("P"), TargetExact("n1"))])
    one, empty = build_graph(["n1"]), build_graph([])
    assert export_asp(one, shapes) != export_asp(empty, shapes)
    assert export_asp(one, link_shapes([])) == "% nodes\nnode(n1).\n"


def test_node_facts_only_for_nodes_nothing_else_names():
    g = build_graph(
        ["007", "7", "a b", "c", "d", "e", "f", "10"], ["x"],
        endpoints={"x": ("c", "d")},
        labelings={"e": ["L"]},
        properties={("f", "k"): [1]},
    )
    text = export_asp(g, link_shapes([]))
    assert text.startswith(
        '% nodes\nnode(007).\nnode(7).\nnode(10).\nnode("a b").\n\n% edges\n'
    )
    # Every node of office.json has a label: no group.
    assert "% nodes" not in export_asp(office_graph(), link_shapes([]))


def test_role_pair_shape_facts():
    text = export_asp(build_graph([]), role_pair_shapes())
    lines = fact_lines(text)
    assert "constraint(and(greaterEqKey(role,string,2),s1))." in lines
    assert "constraint(greaterEqKey(role,string,2))." in lines
    assert "constraint(s1)." in lines
    assert (
        'nodeshape(s2, and(greaterEqKey(role,string,2),s1), keyValue(string("Gareth Keenan"),name)).'
        in lines
    )
    assert "nodeshape(s1, greaterEq(label(colleagueOf),label(person),1), none)." in lines


def test_edge_shape_facts():
    text = export_asp(build_graph([]), link_shapes([works_since_shape()]))
    lines = fact_lines(text)
    assert (
        "edgeshape(s3, and(src(label(person)),greaterEqKey(since,geq(date(2020,1,1)),1)), label(worksFor))."
        in lines
    )
    assert "constraint(src(label(person)))." in lines
    assert "constraint(label(person))." in lines


def test_first_letter_lowercasing_only():
    g = build_graph(
        ["1"],
        labelings={"1": ["WorksFor"]},
    )
    text = export_asp(g, link_shapes([]))
    assert "label(1, worksFor)." in fact_lines(text)


def test_lowercase_merge_rejected():
    g = build_graph(["1", "2"], labelings={"1": ["Employee"], "2": ["employee"]})
    with pytest.raises(NameCollision):
        export_asp(g, link_shapes([]))


def test_shape_named_top_rejected():
    s = Shape("Top", NODE, Top(), Nothing())
    with pytest.raises(NameCollision):
        export_asp(build_graph([]), link_shapes([s]))


def test_odd_ids_quoted():
    g = build_graph(["A 1", "n2"], ["E;9"], endpoints={"E;9": ("A 1", "n2")})
    lines = fact_lines(export_asp(g, link_shapes([])))
    assert lines == ['edge("A 1", "E;9", n2).']


def test_digit_ids_sort_by_value_at_any_length():
    long_id = "9" * 5000  # longer than int() converts
    g = build_graph(
        [long_id, "10", "9", "009", "a"],
        labelings={x: ["Person"] for x in (long_id, "10", "9", "009", "a")},
    )
    lines = fact_lines(export_asp(g, link_shapes([])))
    assert lines == [
        f"label({x}, person)." for x in ("009", "9", "10", long_id, "a")
    ]


def test_ids_equal_as_numbers_interleave_by_the_next_argument():
    g = build_graph(
        ["7", "007"],
        labelings={"7": ["a"], "007": ["a", "b"]},
        properties={("007", "a"): [1], ("7", "b"): [1], ("007", "c"): [1], ("7", "c"): [1]},
    )
    lines = fact_lines(export_asp(g, link_shapes([])))
    assert lines == [
        "label(007, a).", "label(7, a).", "label(007, b).",
        "property(007, a, integer(1)).", "property(7, b, integer(1)).",
        "property(007, c, integer(1)).", "property(7, c, integer(1)).",
    ]


def reference_graph_facts(g) -> dict[str, str]:
    """The label and property groups as sorted (sort key, fact) pairs over
    every fact of the group: the order the export must keep."""
    elements = (*g.nodes, *g.edges)
    labels = asp._rename_map({l for x in elements for l in g.labels_of(x)}, "labels")
    keys = asp._rename_map({k for x in elements for k in g.property_keys(x)}, "keys")
    arg, tok = asp._arg_key, asp._id_token
    label_facts = sorted(
        ((arg(x), labels[l]), f"label({tok(x)}, {labels[l]}).\n")
        for x in elements
        for l in g.labels_of(x)
    )
    property_facts = sorted(
        (
            (arg(x), keys[k], value_sort_key(v)),
            f"property({tok(x)}, {keys[k]}, {asp._value_term(v)}).\n",
        )
        for x in elements
        for k in g.property_keys(x)
        for v in g.property_values(x, k)
    )
    return {"labels": "".join(f for _, f in label_facts),
            "properties": "".join(f for _, f in property_facts)}


def graph_fact_groups(g) -> dict[str, str]:
    groups = {header.strip("\n% "): "".join(pieces)
              for header, *pieces in asp._fact_groups(g, link_shapes([]))}
    return {name: groups.get(name, "") for name in ("labels", "properties")}


# Ids equal as numbers, and names that lowercasing reorders: "Zeta" sorts
# before "alpha" and "zeta" after it, and quoted tokens come first.
TIED_IDS = ("7", "007", "0007", "10", "010", "0", "00", "a", "Zed", "x y")
REORDERED_NAMES = ("Zeta", "alpha", "Mid", "b", "_u", "x y")
MIXED_VALUES = (-1, 7, 10, 100, "7", "a", "B", datetime.date(2020, 8, 2),
                datetime.date(1999, 12, 31))


def tie_graph(rng: random.Random):
    ids = rng.sample(TIED_IDS, rng.randint(1, len(TIED_IDS)))
    nodes = ids[:rng.randint(1, len(ids))]
    edges = ids[len(nodes):]
    return build_graph(
        nodes, edges,
        endpoints={e: (rng.choice(nodes), rng.choice(nodes)) for e in edges},
        labelings={x: rng.sample(REORDERED_NAMES, rng.randint(0, 3)) for x in ids},
        properties={
            (x, key): [rng.choice(MIXED_VALUES) for _ in range(rng.randint(1, 4))]
            for x in ids
            for key in rng.sample(REORDERED_NAMES, rng.randint(0, 3))
        },
    )


def test_graph_facts_match_the_sorted_reference():
    rng = random.Random(2525)
    interleaved = 0
    for _ in range(300):
        g = tie_graph(rng)
        # Imported graphs share one frozenset per label list, int and date.
        for h in (g, import_graph_json(export_graph_json(g))):
            expected = reference_graph_facts(h)
            assert graph_fact_groups(h) == expected
        ids = [line[len("property("):].split(",")[0]
               for line in expected["properties"].splitlines()]
        runs = [x for i, x in enumerate(ids) if i == 0 or ids[i - 1] != x]
        interleaved += len(runs) > len(set(runs))
    # Some id's facts come in more than one run: a walk that wrote each
    # element's facts together would fail here.
    assert interleaved > 50


def test_ids_and_labels_with_a_trailing_newline_quoted():
    g = build_graph(["7\n", "n\n"], labelings={"7\n": ["a\n"], "n\n": ["b"]})
    lines = fact_lines(export_asp(g, link_shapes([])))
    assert lines == ['label("7\\n", "a\\n").', 'label("n\\n", b).']


def test_quote_string_fast_path_matches_character_loop():
    # A trailing newline sends the same text through the character loop.
    rng = random.Random(2028)
    alphabet = 'ab"\\\n\t\r\x00é\U0001f600'
    for _ in range(500):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        assert quote_string(s + "\n") == quote_string(s)[:-1] + '\\n"'
    assert quote_string('say "hi"\\') == '"say \\"hi\\"\\\\"'


def test_sugar_accepted():
    s = Shape(
        "s", NODE, AtMostKey(0, "age", Cmp(GEQ, StrValue("x"))), Nothing()
    )
    lines = fact_lines(export_asp(build_graph([]), link_shapes([s])))
    assert 'constraint(neg(greaterEqKey(age,geq(string("x")),1))).' in lines
    assert 'constraint(greaterEqKey(age,geq(string("x")),1)).' in lines
    assert 'nodeshape(s, neg(greaterEqKey(age,geq(string("x")),1)), none).' in lines


def test_string_values_escaped():
    g = build_graph(["1"], properties={("1", "k"): ['say "hi"\\']})
    lines = fact_lines(export_asp(g, link_shapes([])))
    assert lines == ['property(1, k, string("say \\"hi\\"\\\\")).']


def top_args(term: str) -> list[str]:
    """Split f(a,b(c,d),e) into [a, b(c,d), e] by tracking parens."""
    inner = term[term.index("(") + 1 : -1]
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    parts.append(inner[start:])
    return parts


def test_deterministic_and_closed():
    rng = random.Random(7103)
    path_heads = ("inverse(", "seq(", "alt(", "star(", "plus(", "opt(")
    for _ in range(40):
        g, shapes = gen_instance(rng, sugar=True, compound_targets=True)
        text = export_asp(g, shapes)
        assert text == export_asp(g, shapes)
        lines = fact_lines(text)
        constraints = {
            l[len("constraint(") : -len(").")]
            for l in lines
            if l.startswith("constraint(")
        }
        paths = {
            l[len("path(") : -len(").")] for l in lines if l.startswith("path(")
        }
        for l in lines:
            if not l.startswith(("nodeshape(", "edgeshape(")):
                continue
            body = l[l.index("(") + 1 : -len(").")]
            assert body.split(", ")[1] in constraints
        for term in paths:
            if term.startswith(path_heads):
                for sub in top_args(term):
                    assert sub in paths


def test_date_terms_unpadded():
    g = build_graph(["1"], properties={("1", "d"): [datetime.date(2020, 8, 2)]})
    lines = fact_lines(export_asp(g, link_shapes([])))
    assert lines == ["property(1, d, date(2020,8,2))."]


def test_target_exact_rendering():
    s = Shape("s", NODE, Top(), TargetExact("100"))
    g = build_graph(["100"])
    lines = fact_lines(export_asp(g, link_shapes([s])))
    assert "nodeshape(s, top, exact(100))." in lines


@pytest.mark.parametrize("eager", [0, 40])
def test_terms_past_the_eager_bytes_are_sized_then_rendered_alike(eager, monkeypatch):
    # Past the eager bytes the export only sizes the terms, and renders them
    # all once they fit under the ceiling: the same text, and the same size
    # as the rendered terms' lengths, which a ceiling of -1 reports.
    rng = random.Random(7)
    instances = [gen_instance(rng, sugar=True) for _ in range(40)]

    def outcomes():
        texts = [export_asp(g, shapes) for g, shapes in instances]
        messages = []
        with monkeypatch.context() as patch:
            patch.setattr(asp, "MAX_TERM_BYTES", -1)
            for g, shapes in instances:
                with pytest.raises(TooLarge) as info:
                    export_asp(g, shapes)
                messages.append(str(info.value))
        return texts, messages

    rendered = outcomes()
    monkeypatch.setattr(asp, "_EAGER_BYTES", eager)
    assert outcomes() == rendered
    for (g, shapes), text, message in zip(instances, *rendered):
        # A ceiling the terms just meet: every term is rendered in the end.
        monkeypatch.setattr(asp, "MAX_TERM_BYTES", int(message.split()[5]))
        assert export_asp(g, shapes) == text


# Runs `pgshapes` argv[2:] under a 1 GiB address-space cap that the child
# sets on itself, and prints the exit code and the seconds main() took.
CAPPED_CLI = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from pgshapes.cli import main
started = time.monotonic()
code = main(sys.argv[2:])
print(code, time.monotonic() - started)
"""


@pytest.mark.parametrize("k", [22, 30])
def test_nested_exact_counts_stop_at_the_export_ceiling(k, tmp_path):
    # `= 1 :knows . c` spells c twice, so k levels spell about 2^k bytes of
    # terms: 22 levels once ran out of memory under the cap.  The export
    # sizes its terms first and exits 2 before it renders any.
    graph, progs = tmp_path / "g.json", tmp_path / "s.progs"
    graph.write_bytes(export_graph_json(build_graph(
        ["a", "b"], ["e"], endpoints={"e": ("a", "b")},
        labelings={"a": ["Person"], "e": ["knows"]},
    )))
    progs.write_text(
        "NODE s [:Person] { " + "= 1 :knows . ( " * k + ":Person" + " )" * k + " };\n"
    )
    src = str(Path(pgshapes.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, src, "export-asp", str(graph), str(progs)],
        capture_output=True, text=True, timeout=60,
    )
    code, seconds = run.stdout.split()
    assert code == "2" and float(seconds) < 1.0, run.stderr
    size = int(run.stderr.split(" bytes")[0].rsplit(" ", 1)[1])
    assert size > MAX_TERM_BYTES
    assert run.stderr == (
        f"error: the constraint terms would take {size} bytes, over the ceiling "
        f"of {MAX_TERM_BYTES} bytes\n"
    )
