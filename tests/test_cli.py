"""Command line behavior: output contract and exit codes."""

import json
import sys
import tracemalloc

import pytest

from pgshapes import cli
from pgshapes.asp import export_asp
from pgshapes.cli import main
from pgshapes.errors import ShapeSyntaxError
from pgshapes.graph import build_graph
from pgshapes.jsonio import export_graph_json
from pgshapes.parser import MAX_NESTING, parse_shapes
from pgshapes.values import IntValue

from office import office_graph, role_pair_shapes

S1_LINE = "NODE s1 [:Employee] { >= 1 :colleagueOf . :Person };"
S2_TEXT = (
    'NODE s2 [key name = "Gareth Keenan"] { >= 2 key role . string & s1 };\n'
    "NODE s1 [] { >= 1 :colleagueOf . :Person };\n"
)
PERSON_TEXT = "NODE PersonShape [:Employee] { :Person };\n"


@pytest.fixture
def office_json(tmp_path):
    path = tmp_path / "office.json"
    path.write_bytes(export_graph_json(office_graph()))
    return str(path)


@pytest.fixture
def s2_progs(tmp_path):
    path = tmp_path / "s2.progs"
    path.write_text(S2_TEXT)
    return str(path)


@pytest.fixture
def person_progs(tmp_path):
    path = tmp_path / "person-shape.progs"
    path.write_text(PERSON_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_conforming(capsys, office_json, s2_progs):
    code, out, _ = run(capsys, "validate", office_json, s2_progs)
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "SATISFIABLE"
    assert "s2(102) = yes" in lines
    assert len(lines) == 7  # verdict + six atoms


def test_validate_failing_names_node(capsys, office_json, person_progs):
    code, out, _ = run(capsys, "validate", office_json, person_progs)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "UNSATISFIABLE"
    assert "violated target: PersonShape(102)" in lines


def test_validate_explain(capsys, office_json, person_progs):
    code, out, _ = run(capsys, "validate", "--explain", office_json, person_progs)
    assert code == 1
    assert "violated target: PersonShape(102) = no" in out.splitlines()


def test_validate_oracle_agrees(capsys, office_json, s2_progs, person_progs):
    for shapes, expected in ((s2_progs, 0), (person_progs, 1)):
        plain = run(capsys, "validate", office_json, shapes)
        oracle = run(capsys, "validate", "--oracle", office_json, shapes)
        assert plain[0] == oracle[0] == expected
        assert plain[1].splitlines()[0] == oracle[1].splitlines()[0]


def test_validate_all(capsys, office_json, s2_progs):
    code, out, _ = run(capsys, "validate", "--all", office_json, s2_progs)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SATISFIABLE"
    assert lines[1] == "assignment 1:"
    single = run(capsys, "validate", office_json, s2_progs)[1].splitlines()
    assert lines[2:8] == single[1:]


def test_validate_json(capsys, office_json, s2_progs):
    code, out, _ = run(capsys, "validate", "--json", office_json, s2_progs)
    assert code == 0
    report = json.loads(out)
    assert report["conforms"] is True
    assert {
        "shape": "s2",
        "element": "102",
        "kind": "node",
        "value": "yes",
    } in report["witness"]
    assert report["violated_targets"] == []
    assert report["stats"]["atoms"] == 6


def test_validate_json_failure(capsys, office_json, person_progs):
    code, out, _ = run(capsys, "validate", "--json", office_json, person_progs)
    assert code == 1
    report = json.loads(out)
    assert report["conforms"] is False
    assert report["witness"] is None
    assert {
        "shape": "PersonShape",
        "element": "102",
        "kind": "node",
        "fixed_point": "no",
    } in report["violated_targets"]


def test_validate_normalize(capsys, office_json, s2_progs, person_progs):
    assert run(capsys, "validate", "--normalize", office_json, s2_progs)[0] == 0
    assert (
        run(capsys, "validate", "--normalize", office_json, person_progs)[0] == 1
    )


def test_normalize_makes_up_no_id_a_shape_names(capsys, tmp_path):
    # Q targets __pe0, the first id of path elimination's pool of fresh edge
    # ids.  No element has it, so Q selects nothing and the graph conforms,
    # with or without --normalize: the fresh edges must take other ids.
    g = build_graph(["a", "b"], ["e1"], {"e1": ("a", "b")}, {"a": ["X"], "e1": ["knows"]})
    graph_path, shapes_path = tmp_path / "g.json", tmp_path / "s.progs"
    graph_path.write_bytes(export_graph_json(g))
    shapes_path.write_text("NODE P [:X] { >= 1 :knows* . true };\nEDGE Q [id __pe0] { :zz };\n")
    argv = [str(graph_path), str(shapes_path)]
    assert run(capsys, "validate", *argv)[0] == 0
    code, out, _ = run(capsys, "validate", "--normalize", *argv)
    assert code == 0, out


@pytest.mark.parametrize("flags", [
    ["--normalize", "--all"],
    ["--all", "--normalize", "--json"],
])
def test_validate_refuses_all_with_normalize(capsys, office_json, s2_progs, flags):
    # The listing would range over the atoms of the fresh edges and shapes,
    # far more assignments than the input has.
    with pytest.raises(SystemExit) as info:
        main(["validate", *flags, office_json, s2_progs])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--all cannot be combined with --normalize" in err


def test_main_runs_again_in_the_same_process(capsys, office_json, s2_progs):
    # The argument parser is built once per process: each call still reads
    # only its own arguments, also after a usage error.
    code, out, _ = run(capsys, "validate", "--json", office_json, s2_progs)
    assert (code, json.loads(out)["conforms"]) == (0, True)
    code, plain, _ = run(capsys, "validate", office_json, s2_progs)
    assert (code, plain.splitlines()[0]) == (0, "SATISFIABLE")
    with pytest.raises(SystemExit) as info:
        main(["validate", "--all", "--normalize", office_json, s2_progs])
    assert info.value.code == 2
    capsys.readouterr()
    assert run(capsys, "validate", office_json, s2_progs)[:2] == (0, plain)
    code, out, _ = run(capsys, "validate", "--json", office_json, s2_progs)
    assert (code, json.loads(out)["conforms"]) == (0, True)
    assert cli._build_parser() is cli._build_parser()


def test_validate_budget_exhausted(capsys, tmp_path, office_json):
    progs = tmp_path / "loop.progs"
    progs.write_text("NODE loop [] { loop };\n")
    code, _, err = run(
        capsys, "validate", "--all", "--budget", "1", office_json, str(progs)
    )
    assert code == 3
    # The second branch is the one over the budget; `loop = loop` narrows
    # nothing and no assignment is completed.
    assert err.splitlines() == [
        "error: branch limit 1 exhausted",
        "progress: branches 2, propagations 0, leaf checks 0",
    ]


@pytest.mark.parametrize("nodes, flags", [
    ('{"id": "a"}, {"id": "b"}', ["--budget", "-1"]),
    ("", ["--oracle", "--max-atoms", "-1"]),
    ('{"id": "a"}', ["--budget", "ten"]),
    ('{"id": "b"}', ["--oracle", "--max-atoms", "1.5"]),
])
def test_validate_negative_limits_are_usage_errors(capsys, tmp_path, nodes, flags):
    graph, progs = tmp_path / "graph.json", tmp_path / "pair.progs"
    graph.write_text(f'{{"nodes": [{nodes}], "relationships": []}}')
    progs.write_text("NODE r [] { !u }; NODE u [] { !r };\n")
    with pytest.raises(SystemExit) as info:
        main(["validate", *flags, str(graph), str(progs)])
    assert info.value.code == 2
    assert f"not a non-negative integer: {flags[-1]!r}" in capsys.readouterr().err


def test_validate_oracle_too_large(capsys, office_json, s2_progs):
    code, _, err = run(
        capsys, "validate", "--oracle", "--max-atoms", "1", office_json, s2_progs
    )
    assert code == 2
    assert "error:" in err


def test_validate_missing_file(capsys, office_json):
    code, _, err = run(capsys, "validate", office_json, "absent.progs")
    assert code == 2
    assert "error:" in err


def test_validate_bad_graph_document(capsys, tmp_path, s2_progs):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "validate", str(bad), s2_progs)
    assert code == 2
    assert "error:" in err


def test_validate_rejects_a_date_with_a_trailing_newline(capsys, tmp_path, s2_progs):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": [{"id": "1", "properties": {
        "k": [{"type": "date", "value": "2020-01-02\n"}]}}], "relationships": []}))
    code, out, err = run(capsys, "validate", str(bad), s2_progs)
    assert (code, out) == (2, "")
    assert "error:" in err


def test_validate_rejects_a_date_with_non_ascii_digits(capsys, tmp_path, s2_progs):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": [{"id": "1", "properties": {
        "k": [{"type": "date", "value": "\u0662\u0660\u0662\u0660-01-02"}]}}],
        "relationships": []}))
    code, out, err = run(capsys, "validate", str(bad), s2_progs)
    assert (code, out) == (2, "")
    assert "error:" in err


def test_check_counts(capsys, tmp_path):
    progs = tmp_path / "shapes.progs"
    progs.write_text(S1_LINE + "\n")
    assert run(capsys, "check", str(progs)) == (0, "1 shape, 0 cycles\n", "")
    progs.write_text(S2_TEXT)
    assert run(capsys, "check", str(progs))[1] == "2 shapes, 0 cycles\n"
    progs.write_text("NODE loop [] { loop };\n")
    assert run(capsys, "check", str(progs))[1] == "1 shape, 1 cycle\n"
    progs.write_text("")
    assert run(capsys, "check", str(progs)) == (0, "0 shapes, 0 cycles\n", "")


def test_an_arm_name_a_shape_already_has_is_not_a_clash(capsys, tmp_path, office_json):
    # The arms of p's target would be p__t0 and p__t1; the first is taken.
    progs = tmp_path / "arms.progs"
    progs.write_text("NODE p [:Person | :Org] { true };\nNODE p__t0 [] { true };\n")
    assert run(capsys, "check", str(progs)) == (0, "2 shapes, 0 cycles\n", "")
    code, out, err = run(capsys, "validate", office_json, str(progs))
    assert (code, out.splitlines()[0], err) == (0, "SATISFIABLE", "")


def test_check_unknown_reference(capsys, tmp_path):
    progs = tmp_path / "shapes.progs"
    progs.write_text("NODE a [] { missing };\n")
    code, _, err = run(capsys, "check", str(progs))
    assert code == 2
    assert "missing" in err


def test_check_syntax_error(capsys, tmp_path):
    progs = tmp_path / "shapes.progs"
    progs.write_text("NODE a [ { true };\n")
    code, _, err = run(capsys, "check", str(progs))
    assert code == 2
    assert "error:" in err


def test_check_syntax_error_names_line_and_column(capsys, tmp_path):
    progs = tmp_path / "shapes.progs"
    progs.write_text("NODE a [] { true };\nNODE b [] { (a & true };\n")
    assert run(capsys, "check", str(progs)) == (
        2, "", "error: line 2, column 23: expected ')', found '}'\n"
    )


def test_check_long_reference_chain(capsys, tmp_path):
    # Each shape references the next; the cycle count walks the whole chain.
    chain = [f"NODE s{i} [] {{ s{i + 1} }};\n" for i in range(1199)]
    open_text = "".join(chain) + "NODE s1199 [] { true };\n"
    closed_text = "".join(chain) + "NODE s1199 [] { s0 };\n"
    assert parse_shapes(open_text).cycle_count == 0
    assert parse_shapes(closed_text).cycle_count == 1
    progs = tmp_path / "chain.progs"
    progs.write_text(open_text)
    assert run(capsys, "check", str(progs)) == (0, "1200 shapes, 0 cycles\n", "")
    progs.write_text(closed_text)
    assert run(capsys, "check", str(progs)) == (0, "1200 shapes, 1 cycle\n", "")


def test_validate_long_sequence_path(capsys, tmp_path):
    # A 2-cycle of :knows: 10,000 steps reach what 2 steps reach.
    graph = tmp_path / "pair.json"
    graph.write_bytes(export_graph_json(build_graph(
        ["a", "b"], ["e", "f"], endpoints={"e": ("a", "b"), "f": ("b", "a")},
        labelings={"a": ["Person"], "e": ["knows"], "f": ["knows"]},
    )))
    outputs = []
    for steps in (2, 10_000):
        path = " / ".join([":knows"] * steps)
        progs = tmp_path / f"steps{steps}.progs"
        progs.write_text(
            f"NODE back [:Person] {{ >= 1 {path} . :Person }};\n"
            f"NODE gone [:Person] {{ ! >= 1 {path} / :knows . :Person }};\n"
        )
        code, out, err = run(capsys, "validate", str(graph), str(progs))
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_export_asp_writes_file(capsys, tmp_path, office_json):
    progs = tmp_path / "s1.progs"
    progs.write_text(S1_LINE + "\n")
    out = tmp_path / "office.asp"
    code, _, _ = run(capsys, "export-asp", office_json, str(progs), str(out))
    assert code == 0
    expected = export_asp(office_graph(), parse_shapes(S1_LINE))
    assert out.read_text() == expected


def test_export_asp_stdout(capsys, tmp_path, office_json):
    progs = tmp_path / "s1.progs"
    progs.write_text(S1_LINE + "\n")
    code, out, _ = run(capsys, "export-asp", office_json, str(progs), "-")
    assert code == 0
    assert "nodeshape(s1," in out


def test_export_asp_unwritable(capsys, tmp_path, office_json):
    progs = tmp_path / "s1.progs"
    progs.write_text(S1_LINE + "\n")
    out = tmp_path / "nosuch" / "office.asp"
    code, _, err = run(capsys, "export-asp", office_json, str(progs), str(out))
    assert code == 2
    assert "error:" in err


class CountingSink:
    """A text stream that counts the characters it is given and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def writelines(self, pieces):
        for text in pieces:
            self.write(text)

    def flush(self):
        pass


def test_export_asp_holds_its_text_once(tmp_path, monkeypatch, office_json):
    # The terms of a | chain nest, so the text grows with the square of the
    # operands and dwarfs the parsed shapes: a peak near the bytes written
    # means the fact lines never copy the terms, nor the output the lines.
    progs = tmp_path / "chain.progs"
    progs.write_text("NODE s [] { " + " | ".join(f":L{i}" for i in range(300)) + " };\n")
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["export-asp", office_json, str(progs)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 1_000_000
    assert peak < 1.5 * sink.chars


def test_convert_graph(capsys, tmp_path):
    messy = tmp_path / "g.json"
    messy.write_text(
        '{"relationships": [], "nodes": [{"id": 7, "labels": ["B", "A"]}]}'
    )
    code, out, _ = run(capsys, "convert", str(messy))
    assert code == 0
    doc = json.loads(out)
    assert doc["nodes"] == [{"id": "7", "labels": ["A", "B"], "properties": {}}]


def test_convert_shapes(capsys, tmp_path):
    messy = tmp_path / "s.progs"
    messy.write_text("NODE   s1\n[:Employee]{>= 1 :colleagueOf . :Person}  ;")
    out_path = tmp_path / "canon.progs"
    code, _, _ = run(capsys, "convert", str(messy), "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == (
        "NODE s1 [:Employee] { >= 1 :colleagueOf . :Person };\n"
    )


def test_convert_kind_override(capsys, tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("NODE a [] { true };")
    code, out, _ = run(capsys, "convert", "--kind", "shapes", str(path))
    assert code == 0
    assert out == "NODE a [] { true };\n"


def test_convert_unknown_extension(capsys, tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("{}")
    code, _, err = run(capsys, "convert", str(path))
    assert code == 2
    assert "--kind" in err


def test_convert_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.progs"
    path.write_text("NODE ; ;")
    code, _, err = run(capsys, "convert", str(path))
    assert code == 2
    assert "error:" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["validate"])
    assert info.value.code == 2


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_deep_nesting_is_a_syntax_error(capsys, tmp_path, office_json):
    prefix = "NODE s [:Person] { "
    progs = tmp_path / "deep.progs"
    progs.write_text(prefix + "! " * 1000 + ":Person };\n")
    # The first `!` past the limit, two characters per level, 1-based.
    column = len(prefix) + 2 * MAX_NESTING + 1
    for argv in (
        ("check", str(progs)),
        ("validate", office_json, str(progs)),
        ("convert", str(progs)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: line 1, column {column}: "
            f"nesting deeper than {MAX_NESTING} levels\n"
        )


def test_nesting_limit_names_the_crossing_token():
    prefix = "NODE s [] { "
    text = prefix + "! " * 1000 + "true };"
    with pytest.raises(ShapeSyntaxError) as info:
        parse_shapes(text)
    # The first `!` past the limit, two characters per level.
    assert info.value.span.start == len(prefix) + 2 * MAX_NESTING
    assert text[info.value.span.start] == "!"
    for deep in (
        "(" * MAX_NESTING + "true" + ")" * MAX_NESTING,
        ">= 1 " + "^" * (MAX_NESTING - 1) + ":r . true",
        ">= 1 key k . " + "!" * (MAX_NESTING - 1) + "any",
    ):
        assert len(parse_shapes(prefix + deep + " };")) == 1
        with pytest.raises(ShapeSyntaxError):
            parse_shapes(prefix + "(" + deep + ") };")


DEEPEST = {  # each form nested as deep as the parser accepts: (open, close, levels)
    "at_least": (">= 1 :k . (", ")", 50),
    "not_and": ("! (:P & ", ")", 50),
    "or_count": ("(:Q | >= 1 :k . ", ")", 50),
    "exactly": ("= 1 :k . (", ")", 50),
    "at_most": ("<= 1 :k . (", ")", 50),
    "edge_src": (">= 1 ->[ src (", ") ]", 33),
}


@pytest.mark.parametrize("form", sorted(DEEPEST))
def test_validate_the_deepest_nesting_at_the_default_recursion_limit(capsys, tmp_path, form):
    # Grounding recurses once per nesting level; at the deepest level the
    # parser accepts, validate must still decide, not overflow the stack.
    opening, closing, levels = DEEPEST[form]
    text = f"NODE s [:P] {{ {opening * levels}s{closing * levels} }};\n"
    parse_shapes(text)
    with pytest.raises(ShapeSyntaxError):
        parse_shapes(f"NODE s [:P] {{ {opening * (levels + 1)}s{closing * (levels + 1)} }};\n")
    graph, progs = tmp_path / "cycle.json", tmp_path / "deep.progs"
    graph.write_bytes(export_graph_json(build_graph(
        ["a", "b"], ["e", "f"], endpoints={"e": ("a", "b"), "f": ("b", "a")},
        labelings={"a": ["P"], "b": ["Q"], "e": ["k"], "f": ["k"]},
    )))
    progs.write_text(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, _, err = run(capsys, "validate", str(graph), str(progs))
    finally:
        sys.setrecursionlimit(limit)
    assert code in (0, 1), err


@pytest.mark.parametrize(
    "exc", [RuntimeError("lost\nits way"), RecursionError("too deep")]
)
def test_internal_error_exits_four(capsys, monkeypatch, office_json, s2_progs, exc):
    def crash(*args, **kwargs):
        raise exc

    monkeypatch.setattr("pgshapes.cli.find_faithful_assignment", crash)
    code, out, err = run(capsys, "validate", office_json, s2_progs)
    assert (code, out) == (4, "")
    words = " ".join(str(exc).split())
    assert err == f"error: internal: {type(exc).__name__}: {words}\n"


def test_an_input_error_quoting_a_newline_is_one_line(capsys, tmp_path):
    # A backslash before a line break in a shape file, and an endpoint id
    # with a newline in a graph: the messages quote the newline.
    progs = tmp_path / "bad.progs"
    progs.write_text('NODE s [] { >= 1 key k . = "a\\\n" };\n')
    code, _, err = run(capsys, "check", str(progs))
    assert (code, err) == (2, "error: line 1, column 30: bad string escape \\\n")
    graph = tmp_path / "bad.json"
    graph.write_text(json.dumps({
        "nodes": [{"id": "a"}],
        "relationships": [{"id": "e", "start": "a", "end": "x\ny"}],
    }))
    code, _, err = run(capsys, "convert", str(graph))
    assert (code, err) == (2, "error: edge 'e' endpoint not a node: (a, x y)\n")


# --- long chains and shared subterms ----------------------------------------


def chain_progs(op, n):
    """A shape whose body chains n operands with op, plus the referenced
    r; the verdict on the knows pair does not depend on n."""
    if op in ("|", "&"):
        body = f" {op} ".join(["r"] * n)
    elif op in ("/", "||"):
        body = f">= 1 {f' {op} '.join([':knows'] * n)} . true"
    else:  # a parenthesized predicate conjunction
        body = f">= 1 key k . ({' & '.join(['int'] * n)})"
    return f"NODE s [id a] {{ {body} }};\nNODE r [] {{ >= 1 :knows . true }};\n"


@pytest.fixture
def knows_pair(tmp_path):
    """A 2-cycle of :knows edges; node a has the int 1 under k."""
    path = tmp_path / "pair.json"
    path.write_bytes(export_graph_json(build_graph(
        ["a", "b"], ["e", "f"], endpoints={"e": ("a", "b"), "f": ("b", "a")},
        labelings={"e": ["knows"], "f": ["knows"]},
        properties={("a", "k"): [IntValue(1)]},
    )))
    return str(path)


CHAIN_COMMANDS = {
    # command: (argv, operands in the long chain)
    "check": (("check", "PROGS"), 10_000),
    "validate": (("validate", "GRAPH", "PROGS"), 10_000),
    "convert": (("convert", "PROGS"), 10_000),
    "normalize": (("validate", "--normalize", "GRAPH", "PROGS"), 2_000),
    "export-asp": (("export-asp", "GRAPH", "PROGS", "OUT"), 2_000),
}


@pytest.mark.parametrize("command", CHAIN_COMMANDS)
@pytest.mark.parametrize("op", ["|", "&", "/", "||", "pred&"])
def test_long_chains_keep_their_verdict(capsys, tmp_path, knows_pair, op, command):
    template, n = CHAIN_COMMANDS[command]
    results = []
    for size in (2, n):
        progs = tmp_path / f"chain{size}.progs"
        progs.write_text(chain_progs(op, size))
        paths = {"GRAPH": knows_pair, "PROGS": str(progs), "OUT": str(tmp_path / "out.asp")}
        code, out, err = run(capsys, *[paths.get(arg, arg) for arg in template])
        assert code != 4, err
        if command == "convert":
            assert out == progs.read_text()  # the chain is canonical already
            out = ""
        elif command == "normalize":
            out = out.splitlines()[0]  # fresh names differ; the verdict must not
        results.append((code, out))
    assert results[0] == results[1]


MALFORMED_GRAPHS = {
    "lone-surrogate-id": r'{"nodes": [{"id": "\ud800", "labels": ["Person"]}], "relationships": []}',
    "lone-surrogate-value": r'{"nodes": [{"id": "1", "labels": ["Person"], "properties": '
    r'{"name": [{"type": "string", "value": "a\uDC00"}]}}], "relationships": []}',
    "long-integer-value": '{"nodes": [{"id": "1", "properties": '
    '{"age": [{"type": "int", "value": %s}]}}], "relationships": []}' % ("9" * 5000),
    "long-integer-id": '{"nodes": [{"id": %s}], "relationships": []}' % ("9" * 5000),
    "deep-nesting": "[" * 100_000,
}


@pytest.mark.parametrize("command", ["convert", "export-asp", "validate"])
@pytest.mark.parametrize("name", sorted(MALFORMED_GRAPHS))
def test_malformed_graph_is_an_input_error(capsys, tmp_path, command, name):
    graph = tmp_path / "graph.json"
    graph.write_text(MALFORMED_GRAPHS[name])
    progs = tmp_path / "person.progs"
    progs.write_text(PERSON_TEXT)
    argv = [command, str(graph)] + ([str(progs)] if command != "convert" else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize(
    "body", [">= %s :knows . true", ">= 1 key age . (= %s)"], ids=["count", "value"]
)
def test_long_integer_in_shapes_is_a_syntax_error(capsys, tmp_path, body):
    prefix = "NODE s [:Person] { "
    progs = tmp_path / "long.progs"
    progs.write_text(prefix + body % ("9" * 5000) + " };\n")
    column = len(prefix) + body.index("%s") + 1
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "check", str(progs)) == (
        2, "", f"error: line 1, column {column}: integer over {limit} digits\n"
    )


def test_shape_file_not_utf8_is_an_input_error(capsys, tmp_path):
    progs = tmp_path / "latin1.progs"
    progs.write_bytes(b"NODE s [:Person] { \xff };\n")
    code, out, err = run(capsys, "check", str(progs))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "can't decode" in err
