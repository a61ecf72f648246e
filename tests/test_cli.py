"""Command line behavior: output contract and exit codes."""

import json

import pytest

from pgshapes.asp import export_asp
from pgshapes.cli import main
from pgshapes.errors import ShapeSyntaxError
from pgshapes.fixtures import office_graph, role_pair_shapes
from pgshapes.graph import build_graph
from pgshapes.jsonio import export_graph_json
from pgshapes.parser import MAX_NESTING, parse_shapes
from pgshapes.values import IntValue

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
