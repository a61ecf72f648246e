import datetime
import random

import pytest

from pgshapes import shapes as S
from pgshapes.errors import (
    KindMismatch,
    ShapeSyntaxError,
    UnknownShapeName,
    UnsupportedTarget,
)
from pgshapes.graph import EDGE, NODE
from pgshapes.parser import parse_shape_document, parse_shapes
from pgshapes.printer import (
    render_constraint,
    render_path,
    render_shapes,
    render_target,
)
from pgshapes.shapes import Shape, link_shapes
from pgshapes.sugar import desugar_constraint, desugar_targets
from pgshapes.values import DateValue, IntValue, StrValue

from randgen import gen_graph, gen_shapes

COLLEAGUE_LINE = "NODE s1 [:employee] { >= 1 :colleagueOf . :person };"


def parse_one(text):
    (shape,) = parse_shape_document(text)
    return shape


def constraint_of(text):
    return parse_one(f"NODE z [] {{ {text} }};").constraint


def test_colleague_example_ast():
    shape = parse_one(COLLEAGUE_LINE)
    assert shape.name == "s1"
    assert shape.kind == NODE
    assert shape.target == S.TargetLabel("employee")
    assert shape.constraint == S.QualPath(
        1, S.EdgeLabel("colleagueOf"), S.HasLabel("person")
    )


def test_trivial_shape():
    shape = parse_one("NODE s0 [] { true };")
    assert shape.target == S.Nothing()
    assert shape.constraint == S.Top()


def test_edge_shape_with_src_and_key_counting():
    shape = parse_one(
        'EDGE s3 [:worksFor] { src :person & >= 1 key since . (>= 2020-01-01) };'
    )
    assert shape.kind == EDGE
    assert shape.target == S.TargetLabel("worksFor")
    assert shape.constraint == S.And(
        S.Src(S.HasLabel("person")),
        S.QualKey(
            1, "since",
            S.Cmp("geq", DateValue(datetime.date(2020, 1, 1))),
        ),
    )


def test_operator_precedence():
    got = constraint_of("!:A & :B | :C")
    assert got == S.Or(S.And(S.Not(S.HasLabel("A")), S.HasLabel("B")),
                       S.HasLabel("C"))
    got = constraint_of(":A & (:B | :C)")
    assert got == S.And(S.HasLabel("A"), S.Or(S.HasLabel("B"), S.HasLabel("C")))
    got = constraint_of("!!:A")
    assert got == S.Not(S.Not(S.HasLabel("A")))


def test_counting_forms():
    assert constraint_of(">= 2 :r . :A") == S.QualPath(
        2, S.EdgeLabel("r"), S.HasLabel("A")
    )
    assert constraint_of("<= 0 :r . true") == S.AtMostPath(
        0, S.EdgeLabel("r"), S.Top()
    )
    assert constraint_of("= 1 :r . true") == S.ExactlyPath(
        1, S.EdgeLabel("r"), S.Top()
    )
    assert constraint_of(">= 1 <-[ src :A ]") == S.QualIncoming(
        1, S.Src(S.HasLabel("A"))
    )
    assert constraint_of("<= 2 ->[ true ]") == S.AtMostOutgoing(2, S.Top())
    assert constraint_of("= 3 <-[ true | dst :B ]") == S.ExactlyIncoming(
        3, S.Or(S.Top(), S.Dst(S.HasLabel("B")))
    )
    assert constraint_of(">= 1 key k . any") == S.QualKey(1, "k", S.AnyValue())
    assert constraint_of("<= 4 key k . int") == S.AtMostKey(4, "k", S.TypeIs("int"))
    assert constraint_of("= 2 key k . !string") == S.ExactlyKey(
        2, "k", S.PredNot(S.TypeIs("string"))
    )


def test_counting_body_binds_tightly():
    got = constraint_of(">= 1 :r . :A & :B")
    assert got == S.And(
        S.QualPath(1, S.EdgeLabel("r"), S.HasLabel("A")), S.HasLabel("B")
    )
    got = constraint_of(">= 1 :r . (:A & :B)")
    assert got == S.QualPath(
        1, S.EdgeLabel("r"), S.And(S.HasLabel("A"), S.HasLabel("B"))
    )
    got = constraint_of(">= 1 :r . >= 1 :q . :A")
    assert got == S.QualPath(
        1, S.EdgeLabel("r"), S.QualPath(1, S.EdgeLabel("q"), S.HasLabel("A"))
    )


def test_exact_and_reference_constraints():
    assert constraint_of("id 100") == S.Exact("100")
    assert constraint_of("id other") == S.Exact("other")
    assert constraint_of("other") == S.ShapeRef("other")


def test_path_precedence():
    def path_of(text):
        c = constraint_of(f">= 1 {text} . true")
        return c.path

    a, b, c = S.EdgeLabel("a"), S.EdgeLabel("b"), S.EdgeLabel("c")
    assert path_of(":a / :b || :c") == S.Alt(S.Seq(a, b), c)
    assert path_of(":a / (:b || :c)") == S.Seq(a, S.Alt(b, c))
    assert path_of("^:a*") == S.Inverse(S.Star(a))
    assert path_of("(^:a)*") == S.Star(S.Inverse(a))
    assert path_of("?:a+") == S.Opt(S.Plus(a))
    assert path_of(":a**") == S.Star(S.Star(a))
    assert path_of("^?:a") == S.Inverse(S.Opt(a))
    assert path_of(":a / :b / :c") == S.Seq(S.Seq(a, b), c)


def test_cmp_forms():
    assert constraint_of("cmp(subseteq, key a, key b)") == S.KeyCmp(
        "subseteq", "a", "b"
    )
    assert constraint_of("cmp(eq, :r, :q / :r)") == S.PathCmp(
        "eq", S.EdgeLabel("r"), S.Seq(S.EdgeLabel("q"), S.EdgeLabel("r"))
    )
    assert constraint_of("cmp(disjoint, :r key k, :q key j)") == S.PathKeyCmp(
        "disjoint", S.EdgeLabel("r"), "k", S.EdgeLabel("q"), "j"
    )
    with pytest.raises(ShapeSyntaxError):
        constraint_of("cmp(eq, key a, :r)")
    with pytest.raises(ShapeSyntaxError):
        constraint_of("cmp(almost, key a, key b)")


def test_values_and_predicates():
    got = constraint_of('>= 1 key k . = "say \\"hi\\"\\n"')
    assert got == S.QualKey(1, "k", S.Cmp("eq", StrValue('say "hi"\n')))
    assert constraint_of(">= 1 key k . != -7") == S.QualKey(
        1, "k", S.Cmp("neq", IntValue(-7))
    )
    assert constraint_of(">= 1 key k . < 10") == S.QualKey(
        1, "k", S.Cmp("lt", IntValue(10))
    )
    assert constraint_of(">= 1 key k . (int & ! = 0)") == S.QualKey(
        1, "k", S.PredAnd(S.TypeIs("int"), S.PredNot(S.Cmp("eq", IntValue(0))))
    )


def test_targets():
    def target_of(text):
        return parse_one(f"NODE z [{text}] {{ true }};").target

    assert target_of("") == S.Nothing()
    assert target_of(":Employee") == S.TargetLabel("Employee")
    assert target_of("id 100") == S.TargetExact("100")
    assert target_of("id n7") == S.TargetExact("n7")
    assert target_of("key since") == S.TargetKey("since")
    assert target_of('key name = "Tim"') == S.TargetKeyValue(
        StrValue("Tim"), "name"
    )
    assert target_of("key age = 30") == S.TargetKeyValue(IntValue(30), "age")
    assert target_of(":A & key k") == S.TargetAnd(
        S.TargetLabel("A"), S.TargetKey("k")
    )
    assert target_of(":A | :B") == S.TargetOr(
        S.TargetLabel("A"), S.TargetLabel("B")
    )
    with pytest.raises(ShapeSyntaxError):
        target_of(":A & :B | :C")


def test_parse_shapes_desugars_and_links():
    ss = parse_shapes("NODE a [:A | :B] { :C };")
    assert ss.linked
    assert ss.names == ("a", "a__t0", "a__t1")
    assert ss.get("a").target == S.Nothing()
    ss = parse_shapes("NODE a [] { :A | :B };")
    assert ss.get("a").constraint == S.Not(
        S.And(S.Not(S.HasLabel("A")), S.Not(S.HasLabel("B")))
    )
    with pytest.raises(UnknownShapeName):
        parse_shapes("NODE a [] { ghost };")
    with pytest.raises(UnknownShapeName):
        parse_shapes("NODE a [] { true };\nNODE a [] { true };")
    with pytest.raises(KindMismatch):
        parse_shapes("NODE a [] { src true };")
    # Nested combinators cannot even be written: the target grammar has no
    # parentheses.  (API-built nested targets are rejected in desugaring.)
    with pytest.raises(ShapeSyntaxError):
        parse_shapes("NODE a [(:A | :B) & :C] { true };")


def test_empty_document():
    ss = parse_shapes("")
    assert len(ss) == 0
    assert render_shapes(ss) == ""


def test_spans_cover_input():
    text = "NODE  s1 [:employee] { >= 1 :colleagueOf . :person };"
    shape = parse_one(text)
    assert shape.span is not None
    assert 0 <= shape.span.start < shape.span.end <= len(text)
    assert shape.constraint.span is not None
    assert text[shape.constraint.span.start:shape.constraint.span.end].startswith(
        ">= 1"
    )
    assert shape.target.span is not None
    inner = shape.constraint.inner
    assert text[inner.span.start:inner.span.end] == ":person"


@pytest.mark.parametrize(
    "bad",
    [
        "NODE",
        "NODE s",
        "NODE s [] { true }",          # missing semicolon
        "NODE s [] { };",
        "NODE s { true };",
        "GRAPH s [] { true };",
        "NODE true [] { true };",      # keyword as name
        "NODE s [] { >= -1 :r . true };",
        "NODE s [] { >= 1 :r true };",
        "NODE s [] { :A && :B };",
        'NODE s [] { >= 1 key k . = "open };',
        'NODE s [] { >= 1 key k . = "bad \\q" };',
        "NODE s [] { >= 1 key k . = 2020-13-01 };",
        "NODE s [] { # };",
        "NODE s [] { >= 1 key k . int & string };",
        "NODE s [id ] { true };",
    ],
)
def test_syntax_errors_carry_spans(bad):
    with pytest.raises(ShapeSyntaxError) as err:
        parse_shapes(bad)
    span = err.value.span
    assert span is not None
    assert 0 <= span.start <= span.end <= len(bad)
    assert span.line >= 1 and span.column >= 1


def test_render_examples():
    ss = parse_shapes(COLLEAGUE_LINE)
    assert render_shapes(ss) == COLLEAGUE_LINE + "\n"
    assert render_target(S.TargetKeyValue(StrValue("x"), "k")) == 'key k = "x"'
    assert render_path(S.Star(S.Alt(S.EdgeLabel("a"), S.EdgeLabel("b")))) == (
        "(:a || :b)*"
    )
    assert render_constraint(S.Bottom()) == "!true"
    assert render_constraint(
        S.ForallPath(S.EdgeLabel("r"), S.HasLabel("A"))
    ) == "!>= 1 :r . !:A"
    assert render_constraint(
        S.Or(S.Top(), S.And(S.Top(), S.Not(S.Top())))
    ) == "true | true & !true"
    assert render_constraint(
        S.And(S.Or(S.Top(), S.Top()), S.Top())
    ) == "(true | true) & true"


def test_negated_exact_count_does_not_lex_as_neq():
    c = S.Not(S.ExactlyPath(2, S.EdgeLabel("r"), S.Top()))
    text = render_constraint(c)
    assert text == "!(= 2 :r . true)"
    (sh,) = parse_shape_document(f"NODE s [] {{ {text} }};")
    assert sh.constraint == c


@pytest.mark.parametrize(
    "body",
    [">= \u0662 :knows . true", ">= 1 key k . = \u0662\u0660\u0662\u0660-01-02"],
    ids=["count", "date"],
)
def test_non_ascii_digits_are_a_syntax_error(body):
    # INT is -?[0-9]+ in the grammar: an Arabic-Indic digit is no digit.
    prefix = "NODE s [] { "
    with pytest.raises(ShapeSyntaxError) as err:
        parse_shapes(f"NODE a [] {{ true }};\n{prefix}{body} }};\n")
    column = len(prefix) + body.index("\u0662") + 1
    assert (err.value.span.line, err.value.span.column) == (2, column)


def test_render_rejects_unspeakable_names():
    with pytest.raises(ValueError):
        render_constraint(S.HasLabel("has space"))
    with pytest.raises(ValueError):
        render_constraint(S.ShapeRef("true"))
    with pytest.raises(ValueError):
        render_target(S.TargetExact("a-b"))
    # No digit but 0-9, and nothing after the name, not even a newline.
    with pytest.raises(ValueError, match="no concrete spelling"):
        render_constraint(S.Exact("\u0662"))
    with pytest.raises(ValueError, match="no concrete spelling"):
        render_constraint(S.Exact("a\n"))
    with pytest.raises(ValueError, match="no concrete spelling"):
        render_constraint(S.HasLabel("L\n"))
    with pytest.raises(ValueError, match="no concrete spelling"):
        render_shapes(link_shapes([Shape("s\n", NODE, S.Top(), S.Nothing())]))


def test_roundtrip_fixpoint_on_generated_corpus():
    rng = random.Random(1212)
    done = 0
    while done < 50:
        g = gen_graph(rng)
        built = gen_shapes(rng, g, sugar=True, compound_targets=True)
        flattened = []
        try:
            for sh in built:
                flattened.extend(desugar_targets(sh))
        except UnsupportedTarget:
            continue
        ss = link_shapes([
            Shape(s.name, s.kind, desugar_constraint(s.constraint), s.target)
            for s in flattened
        ])
        text = render_shapes(ss)
        again = parse_shapes(text)
        assert again == ss, text
        assert render_shapes(again) == text
        done += 1
