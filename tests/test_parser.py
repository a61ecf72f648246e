import dataclasses
import datetime
import itertools
import random
import sys

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
from pgshapes.values import DateValue, IntValue, StrValue, quote_string

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


# ---------------------------------------------------------------------------
# Exact errors and spans: one input per place the parser raises, and every
# node of one document that uses every form.


SYNTAX_ERRORS = [  # (case, text, str(error), (start, end, line, column))
    ('unexpected character', 'NODE s [] { # };',
     "unexpected character '#'", (12, 13, 1, 13)),
    ('bad escape', 'NODE s [] {\n  >= 1 key k . = "bad \\q" };',
     'bad string escape \\q', (34, 36, 2, 23)),
    ('bad escape before the end', 'NODE s [] { >= 1 key k . = "a\\q',
     'bad string escape \\q', (29, 31, 1, 30)),
    ('backslash before a newline', 'NODE s [] { >= 1 key k . = "a\\\n" };',
     'bad string escape \\\n', (29, 31, 1, 30)),
    ('unterminated at a newline', 'NODE s [] { >= 1 key k . = "open\n };',
     'unterminated string', (27, 33, 1, 28)),
    ('unterminated at the end', 'NODE s [] { >= 1 key k . = "open',
     'unterminated string', (27, 32, 1, 28)),
    ('unterminated after a trailing backslash', 'NODE s [] { >= 1 key k . = "open\\',
     'unterminated string', (27, 33, 1, 28)),
    ('expected a token at the end', 'NODE s [] { true }',
     "expected ';', found 'EOF'", (18, 18, 1, 19)),
    ('expected a token, found a string', 'NODE s [] { true } "";',
     "expected ';', found 'STRING'", (19, 21, 1, 20)),
    ('expected an IDENT', 'NODE s [:true] { true };',
     "expected 'IDENT', found 'true'", (9, 13, 1, 10)),
    ('expected NODE or EDGE', 'GRAPH s [] { true };',
     'expected NODE or EDGE', (0, 5, 1, 1)),
    ('expected a shape name', 'NODE true [] { true };',
     'expected a shape name', (5, 9, 1, 6)),
    ('target combinators do not chain', 'NODE s [:A & :B | :C] { true };',
     'target combinators do not chain', (16, 17, 1, 17)),
    ('element id in a target', 'NODE s [id ] { true };',
     'expected an element id', (11, 12, 1, 12)),
    ('element id in a constraint', 'NODE s [] { id "x" };',
     'expected an element id', (15, 18, 1, 16)),
    ('expected a target', 'NODE s [true] { true };',
     'expected a target', (8, 12, 1, 9)),
    ('negative count', 'NODE s [] { >= -1 :r . true };',
     'count must not be negative', (15, 17, 1, 16)),
    ('expected a constraint', 'NODE s [] { };',
     'expected a constraint', (12, 13, 1, 13)),
    ('set comparator', 'NODE s [] { cmp(almost, key a, key b) };',
     'expected a set comparator name', (16, 22, 1, 17)),
    ('cmp operands', 'NODE s [] { cmp(eq, key a, :r) };',
     'cmp operands must both be keys, both paths, or both path keys', (12, 15, 1, 13)),
    ('expected a path', 'NODE s [] { >= 1 true . true };',
     'expected a path', (17, 21, 1, 18)),
    ('expected a value predicate', 'NODE s [] { >= 1 key k . true };',
     'expected a value predicate', (25, 29, 1, 26)),
    ('not a calendar date', 'NODE s [] { >= 1 key k . = 2020-13-01 };',
     'not a calendar date', (27, 37, 1, 28)),
    ('expected a value', 'NODE s [] { >= 1 key k . = true };',
     'expected a value', (27, 31, 1, 28)),
    ("nesting by brackets", "NODE s [] { " + "(" * 101 + "true" + ")" * 101 + " };",
     'nesting deeper than 100 levels', (112, 113, 1, 113)),
    ("nesting by repetitions", "NODE s [] { >= 1 :r" + "*" * 101 + " . true };",
     'nesting deeper than 100 levels', (118, 119, 1, 119)),
    ("integer too long", "NODE s [] { >= " + "1" * 5000 + " :r . true };",
     f"integer over {sys.get_int_max_str_digits()} digits", (15, 5015, 1, 16)),
]


@pytest.mark.parametrize("case, text, message, span", SYNTAX_ERRORS,
                         ids=[case[0] for case in SYNTAX_ERRORS])
def test_each_syntax_error_has_its_message_and_span(case, text, message, span):
    with pytest.raises(ShapeSyntaxError) as err:
        parse_shape_document(text)
    got = err.value.span
    assert (str(err.value), (got.start, got.end, got.line, got.column)) == (message, span)


EVERY_FORM = (
    'NODE a [:A & key k] {\n'
    '  !:B & (c | id n1) | true & >= 2 :r / ^:q* || ?(:s+) . a\n'
    '    | <= 1 <-[ :C ] & = 0 ->[ id 7 ]\n'
    '};\n'
    'EDGE e [id 9 | key w = "x\\"\\\\\\n\\t\\r"] {\n'
    '  src :A & dst !:B\n'
    '  & = 1 key w . !(int & string & date & any & = 1 & != 2020-02-29)\n'
    '  & >= 1 key v . (< -3 & <= "" & > 0 & >= 2020-01-01)\n'
    '  & cmp(subseteq, key v, key w) | cmp(eq, :r / :q, ^:r)\n'
    '  | cmp(disjoint, :r key v, (:q) key w)\n'
    '};\n'
    'NODE c [key k] { true };\n'
    'NODE b [] { :X };\n'
    'NODE d [] { <= 3 :r . true & = 1 :r . b & >= 1 <-[ true ] & >= 2 ->[ b ]\n'
    '  & <= 2 key k . any & <= 0 ->[ b ] & = 2 <-[ b ] };\n'
)

EVERY_FORM_NODES = [  # (type, start, end, line, column), fields in order
    ('Shape', 0, 119, 1, 1), ('Or', 24, 116, 2, 3), ('Or', 24, 79, 2, 3),
    ('And', 24, 41, 2, 3), ('Not', 24, 27, 2, 3), ('HasLabel', 25, 27, 2, 4),
    ('Or', 31, 40, 2, 10), ('ShapeRef', 31, 32, 2, 10), ('Exact', 35, 40, 2, 14),
    ('And', 44, 79, 2, 23), ('Top', 44, 48, 2, 23), ('QualPath', 51, 79, 2, 30),
    ('Alt', 56, 75, 2, 35), ('Seq', 56, 65, 2, 35), ('EdgeLabel', 56, 58, 2, 35),
    ('Inverse', 61, 65, 2, 40), ('Star', 62, 65, 2, 41),
    ('EdgeLabel', 62, 64, 2, 41), ('Opt', 69, 75, 2, 48), ('Plus', 71, 74, 2, 50),
    ('EdgeLabel', 71, 73, 2, 50), ('ShapeRef', 78, 79, 2, 57),
    ('And', 86, 116, 3, 7), ('AtMostIncoming', 86, 99, 3, 7),
    ('HasLabel', 95, 97, 3, 16), ('ExactlyOutgoing', 102, 116, 3, 23),
    ('Exact', 110, 114, 3, 31), ('TargetAnd', 8, 18, 1, 9),
    ('TargetLabel', 8, 10, 1, 9), ('TargetKey', 13, 18, 1, 14),
    ('Shape', 120, 398, 5, 1), ('Or', 162, 395, 6, 3), ('Or', 162, 355, 6, 3),
    ('And', 162, 331, 6, 3), ('And', 162, 299, 6, 3), ('And', 162, 245, 6, 3),
    ('And', 162, 178, 6, 3), ('Src', 162, 168, 6, 3), ('HasLabel', 166, 168, 6, 7),
    ('Dst', 171, 178, 6, 12), ('Not', 175, 178, 6, 16),
    ('HasLabel', 176, 178, 6, 17), ('ExactlyKey', 183, 245, 7, 5),
    ('PredNot', 195, 245, 7, 17), ('PredAnd', 197, 244, 7, 19),
    ('PredAnd', 197, 228, 7, 19), ('PredAnd', 197, 222, 7, 19),
    ('PredAnd', 197, 216, 7, 19), ('PredAnd', 197, 209, 7, 19),
    ('TypeIs', 197, 200, 7, 19), ('TypeIs', 203, 209, 7, 25),
    ('TypeIs', 212, 216, 7, 34), ('AnyValue', 219, 222, 7, 41),
    ('Cmp', 225, 228, 7, 47), ('Cmp', 231, 244, 7, 53), ('QualKey', 250, 299, 8, 5),
    ('PredAnd', 264, 298, 8, 19), ('PredAnd', 264, 282, 8, 19),
    ('PredAnd', 264, 276, 8, 19), ('Cmp', 264, 268, 8, 19),
    ('Cmp', 271, 276, 8, 26), ('Cmp', 279, 282, 8, 34), ('Cmp', 285, 298, 8, 40),
    ('KeyCmp', 304, 331, 9, 5), ('PathCmp', 334, 355, 9, 35),
    ('Seq', 342, 349, 9, 43), ('EdgeLabel', 342, 344, 9, 43),
    ('EdgeLabel', 347, 349, 9, 48), ('Inverse', 351, 354, 9, 52),
    ('EdgeLabel', 352, 354, 9, 53), ('PathKeyCmp', 360, 395, 10, 5),
    ('EdgeLabel', 374, 376, 10, 19), ('EdgeLabel', 385, 387, 10, 30),
    ('TargetOr', 128, 156, 5, 9), ('TargetExact', 128, 132, 5, 9),
    ('TargetKeyValue', 135, 156, 5, 16), ('Shape', 399, 423, 12, 1),
    ('Top', 416, 420, 12, 18), ('TargetKey', 407, 412, 12, 9),
    ('Shape', 424, 441, 13, 1), ('HasLabel', 436, 438, 13, 13),
    ('Nothing', 432, 433, 13, 9), ('Shape', 442, 567, 14, 1),
    ('And', 454, 564, 14, 13), ('And', 454, 550, 14, 13), ('And', 454, 535, 14, 13),
    ('And', 454, 514, 14, 13), ('And', 454, 499, 14, 13), ('And', 454, 481, 14, 13),
    ('AtMostPath', 454, 468, 14, 13), ('EdgeLabel', 459, 461, 14, 18),
    ('Top', 464, 468, 14, 23), ('ExactlyPath', 471, 481, 14, 30),
    ('EdgeLabel', 475, 477, 14, 34), ('ShapeRef', 480, 481, 14, 39),
    ('QualIncoming', 484, 499, 14, 43), ('Top', 493, 497, 14, 52),
    ('QualOutgoing', 502, 514, 14, 61), ('ShapeRef', 511, 512, 14, 70),
    ('AtMostKey', 519, 535, 15, 5), ('AnyValue', 532, 535, 15, 18),
    ('AtMostOutgoing', 538, 550, 15, 24), ('ShapeRef', 547, 548, 15, 33),
    ('ExactlyIncoming', 553, 564, 15, 39), ('ShapeRef', 561, 562, 15, 47),
    ('Nothing', 450, 451, 14, 9),
]


def syntax_nodes(node):
    """(type, start, end, line, column) of `node` and then of each node in
    its fields, in field order."""
    if hasattr(node, "span"):
        s = node.span
        yield (type(node).__name__, s.start, s.end, s.line, s.column)
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            if f.name != "span":
                yield from syntax_nodes(getattr(node, f.name))
    elif isinstance(node, tuple):
        for item in node:
            yield from syntax_nodes(item)


def test_every_node_of_every_form_has_its_span():
    document = parse_shape_document(EVERY_FORM)
    assert list(syntax_nodes(document)) == EVERY_FORM_NODES
    assert document[1].target.second.value == StrValue('x"\\\n\t\r')


def test_every_constraint_class_has_a_spelling():
    # The syntax tree holds only what the grammar spells: a constraint
    # class the parser never builds has no place in it.
    spelled = {name for name, *_ in syntax_nodes(parse_shape_document(EVERY_FORM))}
    classes = {cls.__name__ for cls in S.Constraint.__subclasses__()}
    assert classes - spelled == set()


def test_quoted_strings_parse_back_unchanged():
    # Every string of up to five characters over quotes, backslashes, the
    # escaped control characters and a non-ASCII letter.
    strings = [
        "".join(chars) for n in range(6)
        for chars in itertools.product('a"\\\n\t\ré', repeat=n)
    ]
    text = "".join(f"NODE s [key k = {quote_string(s)}] {{ true }};\n" for s in strings)
    assert [sh.target.value for sh in parse_shape_document(text)] == [
        StrValue(s) for s in strings
    ]
