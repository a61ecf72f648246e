import datetime
import functools
import itertools
import random

import pytest

from pgshapes import semantics
from pgshapes import shapes as S
from pgshapes.errors import DomainMismatch, UnknownElement
from pgshapes.graph import EDGE, NODE, build_graph, Label
from pgshapes.semantics import (
    FALSE,
    TRUE,
    UNKNOWN,
    Assignment,
    Atom,
    GroundInstance,
    TruthValue,
    atoms,
    eval_edge_constraint,
    eval_node_constraint,
    eval_path,
    eval_target_edges,
    eval_target_nodes,
    is_strictly_faithful,
    least_fixed_point,
    matches_predicate,
    target_elements,
)
from pgshapes.parser import parse_shapes
from pgshapes.shapes import Shape, link_shapes
from pgshapes.values import DateValue, IntValue, StrValue

from office import (
    employee_colleague_shape,
    office_graph,
    person_label_shape,
    role_pair_shapes,
    works_since_shape,
)
from oracle import FROM_TV, path_nodes, pred_holds, ref_eval
from randgen import gen_constraint, gen_graph, gen_instance, gen_path, gen_predicate

WORKS = S.EdgeLabel("worksFor")
COLL = S.EdgeLabel("colleagueOf")


# ---------------------------------------------------------------------------
# Truth values


def test_truth_value_algebra():
    assert TRUE.negate() is FALSE
    assert FALSE.negate() is TRUE
    assert UNKNOWN.negate() is UNKNOWN
    # Conjunction is min; over {0, 1/2, 1} that is the three-valued table.
    assert min(TRUE, UNKNOWN) is UNKNOWN
    assert min(UNKNOWN, FALSE) is FALSE
    assert min(TRUE, TRUE) is TRUE
    for v in TruthValue:
        assert v.negate().negate() is v
    assert TRUE.word == "yes" and FALSE.word == "no" and UNKNOWN.word == "maybe"
    assert UNKNOWN.numeric_text == "0.5"


def test_atom_order_targets_nothing_special():
    a = Atom("s1", "100", NODE)
    b = Atom("s1", "101", NODE)
    c = Atom("s2", "100", NODE)
    assert sorted([c, b, a], key=Atom.sort_key) == [a, b, c]
    assert str(a) == "s1(100)"


def test_assignment_validates():
    a = Atom("s", "100", NODE)
    sig = Assignment({a: TRUE})
    assert sig[a] is TRUE
    # Raw enum codes coerce; anything outside the three values is rejected.
    assert [Assignment({a: code})[a] for code in (0, 1, 2)] == [FALSE, UNKNOWN, TRUE]
    assert Assignment({a: 2})[a] is TRUE
    with pytest.raises(ValueError):
        Assignment({a: 7})
    # A bool or a float equal to a code is not one: True would read maybe.
    for value in (True, False, 2.0, 1.0, "yes", None):
        with pytest.raises(TypeError):
            Assignment({a: value})
    with pytest.raises(TypeError):
        Assignment({("s", "100"): TRUE})


# ---------------------------------------------------------------------------
# Paths on the office graph


def test_office_paths():
    g = office_graph()
    companions = eval_path(g, "100", S.Seq(WORKS, S.Inverse(WORKS)))
    assert companions == {"100", "102"}
    assert eval_path(g, "102", S.Seq(WORKS, S.Inverse(WORKS))) == {"100", "102"}
    assert eval_path(g, "100", S.Star(COLL)) == {"100", "102"}
    assert eval_path(g, "100", S.Plus(COLL)) == {"100", "102"}
    assert eval_path(g, "101", S.Plus(COLL)) == frozenset()
    assert eval_path(g, "101", S.Star(COLL)) == {"101"}
    assert eval_path(g, "101", S.Opt(WORKS)) == {"101"}
    assert eval_path(g, "100", S.Opt(WORKS)) == {"100", "101"}
    assert eval_path(g, "102", S.Alt(WORKS, COLL)) == {"100", "101"}
    assert eval_path(g, "101", S.Inverse(WORKS)) == {"100", "102"}
    assert eval_path(g, "100", S.EdgeLabel("nope")) == frozenset()
    with pytest.raises(UnknownElement):
        eval_path(g, "999", WORKS)
    with pytest.raises(UnknownElement):
        eval_path(g, "200", WORKS)  # edges are not path sources
    with pytest.raises(UnknownElement):
        eval_node_constraint(g, {}, "200", S.Top())
    with pytest.raises(UnknownElement):
        eval_edge_constraint(g, {}, "100", S.Top())


def _full_path(rng, depth: int):
    """A path with an operator at every level above `depth` 0."""
    if depth == 0:
        return gen_path(rng, 0)
    op = rng.choice((S.Inverse, S.Seq, S.Alt, S.Star, S.Plus, S.Opt))
    if op in (S.Seq, S.Alt):
        return op(_full_path(rng, depth - 1), _full_path(rng, depth - 1))
    return op(_full_path(rng, depth - 1))


def test_path_matches_relational_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        g = gen_graph(rng)
        p = gen_path(rng, 3)
        for n in g.nodes:
            assert eval_path(g, n, p) == path_nodes(g, n, p), (n, p)
    # Graphs of up to 40 nodes, with operators at all four levels, so
    # inverses get pushed down through nested sequences, closures, options
    # and alternatives; self-loops and parallel edges occur among them.
    loops = parallel = 0
    for _ in range(40):
        g = gen_graph(rng, max_nodes=40, max_edges=60)
        p = _full_path(rng, 4)
        pairs = [g.endpoints(e) for e in g.edges]
        loops += any(a == b for a, b in pairs)
        parallel += len(set(pairs)) < len(pairs)
        cache: dict = {}
        for n in g.nodes:
            assert eval_path(g, n, p, cache) == path_nodes(g, n, p), (n, p)
    assert loops and parallel


def test_long_sequence_path_needs_no_recursion():
    # A 2-cycle: 10,000 :knows steps from a node lead back to it, as 2 do.
    g = build_graph(
        ["a", "b"], ["e", "f"], endpoints={"e": ("a", "b"), "f": ("b", "a")},
        labelings={"e": ["knows"], "f": ["knows"]},
    )
    knows = S.EdgeLabel("knows")
    long_path = functools.reduce(S.Seq, [knows] * 10_000)
    cache: dict = {}
    for n in g.nodes:
        assert eval_path(g, n, long_path, cache) == eval_path(g, n, S.Seq(knows, knows))
        assert eval_path(g, n, S.Inverse(long_path), cache) == {n}


def _components_in_a_dag(rng, blocks: int):
    """Cycles of 1-4 nodes (a one-node cycle is a self-loop) joined forward
    by random edges, plus two isolated nodes.  Ids are shuffled, so the
    sorted node order follows neither the cycles nor the DAG."""
    ids = iter(rng.sample(range(1000), 4 * blocks + 2))
    groups, ends, labels = [], {}, {}

    def edge(a, b, label):
        e = f"e{len(ends)}"
        ends[e], labels[e] = (a, b), [label]

    for _ in range(blocks):
        group = [f"n{next(ids)}" for _ in range(rng.randint(1, 4))]
        label = rng.choice("ab")
        for a, b in zip(group, group[1:] + group[:1]):
            edge(a, b, label)
        for earlier in groups:
            if rng.random() < 0.3:
                edge(rng.choice(earlier), rng.choice(group), rng.choice("ab"))
        groups.append(group)
    nodes = [x for group in groups for x in group] + [f"n{next(ids)}" for _ in range(2)]
    return build_graph(nodes, list(ends), endpoints=ends, labelings=labels)


def _mixed_path(rng, depth: int):
    """An operator at every level above `depth` 0, inverses weighted up,
    over labels a and b and one no edge carries."""
    if depth == 0:
        return S.EdgeLabel(rng.choice(("a", "a", "b", "missing")))
    op = rng.choice((S.Inverse, S.Inverse, S.Seq, S.Alt, S.Star, S.Plus, S.Opt))
    if op in (S.Seq, S.Alt):
        return op(_mixed_path(rng, depth - 1), _mixed_path(rng, depth - 1))
    return op(_mixed_path(rng, depth - 1))


def test_every_source_matches_the_relational_oracle_across_components(monkeypatch):
    # The product of each graph and path has many strongly connected
    # components joined by a DAG; every source's set comes from one pass.
    from oracle import relation

    passes = []
    monkeypatch.setattr(semantics, "strongly_connected", lambda succ: passes.append(
        S.strongly_connected(succ)) or passes[-1])
    rng = random.Random(1970)
    fixed = [
        S.Star(S.EdgeLabel("a")),
        S.Plus(S.Inverse(S.Alt(S.EdgeLabel("a"), S.Inverse(S.EdgeLabel("b"))))),
        S.Inverse(S.Seq(S.Star(S.EdgeLabel("b")), S.Inverse(S.Plus(S.EdgeLabel("a"))))),
        S.Seq(S.EdgeLabel("a"), S.EdgeLabel("missing")),
        S.Star(S.EdgeLabel("missing")),
        S.Opt(S.Inverse(S.Inverse(S.EdgeLabel("b")))),
    ]
    joined = 0
    for _ in range(30):
        g = _components_in_a_dag(rng, rng.randint(2, 6))
        paths = fixed + [_mixed_path(rng, rng.randint(1, 3)) for _ in range(4)]
        cache: dict = {}
        passes.clear()
        for p in paths:
            pairs = relation(g, p)
            for n in g.nodes:
                assert eval_path(g, n, p, cache) == {m for a, m in pairs if a == n}, (n, p)
        assert len(passes) == len(paths)  # one pass per path, not per source
        joined += max(sum(len(c) > 1 for c in components) for components in passes) > 1
    assert joined >= 20, joined


def test_a_path_object_is_condensed_once_per_cache(monkeypatch):
    # 300 nodes with two :knows and one :worksFor edge each: every source
    # of each closure path is answered by one pass over the product.
    rng = random.Random(1995)
    people = [f"p{i:03}" for i in range(300)]
    ends = {}
    for x in people:
        for label in ("knows", "knows", "worksFor"):
            ends[f"{label}-{len(ends)}"] = (x, rng.choice(people))
    g = build_graph(people, list(ends), endpoints=ends,
                    labelings={e: [e.split("-")[0]] for e in ends})
    shapes = parse_shapes(
        "NODE Reach [] { >= 2 (:knows || ^:worksFor)+ . true };\n"
        "NODE Circle [] { >= 3 ^(:knows/:worksFor)* . true };\n"
        "NODE Taste [] { cmp(subseteq, :knows, :knows*) };\n"
    )
    composite = {id(p) for sh in shapes for p in S.constraint_paths(sh.constraint)
                 if not isinstance(p, S.EdgeLabel)}
    passes = []
    monkeypatch.setattr(semantics, "strongly_connected", lambda succ: passes.append(
        len(succ)) or S.strongly_connected(succ))
    GroundInstance(g, shapes)
    assert len(passes) == len(composite) == 3
    # Each pass covers the whole product, not one source's part of it.
    assert min(passes) >= len(g.nodes)


def test_predicates_match_oracle():
    rng = random.Random(555)
    from randgen import gen_value

    for _ in range(300):
        f = gen_predicate(rng, 2)
        v = gen_value(rng)
        assert matches_predicate(f, v) == pred_holds(f, v), (f, v)


# ---------------------------------------------------------------------------
# Targets


def test_office_targets():
    g = office_graph()
    assert eval_target_nodes(g, S.TargetLabel("Employee")) == {"100", "102"}
    assert eval_target_nodes(g, S.TargetLabel("Company")) == {"101"}
    assert eval_target_nodes(g, S.Nothing()) == frozenset()
    assert eval_target_nodes(g, S.TargetExact("101")) == {"101"}
    assert eval_target_nodes(g, S.TargetExact("999")) == frozenset()
    assert eval_target_nodes(g, S.TargetExact("200")) == frozenset()  # edge id
    assert eval_target_nodes(g, S.TargetKey("age")) == {"100"}
    assert eval_target_nodes(
        g, S.TargetKeyValue(StrValue("Gareth Keenan"), "name")
    ) == {"102"}
    assert eval_target_edges(g, S.TargetLabel("worksFor")) == {"200", "203"}
    assert eval_target_edges(g, S.TargetKey("since")) == {"200", "203"}
    assert eval_target_edges(
        g, S.TargetKeyValue(DateValue(datetime.date(1970, 1, 1)), "since")
    ) == {"200"}
    with pytest.raises(TypeError):
        eval_target_nodes(g, S.TargetAnd(S.Nothing(), S.Nothing()))
    with pytest.raises(TypeError):
        eval_target_edges(g, S.TargetOr(S.Nothing(), S.Nothing()))


def test_label_targets_match_a_full_scan():
    rng = random.Random(4242)
    names = ("Alpha", "Beta", "Gamma", "knows", "likes", "sees", "nope")
    for _ in range(100):
        g = gen_graph(rng, max_nodes=8, max_edges=12)
        for name in names:
            q = S.TargetLabel(name)
            assert eval_target_nodes(g, q) == {
                n for n in g.nodes if name in g.labels_of(n)
            }
            assert eval_target_edges(g, q) == {
                e for e in g.edges if name in g.labels_of(e)
            }


def test_target_elements_uses_shape_kind():
    g = office_graph()
    node_sh = Shape("a", NODE, S.Top(), S.TargetKey("since"))
    edge_sh = Shape("b", EDGE, S.Top(), S.TargetKey("since"))
    assert target_elements(g, node_sh) == frozenset()
    assert target_elements(g, edge_sh) == {"200", "203"}


# ---------------------------------------------------------------------------
# Constraint evaluation on the office graph, values derived by hand


def empty_sigma():
    return Assignment({})


def test_person_label_shape_values():
    g = office_graph()
    sh = person_label_shape()
    assert sh.kind == NODE
    want = {"100": TRUE, "101": FALSE, "102": FALSE}
    for n, tv in want.items():
        assert eval_node_constraint(g, empty_sigma(), n, sh.constraint) is tv
    assert target_elements(g, sh) == {"100", "102"}


def test_employee_colleague_shape_values():
    g = office_graph()
    sh = employee_colleague_shape()
    want = {"100": FALSE, "101": FALSE, "102": TRUE}
    for n, tv in want.items():
        assert eval_node_constraint(g, empty_sigma(), n, sh.constraint) is tv


def test_works_since_shape_values():
    g = office_graph()
    sh = works_since_shape()
    assert sh.kind == EDGE
    # 200: source is a Person but the date is too early; 203: recent date but
    # the source lacks the Person label.  Both conjunctions fail.
    want = {"200": FALSE, "201": FALSE, "202": FALSE, "203": FALSE}
    for e, tv in want.items():
        assert eval_edge_constraint(g, empty_sigma(), e, sh.constraint) is tv
    src_person = S.Src(S.HasLabel("Person"))
    assert eval_edge_constraint(g, empty_sigma(), "200", src_person) is TRUE
    assert eval_edge_constraint(g, empty_sigma(), "203", src_person) is FALSE
    since = works_since_shape().constraint.second
    assert eval_edge_constraint(g, empty_sigma(), "200", since) is FALSE
    assert eval_edge_constraint(g, empty_sigma(), "203", since) is TRUE
    assert target_elements(g, sh) == {"200", "203"}


def test_reference_is_lookup_not_recursion():
    g = office_graph()
    shapes = role_pair_shapes()
    s2 = shapes.get("s2")
    sigma = Assignment({
        Atom("s1", "100", NODE): FALSE,
        Atom("s1", "101", NODE): FALSE,
        Atom("s1", "102", NODE): TRUE,
    })
    # s2 = two string roles AND a reference to s1; at 102 both conjuncts hold.
    assert eval_node_constraint(g, sigma, "102", s2.constraint) is TRUE
    assert eval_node_constraint(g, sigma, "100", s2.constraint) is FALSE
    assert eval_node_constraint(g, sigma, "101", s2.constraint) is FALSE
    # Flipping the referenced value flips the conjunction: the evaluator
    # reads the assignment, it never re-evaluates s1.
    flipped = Assignment({
        Atom("s1", "100", NODE): FALSE,
        Atom("s1", "101", NODE): FALSE,
        Atom("s1", "102", NODE): FALSE,
    })
    assert eval_node_constraint(g, flipped, "102", s2.constraint) is FALSE
    with pytest.raises(DomainMismatch):
        eval_node_constraint(g, empty_sigma(), "102", s2.constraint)


def test_self_reference_is_total():
    g = build_graph(
        ["a", "b"], ["e1", "e2"],
        endpoints={"e1": ("a", "b"), "e2": ("b", "a")},
        labelings={"e1": [Label("r", EDGE)], "e2": [Label("r", EDGE)]},
    )
    c = S.QualPath(1, S.EdgeLabel("r"), S.ShapeRef("sA"))

    def at(n, value_at_other, other):
        sigma = Assignment({Atom("sA", other, NODE): value_at_other})
        return eval_node_constraint(g, sigma, n, c)

    assert at("a", TRUE, "b") is TRUE
    assert at("a", FALSE, "b") is FALSE
    assert at("a", UNKNOWN, "b") is UNKNOWN


def test_counting_three_way():
    # Two successors: one known good, one undecided; at-least-2 stays open.
    g = build_graph(
        ["a", "b", "c"], ["e1", "e2"],
        endpoints={"e1": ("a", "b"), "e2": ("a", "c")},
        labelings={"e1": ["r"], "e2": ["r"]},
    )
    c = S.QualPath(2, S.EdgeLabel("r"), S.ShapeRef("s"))
    base = {Atom("s", "b", NODE): TRUE}
    for tv, want in ((TRUE, TRUE), (UNKNOWN, UNKNOWN), (FALSE, FALSE)):
        sigma = Assignment({**base, Atom("s", "c", NODE): tv})
        assert eval_node_constraint(g, sigma, "a", c) is want
    # At-least-1 is already decided by the certain successor.
    c1 = S.QualPath(1, S.EdgeLabel("r"), S.ShapeRef("s"))
    sigma = Assignment({**base, Atom("s", "c", NODE): UNKNOWN})
    assert eval_node_constraint(g, sigma, "a", c1) is TRUE


def test_edge_counting_vs_node_counting():
    # One node with three parallel self-loops: edge restrictions count three
    # incident edges, path restrictions see a single reachable node.
    g = build_graph(
        ["n"], ["e1", "e2", "e3"],
        endpoints={e: ("n", "n") for e in ("e1", "e2", "e3")},
        labelings={e: ["r"] for e in ("e1", "e2", "e3")},
    )
    sig = empty_sigma()
    assert eval_node_constraint(g, sig, "n", S.QualOutgoing(3, S.Top())) is TRUE
    assert eval_node_constraint(g, sig, "n", S.QualIncoming(3, S.Top())) is TRUE
    assert eval_node_constraint(g, sig, "n", S.QualOutgoing(4, S.Top())) is FALSE
    assert (
        eval_node_constraint(g, sig, "n", S.QualPath(3, S.EdgeLabel("r"), S.Top()))
        is FALSE
    )
    assert (
        eval_node_constraint(g, sig, "n", S.QualPath(1, S.EdgeLabel("r"), S.Top()))
        is TRUE
    )


def test_zero_count_is_trivially_true():
    g = build_graph(["n"])
    sig = empty_sigma()
    assert eval_node_constraint(g, sig, "n", S.QualPath(0, WORKS, S.Top())) is TRUE
    assert eval_node_constraint(g, sig, "n", S.QualOutgoing(0, S.Top())) is TRUE
    assert eval_node_constraint(g, sig, "n", S.QualKey(0, "k", S.AnyValue())) is TRUE


def test_qual_key_is_two_valued_per_value_multiplicity():
    g = office_graph()
    sig = empty_sigma()
    two_strings = S.QualKey(2, "role", S.TypeIs("string"))
    assert eval_node_constraint(g, sig, "102", two_strings) is TRUE
    assert eval_node_constraint(g, sig, "100", two_strings) is FALSE
    three = S.QualKey(3, "role", S.TypeIs("string"))
    assert eval_node_constraint(g, sig, "102", three) is FALSE


def test_eval_rejects_sugar_and_misplaced_forms():
    g = office_graph()
    with pytest.raises(TypeError):
        eval_node_constraint(g, empty_sigma(), "100", S.Or(S.Top(), S.Top()))
    # Misplaced forms are a linking error; the evaluator just fails the
    # element lookup they imply.
    with pytest.raises(UnknownElement):
        eval_edge_constraint(g, empty_sigma(), "200", S.QualIncoming(1, S.Top()))
    with pytest.raises(UnknownElement):
        eval_node_constraint(g, empty_sigma(), "100", S.Src(S.Top()))


def test_eval_matches_oracle_on_core_constraints():
    rng = random.Random(271828)
    for _ in range(250):
        g, shapes = gen_instance(rng, sugar=False)
        sigma_frac = {}
        assign = {}
        for sh in shapes:
            for x in g.nodes if sh.kind == NODE else g.edges:
                tv = rng.choice((FALSE, UNKNOWN, TRUE))
                sigma_frac[(sh.name, x)] = FROM_TV[tv]
                assign[Atom(sh.name, x, sh.kind)] = tv
        assignment = Assignment(assign)
        for sh in shapes:
            for x in g.nodes if sh.kind == NODE else g.edges:
                if sh.kind == NODE:
                    got = eval_node_constraint(g, assignment, x, sh.constraint)
                else:
                    got = eval_edge_constraint(g, assignment, x, sh.constraint)
                assert FROM_TV[got] == ref_eval(g, sigma_frac, x, sh.constraint, sh.kind)


def evaluate_atom(g, shapes, sigma, atom):
    """The atom's constraint at its element under sigma."""
    evaluate = eval_node_constraint if atom.kind == NODE else eval_edge_constraint
    return evaluate(g, sigma, atom.element, shapes.get(atom.shape).constraint)


def test_eval_is_monotone_in_knowledge_order():
    rng = random.Random(161803)
    for _ in range(150):
        g, shapes = gen_instance(rng, sugar=False)
        all_atoms = GroundInstance(g, shapes).atoms
        lower = {}
        upper = {}
        for a in all_atoms:
            hi = rng.choice((FALSE, UNKNOWN, TRUE))
            upper[a] = hi
            lower[a] = UNKNOWN if rng.random() < 0.5 else hi
        lo_sig, hi_sig = Assignment(lower), Assignment(upper)
        for a in all_atoms:
            lo = evaluate_atom(g, shapes, lo_sig, a)
            hi = evaluate_atom(g, shapes, hi_sig, a)
            assert lo is UNKNOWN or lo is hi, a


# ---------------------------------------------------------------------------
# Strict faithfulness


def office_pair_assignment():
    return Assignment({
        Atom("s1", "100", NODE): FALSE,
        Atom("s1", "101", NODE): FALSE,
        Atom("s1", "102", NODE): TRUE,
        Atom("s2", "100", NODE): FALSE,
        Atom("s2", "101", NODE): FALSE,
        Atom("s2", "102", NODE): TRUE,
    })


def test_office_pair_is_faithful():
    g = office_graph()
    shapes = role_pair_shapes()
    verdict = is_strictly_faithful(g, shapes, office_pair_assignment())
    assert verdict.ok
    assert bool(verdict)


def test_faithfulness_condition_order_and_detail():
    g = office_graph()
    shapes = role_pair_shapes()
    # Violate the node equation at (s1, 102).
    sigma = dict(office_pair_assignment())
    sigma[Atom("s1", "102", NODE)] = FALSE
    verdict = is_strictly_faithful(g, shapes, Assignment(sigma))
    assert not verdict.ok
    assert verdict.failed_condition == 1
    assert verdict.atom == Atom("s1", "102", NODE)
    assert "s1(102)" in verdict.detail

    # Equations hold but the target atom is not yes: condition 3.
    g2 = build_graph(
        ["a", "b"], ["e1", "e2"],
        endpoints={"e1": ("a", "b"), "e2": ("b", "a")},
        labelings={"e1": ["r"], "e2": ["r"], "a": [Label("T", NODE)]},
    )
    cyc = link_shapes([
        Shape("sA", NODE, S.QualPath(1, S.EdgeLabel("r"), S.ShapeRef("sA")),
              S.TargetLabel("T")),
    ])
    undecided = Assignment({
        Atom("sA", "a", NODE): UNKNOWN,
        Atom("sA", "b", NODE): UNKNOWN,
    })
    verdict = is_strictly_faithful(g2, cyc, undecided)
    assert (not verdict.ok) and verdict.failed_condition == 3
    assert verdict.atom == Atom("sA", "a", NODE)


def test_faithfulness_edge_conditions():
    g = build_graph(["a"], ["e"], endpoints={"e": ("a", "a")})
    # Edge equation violated: condition 2.
    pair = link_shapes([
        Shape("sE", EDGE, S.Src(S.Top()), S.Nothing()),
    ])
    bad = Assignment({Atom("sE", "e", EDGE): FALSE})
    verdict = is_strictly_faithful(g, pair, bad)
    assert (not verdict.ok) and verdict.failed_condition == 2

    # Equations hold at unknown but the edge target needs yes: condition 4.
    both = link_shapes([
        Shape("sA", NODE, S.QualPath(1, S.EdgeLabel("r"), S.ShapeRef("sA")),
              S.Nothing()),
        Shape("sE", EDGE, S.Src(S.ShapeRef("sA")), S.TargetExact("e")),
    ])
    g2 = build_graph(
        ["a"], ["e"], endpoints={"e": ("a", "a")}, labelings={"e": ["r"]},
    )
    undecided = Assignment({
        Atom("sA", "a", NODE): UNKNOWN,
        Atom("sE", "e", EDGE): UNKNOWN,
    })
    verdict = is_strictly_faithful(g2, both, undecided)
    assert (not verdict.ok) and verdict.failed_condition == 4
    assert verdict.atom == Atom("sE", "e", EDGE)


def test_domain_must_match_exactly():
    g = office_graph()
    shapes = role_pair_shapes()
    partial = dict(office_pair_assignment())
    del partial[Atom("s2", "101", NODE)]
    with pytest.raises(DomainMismatch):
        is_strictly_faithful(g, shapes, Assignment(partial))
    extra = dict(office_pair_assignment())
    extra[Atom("s9", "100", NODE)] = TRUE
    with pytest.raises(DomainMismatch):
        is_strictly_faithful(g, shapes, Assignment(extra))


def test_atoms_enumeration():
    g = office_graph()
    shapes = role_pair_shapes()
    got = atoms(g, shapes)
    assert got == {
        Atom("s1", n, NODE) for n in ("100", "101", "102")
    } | {
        Atom("s2", n, NODE) for n in ("100", "101", "102")
    }
    ordered = GroundInstance(g, shapes).atoms
    assert ordered[0] == Atom("s1", "100", NODE)
    assert ordered[-1] == Atom("s2", "102", NODE)


ODD_IDS = (0, 7, 10, 9, 100, "-1", "a", "B", "b", "Ab", "aB", "Z9", "é", "É", "Ω", "日本", "𝔸", "n 1")


@pytest.mark.parametrize("seed", range(40))
def test_atoms_are_built_in_canonical_order(seed):
    # Integer tokens sort as text ("10" before "9"), upper case before
    # lower, and non-ASCII after both: the sorted id tuples give that order.
    rng = random.Random(seed)
    ids = rng.sample(ODD_IDS, rng.randint(0, len(ODD_IDS)))
    cut = rng.randint(0, len(ids))
    nodes, edges = ids[:cut] or ["n"], ids[cut:]
    g = build_graph(
        nodes, edges, {e: (rng.choice(nodes), rng.choice(nodes)) for e in edges}
    )
    names = rng.sample(["s", "S", "s1", "s10", "s9", "ß", "Ä", "a b"], rng.randint(1, 8))
    shapes = link_shapes(
        Shape(name, rng.choice((NODE, EDGE)), S.Top(), S.Nothing()) for name in names
    )
    got = GroundInstance(g, shapes).atoms
    assert got == tuple(sorted(atoms(g, shapes), key=Atom.sort_key))
    assert len(got) == sum(len(g.nodes if s.kind == NODE else g.edges) for s in shapes)


# ---------------------------------------------------------------------------
# Least fixed point


def test_lfp_on_reference_free_shapes_is_plain_evaluation():
    g = office_graph()
    shapes = link_shapes([person_label_shape(), works_since_shape()])
    lfp = least_fixed_point(g, shapes)
    assert lfp[Atom("PersonShape", "100", NODE)] is TRUE
    assert lfp[Atom("PersonShape", "102", NODE)] is FALSE
    assert all(lfp[Atom("s3", e, EDGE)] is FALSE for e in g.edges)


def test_lfp_leaves_unforced_cycles_unknown():
    g = build_graph(
        ["a", "b"], ["e1", "e2"],
        endpoints={"e1": ("a", "b"), "e2": ("b", "a")},
        labelings={"e1": ["r"], "e2": ["r"]},
    )
    cyc = link_shapes([
        Shape("sA", NODE, S.QualPath(1, S.EdgeLabel("r"), S.ShapeRef("sA")),
              S.Nothing()),
    ])
    lfp = least_fixed_point(g, cyc)
    assert lfp[Atom("sA", "a", NODE)] is UNKNOWN
    assert lfp[Atom("sA", "b", NODE)] is UNKNOWN


def test_lfp_satisfies_equations_and_is_least():
    rng = random.Random(424242)
    checked_least = 0
    for _ in range(60):
        g, shapes = gen_instance(rng, sugar=False, max_atoms=8, max_free=6)
        ordered = GroundInstance(g, shapes).atoms
        lfp = least_fixed_point(g, shapes)
        for a in ordered:
            assert evaluate_atom(g, shapes, lfp, a) is lfp[a]
        # Among every equation solution, the fixed point carries the least
        # information: wherever they differ, the fixed point says unknown.
        if len(ordered) <= 6:
            checked_least += 1
            for combo in itertools.product(
                (FALSE, UNKNOWN, TRUE), repeat=len(ordered)
            ):
                sigma = Assignment(dict(zip(ordered, combo)))
                if all(
                    evaluate_atom(g, shapes, sigma, a) is sigma[a] for a in ordered
                ):
                    for a in ordered:
                        assert lfp[a] is UNKNOWN or lfp[a] is sigma[a]
    assert checked_least >= 10
