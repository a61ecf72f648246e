"""Instance rewrites: structure of the outputs and verdict preservation."""

import random

import pytest

from pgshapes.errors import DomainMismatch, NotNormalized, PathsPresent
from pgshapes.fixtures import (
    employee_colleague_shape,
    office_graph,
    role_pair_shapes,
    works_since_shape,
)
from pgshapes.graph import EDGE, NODE, build_graph
from pgshapes import semantics
from pgshapes.parser import parse_shapes
from pgshapes.semantics import (
    FALSE,
    TRUE,
    UNKNOWN,
    Assignment,
    Atom,
    GroundInstance,
    is_strictly_faithful,
)
from pgshapes.shapes import (
    And,
    AtMostPath,
    EdgeLabel,
    Exact,
    ExactlyPath,
    HasLabel,
    Inverse,
    Not,
    Nothing,
    Opt,
    QualIncoming,
    QualKey,
    QualOutgoing,
    QualPath,
    Seq,
    Shape,
    ShapeRef,
    TargetExact,
    TargetLabel,
    Top,
    TypeIs,
    constraint_paths,
    link_shapes,
    operator_count,
)
from pgshapes.solver import SolverConfig, brute_force_conformance, find_faithful_assignment
from pgshapes.sugar import desugar_shapes
from pgshapes.transforms import (
    TransformTrace,
    eliminate_paths,
    fold_operators,
    is_normalized,
    normalize_instance,
    reduce_to_single_target,
    verify_normalized,
)
from pgshapes.values import STRING

from randgen import gen_instance

DEEP = SolverConfig(atom_order="dependency")


def transformed_verdict(g, shapes):
    return find_faithful_assignment(g, shapes, DEEP).conforms


# --- path elimination -------------------------------------------------------


def test_eliminate_office_works_for_pair():
    g = office_graph()
    pair = Seq(EdgeLabel("worksFor"), Inverse(EdgeLabel("worksFor")))
    s = Shape("s", NODE, QualPath(1, pair, Top()), TargetLabel("Employee"))
    g2, s2, trace = eliminate_paths(g, link_shapes([s]))
    added = sorted(set(g2.edges) - set(g.edges))
    assert added == ["__pe0", "__pe1", "__pe2", "__pe3"]
    assert sorted(g2.endpoints(e) for e in added) == [
        ("100", "100"), ("100", "102"), ("102", "100"), ("102", "102"),
    ]
    for e in added:
        assert g2.labels_of(e) == frozenset({"__p0", "__m0"})
    assert s2.get("s").constraint == QualPath(1, EdgeLabel("__p0"), Top())
    assert trace.path_labels == ((":worksFor / ^:worksFor", "__p0"),)
    assert trace.marker == "__m0"
    assert brute_force_conformance(g, link_shapes([s])).conforms == \
        transformed_verdict(g2, s2) == True


def test_eliminate_label_only_identity():
    g = office_graph()
    shapes = link_shapes([employee_colleague_shape(target=True)])
    g2, s2, trace = eliminate_paths(g, shapes)
    assert g2 is g
    assert s2.shapes == shapes.shapes
    assert trace == TransformTrace()


def test_eliminate_guard_keeps_edge_counts_honest():
    # c has one real incoming edge; the materialized a-to-c path edge must
    # not count against the at-most bound.
    g = build_graph(
        ["a", "b", "c"],
        ["e1", "e2"],
        endpoints={"e1": ("a", "b"), "e2": ("b", "c")},
        labelings={"e1": ["l"], "e2": ["l"]},
    )
    hop = Seq(EdgeLabel("l"), EdgeLabel("l"))
    sp = Shape("sp", NODE, QualPath(1, hop, Top()), TargetExact("a"))
    cap = Shape("cap", NODE, Not(QualIncoming(2, Top())), TargetExact("c"))
    shapes = link_shapes([sp, cap])
    assert brute_force_conformance(g, shapes).conforms
    g2, s2, trace = eliminate_paths(g, shapes)
    assert any(g2.endpoints(e) == ("a", "c") for e in set(g2.edges) - set(g.edges))
    guarded = s2.get("cap").constraint
    assert guarded == Not(
        QualIncoming(2, And(Top(), Not(HasLabel(trace.marker))))
    )
    assert transformed_verdict(g2, s2)


def test_eliminate_desugars_input():
    g = office_graph()
    s = Shape(
        "s", NODE,
        AtMostPath(0, Seq(EdgeLabel("worksFor"), EdgeLabel("worksFor")), Top()),
        TargetLabel("Employee"),
    )
    g2, s2, _ = eliminate_paths(g, link_shapes([s]))
    assert s2.get("s").constraint == Not(
        QualPath(1, EdgeLabel("__p0"), Top())
    )
    assert brute_force_conformance(g, desugar_shapes([s])).conforms == \
        transformed_verdict(g2, s2)


def test_eliminate_fresh_names_dodge_existing():
    g = build_graph(
        ["n1", "n2"],
        ["__pe0"],
        endpoints={"__pe0": ("n1", "n2")},
        labelings={"__pe0": ["__p0", "__m0"]},
    )
    s = Shape("s", NODE, QualPath(1, Opt(EdgeLabel("x")), Top()), Nothing())
    g2, _, trace = eliminate_paths(g, link_shapes([s]))
    assert trace.fresh_labels == ("__p1", "__m1")
    # The optional hop reaches only each node itself here, one self loop each.
    assert set(g2.edges) - set(g.edges) == {"__pe1", "__pe2"}
    assert g2.endpoints("__pe1") == ("n1", "n1")
    assert g2.endpoints("__pe2") == ("n2", "n2")


def test_eliminate_preserves_conformance_random():
    rng = random.Random(5101)
    done = 0
    while done < 70:
        g, shapes = gen_instance(rng)
        expected = brute_force_conformance(g, shapes).conforms
        g2, s2, _ = eliminate_paths(g, shapes)
        assert transformed_verdict(g2, s2) == expected
        done += 1


# --- operator folding -------------------------------------------------------


def test_fold_role_pair_example():
    folded, trace = fold_operators(role_pair_shapes())
    # Originals keep their positions; fresh shapes are appended.
    assert folded.names == ("s2", "s1", "__f0", "__f1")
    s2 = folded.get("s2")
    assert s2.constraint == And(ShapeRef("__f0"), ShapeRef("__f1"))
    assert s2.target == role_pair_shapes().get("s2").target
    assert folded.get("__f0").constraint == QualKey(2, "role", TypeIs(STRING))
    assert folded.get("__f1").constraint == ShapeRef("s1")
    assert folded.get("__f0").target == Nothing()
    # s1 was already in normal form.
    assert folded.get("s1").constraint == role_pair_shapes().get("s1").constraint
    assert trace.shape_sources == (("__f0", "s2"), ("__f1", "s2"))
    assert is_normalized(folded)


def test_fold_single_operator_unchanged():
    shapes = link_shapes([employee_colleague_shape(target=True)])
    folded, trace = fold_operators(shapes)
    assert folded.shapes == shapes.shapes
    assert trace.fresh_shapes == ()


def test_fold_keeps_normal_subtrees_whole():
    s = Shape(
        "s", NODE,
        Not(And(HasLabel("A"), HasLabel("B"))),
        Nothing(),
    )
    folded, _ = fold_operators(link_shapes([s]))
    assert folded.get("s").constraint == Not(ShapeRef("__f0"))
    assert folded.get("__f0").constraint == And(HasLabel("A"), HasLabel("B"))
    assert len(folded.names) == 2


def nested_exact_counts(depth, target):
    c = Top()
    for _ in range(depth):
        c = ExactlyPath(1, EdgeLabel("knows"), c)
    return Shape("s", NODE, c, target)


def test_fold_moves_each_shared_subterm_once():
    # `= 1 p . c` desugars into two subtrees that share c, so 16 levels hold
    # 2^16 paths to the innermost operand; each (subterm, kind) pair moves
    # into one fresh shape.
    shapes = link_shapes([nested_exact_counts(16, Nothing())])
    folded, trace = fold_operators(shapes)
    assert len(trace.fresh_shapes) <= 4 * 16
    assert is_normalized(folded)
    g = build_graph(
        ["1", "2", "3"], ["a", "b", "c", "d"],
        endpoints={"a": ("1", "2"), "b": ("2", "3"), "c": ("3", "1"), "d": ("1", "3")},
        labelings={"a": ["knows"], "b": ["knows"], "c": ["knows"], "d": ["knows"]},
    )
    for depth in range(1, 6):
        for node in g.nodes:
            shapes = desugar_shapes([nested_exact_counts(depth, TargetExact(node))])
            folded, _ = fold_operators(shapes)
            assert transformed_verdict(g, folded) == transformed_verdict(g, shapes)


def test_fold_cancels_double_negation_in_or_chains():
    # `a | b` desugars into `!(!a & !b)`, so a left-deep `|` chain holds a
    # `!!` at every level; cancelled, each operand costs about two shapes.
    n = 2_000
    body = " | ".join(f":L{i}" for i in range(n))
    folded, trace = fold_operators(parse_shapes(f"NODE s [] {{ {body} }};\n"))
    assert n <= len(trace.fresh_shapes) <= 2 * n + 2
    assert is_normalized(folded)
    g = build_graph(["1", "2"], labelings={"1": ["L7"], "2": ["M"]})
    small = parse_shapes("NODE s [id 1] { :L1 | :L7 | :L3 | :L4 };\n")
    for shapes in (small, parse_shapes("NODE s [id 2] { :L1 | !!:L7 | :L3 };\n")):
        folded, _ = fold_operators(shapes)
        assert transformed_verdict(g, folded) == transformed_verdict(g, shapes)


def test_fold_rejects_composite_paths():
    s = Shape(
        "s", NODE,
        QualPath(1, Seq(EdgeLabel("a"), EdgeLabel("b")), Top()),
        Nothing(),
    )
    with pytest.raises(PathsPresent):
        fold_operators(link_shapes([s]))


def test_fold_bound_and_verdict_random():
    rng = random.Random(5102)
    done = 0
    while done < 70:
        g, shapes = gen_instance(rng)
        # Expected verdict comes from the untransformed instance; the
        # materialized path edges would push edge shapes past the cap.
        expected = brute_force_conformance(g, shapes).conforms
        if any(
            not isinstance(p, EdgeLabel)
            for sh in shapes
            for p in constraint_paths(sh.constraint)
        ):
            g, shapes, _ = eliminate_paths(g, shapes)
        total_ops = sum(operator_count(sh.constraint) for sh in shapes)
        folded, _ = fold_operators(shapes)
        assert len(folded.names) <= len(shapes.names) + 2 * total_ops
        assert is_normalized(folded)
        assert transformed_verdict(g, folded) == expected
        done += 1


# --- single-target reduction ------------------------------------------------


def test_reduce_office_node_targets():
    g = office_graph()
    shapes = link_shapes([employee_colleague_shape(target=True)])
    g2, s2, root, trace = reduce_to_single_target(g, shapes)
    assert root == Atom("__s0", "__n0", NODE)
    assert "__n0" in g2.nodes
    assert trace.target_edges == (
        ("s1", "100", "__e0", "__t0"),
        ("s1", "102", "__e1", "__t1"),
    )
    assert g2.endpoints("__e0") == ("__n0", "100")
    assert g2.endpoints("__e1") == ("__n0", "102")
    assert s2.get("s1").target == Nothing()
    assert s2.get("__s0").constraint == And(
        QualPath(1, EdgeLabel("__t0"), ShapeRef("s1")),
        QualPath(1, EdgeLabel("__t1"), ShapeRef("s1")),
    )
    assert s2.get("__s0").target == TargetExact("__n0")
    assert brute_force_conformance(g, shapes).conforms == \
        transformed_verdict(g2, s2) == False


def test_reduce_office_edge_targets():
    g = office_graph()
    shapes = link_shapes([works_since_shape()])
    g2, s2, root, trace = reduce_to_single_target(g, shapes)
    # Edge targets route through the source node of each edge.
    assert g2.endpoints("__e0") == ("__n0", "100")  # source of edge 200
    assert g2.endpoints("__e1") == ("__n0", "102")  # source of edge 203
    first = QualPath(
        1, EdgeLabel("__t0"),
        QualOutgoing(1, And(Exact("200"), ShapeRef("s3"))),
    )
    assert s2.get("__s0").constraint.first == first
    assert brute_force_conformance(g, shapes).conforms == \
        transformed_verdict(g2, s2) == False


def test_reduce_without_targets():
    g = office_graph()
    shapes = link_shapes([employee_colleague_shape(target=False)])
    g2, s2, root, trace = reduce_to_single_target(g, shapes)
    assert s2.get("__s0").constraint == Top()
    assert trace.marker is None
    assert set(g2.edges) == set(g.edges)
    assert transformed_verdict(g2, s2)


def test_reduce_guards_incoming_counts():
    g = build_graph(["a"], labelings={"a": ["T"]})
    lone = Shape("lone", NODE, Not(QualIncoming(1, Top())), TargetLabel("T"))
    shapes = link_shapes([lone])
    assert brute_force_conformance(g, shapes).conforms
    g2, s2, root, trace = reduce_to_single_target(g, shapes)
    assert g2.endpoints("__e0") == ("__n0", "a")
    assert s2.get("lone").constraint == Not(
        QualIncoming(1, And(Top(), Not(HasLabel(trace.marker))))
    )
    assert transformed_verdict(g2, s2)


def test_reduce_exactly_one_target_random():
    rng = random.Random(5103)
    done = 0
    while done < 70:
        g, shapes = gen_instance(rng)
        expected = brute_force_conformance(g, shapes).conforms
        g2, s2, root, _ = reduce_to_single_target(g, shapes)
        targeted = [sh for sh in s2 if not isinstance(sh.target, Nothing)]
        assert [sh.name for sh in targeted] == [root.shape]
        report = find_faithful_assignment(g2, s2, DEEP)
        assert report.conforms == expected
        if report.conforms:
            assert report.witness[root] is TRUE
        done += 1


def test_normalize_many_targets_builds_a_balanced_root():
    # A left-deep chain of 1,200 conjuncts would overflow the recursion
    # limit in the passes that walk the root constraint.
    people = [f"p{i}" for i in range(1200)]
    g = build_graph(people, labelings={n: ["Person"] for n in people})
    shapes = link_shapes([Shape("t", NODE, HasLabel("Person"), TargetLabel("Person"))])
    g2, s2, root, traces = normalize_instance(g, shapes)
    assert len(traces[2].target_edges) == 1200

    def and_depth(c):
        if not isinstance(c, And):
            return 0
        return 1 + max(and_depth(c.first), and_depth(c.second))

    assert and_depth(s2.get(root.shape).constraint) <= 12


def test_the_root_grounds_and_settles_in_work_linear_in_the_nodes(monkeypatch):
    # The root is a node shape, so it is grounded at every node, over one
    # >= 1 :__tK conjunct per target, and only the fresh node has __tK edges.
    # Path searches and the literals the fixed point reads must grow with
    # the nodes, not with nodes times targets.
    work = {}

    def counted(name, real, size):
        def call(*args):
            work[name] += size(*args)
            return real(*args)
        return call

    monkeypatch.setattr(semantics, "_search", counted("searches", semantics._search,
                                                      lambda *a: 1))
    monkeypatch.setattr(semantics, "_gate_value", counted("reads", semantics._gate_value,
                                                          lambda gate, _: len(gate[1])))
    for n in (100, 200, 400):
        people = [f"p{i}" for i in range(n)]
        g = build_graph(people, labelings={x: ["Person"] for x in people})
        shapes = link_shapes([Shape("t", NODE, HasLabel("Person"), TargetLabel("Person"))])
        g2, s2, root, _ = normalize_instance(g, shapes)
        work.update(searches=0, reads=0)
        ground = GroundInstance(g2, s2)
        values = ground.least_fixed_point()
        assert values[ground.index[root]] is TRUE
        assert work["searches"] <= n and work["reads"] <= 4 * n, (n, work)
    assert find_faithful_assignment(g2, s2).witness[root] is TRUE


def test_normalize_instance_pipeline_random():
    rng = random.Random(5104)
    done = 0
    while done < 50:
        g, shapes = gen_instance(rng)
        expected = brute_force_conformance(g, shapes).conforms
        g2, s2, root, traces = normalize_instance(g, shapes)
        assert len(traces) == 3
        targeted = [sh for sh in s2 if not isinstance(sh.target, Nothing)]
        assert [sh.name for sh in targeted] == [root.shape]
        assert transformed_verdict(g2, s2) == expected
        done += 1


# --- flat verification ------------------------------------------------------


def test_verify_accepts_faithful_on_folded_office():
    g = office_graph()
    folded, _ = fold_operators(role_pair_shapes())
    report = find_faithful_assignment(g, folded, DEEP)
    assert report.conforms
    verdict = verify_normalized(g, folded, report.witness)
    assert verdict.ok
    assert is_strictly_faithful(g, folded, report.witness).ok


def test_verify_rejects_flipped_atom():
    g = office_graph()
    folded, _ = fold_operators(role_pair_shapes())
    witness = find_faithful_assignment(g, folded, DEEP).witness
    atom = Atom("__f0", "102", NODE)
    mutated = dict(witness)
    mutated[atom] = mutated[atom].negate()
    flat = verify_normalized(g, folded, Assignment(mutated))
    deep = is_strictly_faithful(g, folded, Assignment(mutated))
    assert not flat.ok and not deep.ok
    assert flat.failed_condition == deep.failed_condition
    assert flat.atom == deep.atom


def test_verify_requires_normal_form():
    g = office_graph()
    with pytest.raises(NotNormalized):
        verify_normalized(
            g, role_pair_shapes(), Assignment({})
        )
    pathful = link_shapes([
        Shape("s", NODE, QualPath(1, Seq(EdgeLabel("a"), EdgeLabel("b")), Top()),
              Nothing()),
    ])
    with pytest.raises(PathsPresent):
        verify_normalized(g, pathful, Assignment({}))


def test_verify_empty_set():
    verdict = verify_normalized(office_graph(), link_shapes([]), Assignment({}))
    assert verdict.ok


def test_verify_domain_mismatch():
    g = office_graph()
    folded, _ = fold_operators(role_pair_shapes())
    witness = find_faithful_assignment(g, folded, DEEP).witness
    short = dict(witness)
    short.pop(Atom("s1", "101", NODE))
    with pytest.raises(DomainMismatch):
        verify_normalized(g, folded, short)


def test_verify_matches_deep_checker_random():
    rng = random.Random(5105)
    pairs = 0
    while pairs < 150:
        g, shapes = gen_instance(rng, max_atoms=8, max_free=6)
        g, shapes, _ = eliminate_paths(g, shapes)
        shapes, _ = fold_operators(shapes)
        report = find_faithful_assignment(g, shapes, DEEP)
        checker_atoms = report.fixed_point
        candidates = []
        if report.conforms:
            candidates.append(dict(report.witness))
            mutated = dict(report.witness)
            atom = rng.choice(sorted(mutated, key=Atom.sort_key))
            mutated[atom] = mutated[atom].negate()
            candidates.append(mutated)
        candidates.append(
            {a: rng.choice((TRUE, FALSE, UNKNOWN)) for a in checker_atoms}
        )
        for sigma in candidates:
            flat = verify_normalized(g, shapes, Assignment(sigma))
            deep = is_strictly_faithful(g, shapes, Assignment(sigma))
            assert flat.ok == deep.ok
            assert flat.failed_condition == deep.failed_condition
            assert flat.atom == deep.atom
            pairs += 1
