"""Instance rewrites: structure of the outputs and verdict preservation."""

import random

import pytest

from pgshapes.errors import DomainMismatch, NotNormalized, PathsPresent
from pgshapes.graph import EDGE, INCOMING, NODE, OUTGOING, build_graph
from pgshapes import graph, semantics
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
    TargetOr,
    Top,
    TypeIs,
    constraint_paths,
    link_shapes,
)
from pgshapes.solver import SolverConfig, brute_force_conformance, find_faithful_assignment
from pgshapes.sugar import desugar_shapes
from pgshapes.transforms import (
    TransformTrace,
    _Fresh,
    eliminate_paths,
    fold_operators,
    is_normalized,
    normalize_instance,
    reduce_to_single_target,
    verify_normalized,
)
from pgshapes.values import STRING

from office import (
    employee_colleague_shape,
    office_graph,
    role_pair_shapes,
    works_since_shape,
)
from randgen import gen_instance, operator_count

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


def test_fresh_names_in_one_batch_are_the_names_one_by_one():
    taken = {"__pe0", "__pe2", "__pe3", "__pe7", "__p1", "__pex", "x"}
    for count in (0, 1, 2, 5, 40):
        one, batch = _Fresh(taken), _Fresh(taken)
        one.name("__pe"), batch.name("__pe")
        assert batch.names("__pe", count) == [one.name("__pe") for _ in range(count)]
        assert batch.taken == one.taken
        assert batch.name("__pe") == one.name("__pe")


def test_fresh_names_skip_the_graph_ids_without_copying_them():
    g = build_graph(["__pe0", "__pe2"], ["x"], {"x": ("__pe0", "__pe2")})
    for batch in (True, False):
        ids = _Fresh({"__pe3"}, g)
        names = ids.names("__pe", 3) if batch else [ids.name("__pe") for _ in range(3)]
        assert names == ["__pe1", "__pe4", "__pe5"]
        assert ids.name("__pe") == "__pe6" and ids.name("x") == "x0"
        assert ids.taken == {"__pe1", "__pe3", "__pe4", "__pe5", "__pe6", "x0"}


def test_fresh_ids_skip_every_id_the_shapes_name():
    # Ids named by a target or by an `id` constraint are skipped like the
    # graph's own, whether or not any element carries them.
    g = build_graph(["a", "b"], ["e1"], {"e1": ("a", "b")}, {"a": ["X"], "e1": ["knows"]})
    shapes = parse_shapes(
        "NODE P [:X] { >= 1 :knows* . true & ! id __pe1 };\n"
        "EDGE Q [id __pe0] { ! id __e0 };\n"
        "NODE R [id __n0] { true };\n")
    _, _, root, (t1, _, t3) = normalize_instance(g, shapes)
    assert t1.fresh_edges == ("__pe2", "__pe3", "__pe4")
    assert t3.fresh_nodes == ("__n1",) and root.element == "__n1"
    assert t3.fresh_edges == ("__e1",)


def test_eliminated_graph_is_one_build_of_all_its_rows():
    # Old edge ids sort before, between and after the fresh __pe ids, and
    # one of them takes a name the fresh edges skip.
    ids = ["A", "__pd", "__pe1", "__pf", "b", "e3"]
    ends = {e: (n, m) for e, n, m in zip(ids, "xyzxwy", "yzxxyw")}
    g = build_graph(["w", "x", "y", "z"], ids, endpoints=ends,
                    labelings={e: ["knows"] for e in ids})
    shapes = parse_shapes(
        "NODE s [] { >= 1 :knows* . true & >= 1 ^(:knows/:knows) . true };\n")
    graphs = [g] + [eliminate_paths(*gen_instance(random.Random(i)))[0] for i in range(30)]
    for base in graphs:
        g2, _, trace = eliminate_paths(base, shapes)
        assert trace.fresh_edges
        whole = build_graph(
            g2.nodes, g2.edges, endpoints={e: g2.endpoints(e) for e in g2.edges},
            labelings={x: g2.labels_of(x) for x in g2.nodes + g2.edges},
            properties={(x, k): g2.property_values(x, k)
                        for x in g2.nodes + g2.edges for k in g2.property_keys(x)})
        assert g2 == whole
        for n in whole.nodes:
            for d in (OUTGOING, INCOMING):
                assert g2.adjacent_edges(n, d) == whole.adjacent_edges(n, d)
        for name in (*trace.fresh_labels, "knows"):
            assert g2.by_label.get(name) == whole.by_label.get(name)


def _one_build(g):
    """g's rows in one build_graph call."""
    return build_graph(
        g.nodes, g.edges, endpoints={e: g.endpoints(e) for e in g.edges},
        labelings={x: g.labels_of(x) for x in g.nodes + g.edges},
        properties={(x, k): g.property_values(x, k)
                    for x in g.nodes + g.edges for k in g.property_keys(x)})


def _assert_tables_match_one_build(g, labels):
    whole = _one_build(g)
    assert g == whole
    assert dict(g.by_label) == dict(whole.by_label)
    for n in whole.nodes:
        for d in (OUTGOING, INCOMING):
            assert g.adjacent_edges(n, d) == whole.adjacent_edges(n, d)
    for name in {*whole.by_label, *labels}:
        for d in (OUTGOING, INCOMING):
            assert g.label_adjacency(name, d) == whole.label_adjacency(name, d), (name, d)


def test_prefilled_tables_match_one_build_through_every_step():
    # Elimination hands the graph its fresh labels' indexes ready-made.
    # They must equal one build's after elimination and after the whole
    # pipeline, whether the eliminated graph's tables were read before the
    # reduction built on it or not, and after a build on the eliminated
    # graph whose new row carries a fresh label.
    ids = ["A", "__pd", "__pe1", "__pf", "b", "e3"]
    ends = {e: (n, m) for e, n, m in zip(ids, "xyzxwy", "yzxxyw")}
    g = build_graph(["w", "x", "y", "z"], ids, endpoints=ends,
                    labelings={e: ["knows"] for e in ids})
    shapes = parse_shapes(
        "NODE s [id x] { >= 1 :knows* . true & >= 1 ^(:knows/:knows) . true };\n")
    cases = [(g, shapes)] + [(eliminate_paths(*gen_instance(random.Random(i)))[0], shapes)
                             for i in range(30)]
    cases += [gen_instance(random.Random(f"tables:{i}"), sugar=True) for i in range(30)]
    for base, shapes in cases:
        g3, _, _, (t1, _, t3) = normalize_instance(base, shapes)
        _assert_tables_match_one_build(g3, (*t1.fresh_labels, *t3.fresh_labels))

        g1, s1, t1 = eliminate_paths(base, shapes)
        _assert_tables_match_one_build(g1, t1.fresh_labels)
        # That read every node's adjacent_edges both ways, so the reduction
        # builds on a graph whose adjacency tables are built.
        g3, _, _, t3 = reduce_to_single_target(g1, fold_operators(s1)[0])
        _assert_tables_match_one_build(g3, (*t1.fresh_labels, *t3.fresh_labels))

        for _, label in t1.path_labels:
            g1 = eliminate_paths(base, shapes)[0]  # its tables as elimination left them
            n = g1.nodes[0]
            grown = build_graph([], ["x-new"], {"x-new": (n, n)}, {"x-new": [label]}, base=g1)
            _assert_tables_match_one_build(grown, t1.fresh_labels)


def test_grounding_a_normalized_instance_builds_no_fresh_path_table(monkeypatch):
    # Elimination hands the graph each __pK label's outgoing table, and
    # grounding reads label tables only outgoing, so it builds none of the
    # __pK tables and no incoming side at all.
    built = []

    def counted(g, label, direction):
        built.append((label, direction))
        return real_table(g, label, direction)

    real_table = graph._label_table
    monkeypatch.setattr(graph, "_label_table", counted)
    g = office_graph()
    g.label_adjacency("worksFor", OUTGOING)
    assert built == [("worksFor", OUTGOING)] and set(g._label_adj["worksFor"]) == {OUTGOING}

    # 300 nodes in blocks of ten: knows stays inside a block, and everyone
    # works for the block's first node, an Org.
    rng = random.Random(16)
    nodes = [f"n{i}" for i in range(300)]
    ends = {}
    for i, x in enumerate(nodes):
        block = nodes[i - i % 10:i - i % 10 + 10]
        for y in rng.sample(block, 2):
            ends[f"k{len(ends)}"] = (x, y)
        ends[f"w{i}"] = (x, block[0])
    labelings = {e: ["knows" if e[0] == "k" else "worksFor"] for e in ends}
    labelings.update({x: ["Person" if i % 10 else "Org"] for i, x in enumerate(nodes)})
    shapes = parse_shapes(
        "NODE Reach [:Person] { >= 1 (:knows || :worksFor)+ . :Org };\n"
        "NODE Circle [:Org] { >= 3 ^(:knows/:worksFor)* . :Person };\n"
        "NODE Near [:Person] { >= 1 :knows/:knows . true };\n")
    g = build_graph(nodes, ends, ends, labelings)
    g2, s2, root, (t1, _, _) = normalize_instance(g, shapes)
    assert len(t1.fresh_edges) > 3000
    built.clear()
    result = find_faithful_assignment(g2, s2)
    assert result.witness[root] is TRUE
    fresh = {label for _, label in t1.path_labels}
    assert len(fresh) == 3 and not fresh & {label for label, _ in built}, built
    assert {d for _, d in built} == {OUTGOING}


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
    # Path evaluations, the label checks of the chain and the literals the
    # fixed point reads must grow with the nodes, not with nodes times targets.
    work = {}

    def counted(name, real, size):
        def call(*args):
            work[name] += size(*args)
            return real(*args)
        return call

    class Checked(dict):
        def __contains__(self, x):
            work["checks"] += 1
            return super().__contains__(x)

    def chain(c):
        chain, plain, stepping = real_chain(c)
        return chain, plain, Checked(stepping)

    real_chain = semantics._chain
    monkeypatch.setattr(semantics, "_chain", chain)
    monkeypatch.setattr(semantics, "_reach", counted("paths", semantics._reach,
                                                     lambda *a: 1))
    monkeypatch.setattr(semantics, "_gate_value", counted("reads", semantics._gate_value,
                                                          lambda gate, _: len(gate[1])))
    for n in (100, 200, 400):
        people = [f"p{i}" for i in range(n)]
        g = build_graph(people, labelings={x: ["Person"] for x in people})
        shapes = link_shapes([Shape("t", NODE, HasLabel("Person"), TargetLabel("Person"))])
        g2, s2, root, _ = normalize_instance(g, shapes)
        work.update(paths=0, checks=0, reads=0)
        ground = GroundInstance(g2, s2)
        values = ground.least_fixed_point()
        assert values[ground.atoms.index(root)] is TRUE
        # The fresh node reads each of its n conjuncts' paths once.
        assert 0 < work["paths"] <= n and work["reads"] <= 4 * n, (n, work)
        assert work["checks"] <= 2 * n, (n, work)
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
    sugared = link_shapes([Shape("s", NODE, AtMostPath(1, EdgeLabel("a"), Top()), Nothing())])
    compound = link_shapes([
        Shape("s", NODE, HasLabel("A"), TargetOr(TargetLabel("A"), TargetLabel("B"))),
    ])
    assert not is_normalized(sugared) and not is_normalized(compound)


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
