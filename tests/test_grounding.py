"""The grounded instance: its fixed point against the reference oracle, and
metamorphic checks far above the oracle's 12-atom cap."""

import contextlib
import dataclasses
import datetime
import hashlib
import io
import json
import random
import re
from itertools import product

import pytest

import office
import oracle
from pgshapes import cli, semantics
from pgshapes import shapes as S
from pgshapes.errors import BudgetExceeded, DomainMismatch
from pgshapes.graph import EDGE, NODE, build_graph
from pgshapes.jsonio import export_graph_json
from pgshapes.parser import parse_shapes
from pgshapes.printer import render_shapes
from pgshapes.semantics import (
    FALSE,
    TRUE,
    UNKNOWN,
    Assignment,
    Atom,
    GroundInstance,
    atoms,
    eval_node_constraint,
    is_strictly_faithful,
    least_fixed_point,
)
from pgshapes.shapes import Shape, ShapeSet, link_shapes
from pgshapes.solver import (
    SolverConfig,
    brute_force_conformance,
    enumerate_faithful_assignments,
    find_faithful_assignment,
)
from pgshapes.sugar import desugar_shapes
from pgshapes.transforms import normalize_instance

from office import office_graph
from oracle import FROM_TV, HALF, ONE, ref_eval, ref_targets, sigma_from_assignment
from randgen import NODE_LABELS, gen_constraint, gen_graph, gen_shapes

BUDGET = SolverConfig(max_branches=5_000)
ORACLE_PATH_NODES = oracle.path_nodes


def large_instance(rng, nodes=30, edges=60, shapes=5, sugar=False):
    """A random instance of up to a few hundred atoms."""
    g = gen_graph(rng, max_nodes=nodes, max_edges=edges)
    return g, link_shapes(gen_shapes(rng, g, max_shapes=shapes, sugar=sugar))


def recursive_instance(rng, nodes=40, edges=80, sugar=False):
    """Up to 280 atoms, many left open by the fixed point: a and b
    negate each other where c holds, the targeted t needs one of them, and
    three random shapes read them all (and are sometimes targeted)."""
    g = gen_graph(rng, max_nodes=nodes, max_edges=edges)
    names = ("a", "b", "c", "s0", "s1", "s2", "t")

    def random_constraint():
        return gen_constraint(rng, NODE, 2, names, (), g.nodes, sugar)

    def random_target():
        return S.TargetLabel(rng.choice(NODE_LABELS)) if rng.random() < 0.3 else S.Nothing()

    built = [
        Shape("a", NODE, S.Not(S.ShapeRef("b")), S.Nothing()),
        Shape("b", NODE, S.And(S.Not(S.ShapeRef("a")), S.ShapeRef("c")), S.Nothing()),
        Shape("c", NODE, gen_constraint(rng, NODE, 2, (), (), g.nodes, sugar),
              S.Nothing()),
        *(Shape(f"s{i}", NODE, random_constraint(), random_target()) for i in range(3)),
        Shape("t", NODE, S.Not(S.And(S.Not(S.ShapeRef("a")), S.Not(S.ShapeRef("b")))),
              S.TargetLabel(rng.choice(NODE_LABELS))),
    ]
    return g, link_shapes(built)


def memoize_oracle_paths(g, monkeypatch):
    """Memoize the oracle's path sets on g per (node, path), so that large
    graphs stay affordable."""
    memo = {}

    def path_nodes(_g, n, p):
        if (n, p) not in memo:
            memo[(n, p)] = ORACLE_PATH_NODES(g, n, p)
        return memo[(n, p)]

    monkeypatch.setattr(oracle, "path_nodes", path_nodes)


def jacobi_reference(g, shapes, monkeypatch):
    """The oracle's equations iterated in full sweeps from all-1/2."""
    memoize_oracle_paths(g, monkeypatch)
    keys = [
        (sh, x) for sh in shapes for x in (g.nodes if sh.kind == NODE else g.edges)
    ]
    sigma = {(sh.name, x): HALF for sh, x in keys}
    for _ in range(len(keys) + 1):
        updated = {
            (sh.name, x): ref_eval(g, sigma, x, sh.constraint, sh.kind)
            for sh, x in keys
        }
        if updated == sigma:
            break
        sigma = updated
    return sigma


# ---------------------------------------------------------------------------
# The worklist fixed point against the oracle


@pytest.mark.parametrize(
    "generate, rounds, nodes, edges",
    [
        (large_instance, 60, 4, 6),
        (large_instance, 20, 40, 90),
        (recursive_instance, 10, 40, 90),
    ],
    ids=["small", "large", "recursive"],
)
def test_worklist_fixed_point_matches_oracle_sweeps(
    generate, rounds, nodes, edges, monkeypatch
):
    rng = random.Random(7301 + rounds + nodes)
    sizes = []
    for _ in range(rounds):
        g, sugared = generate(rng, nodes=nodes, edges=edges, sugar=True)
        lfp = least_fixed_point(g, desugar_shapes(sugared))
        sizes.append(len(lfp))
        expected = jacobi_reference(g, list(sugared), monkeypatch)
        assert sigma_from_assignment(lfp) == expected
    if nodes > 12:
        assert sum(n >= 100 for n in sizes) >= 5


def test_fixed_point_decides_a_long_chain():
    # Full sweeps would decide one atom of this 400-node next chain each.
    n = 400
    ids = [f"n{i:03d}" for i in range(n)]
    g = build_graph(
        ids, [f"e{i:03d}" for i in range(n - 1)],
        endpoints={f"e{i:03d}": (ids[i], ids[i + 1]) for i in range(n - 1)},
        labelings={f"e{i:03d}": ["next"] for i in range(n - 1)} | {ids[-1]: ["Seed"]},
    )
    chain = Shape(
        "Chain", NODE,
        S.Not(S.And(S.Not(S.HasLabel("Seed")),
                    S.Not(S.QualPath(1, S.EdgeLabel("next"), S.ShapeRef("Chain"))))),
        S.Nothing(),
    )
    lfp = least_fixed_point(g, link_shapes([chain]))
    assert all(v.word == "yes" for v in lfp.values())


# ---------------------------------------------------------------------------
# Grounding

def grounded_reads(ground):
    """Per atom id, the sorted atom ids its equation reads through the
    shared gates of the circuit."""
    atoms = len(ground.atoms)
    out = []
    for i in range(atoms):
        reads, seen, todo = set(), set(), [i]
        while todo:
            for lit in ground.gates[todo.pop()][1]:
                v = lit >> 1
                if v < atoms:
                    reads.add(v)
                elif v not in seen:
                    seen.add(v)
                    todo.append(v)
        out.append(tuple(sorted(reads)))
    return out


def assert_every_gate_is_read(ground):
    """Every variable after the atoms is read by some gate."""
    atoms = len(ground.atoms)
    unread = [v for v in range(atoms, len(ground.gates)) if not ground.readers[v]]
    assert not unread, f"{len(unread)} of {len(ground.gates)} variables have no reader"


def test_grounding_folds_reference_free_subterms():
    g = office_graph()
    shapes = link_shapes([
        Shape("sA", NODE, S.And(S.HasLabel("Person"), S.ShapeRef("sB")), S.Nothing()),
        Shape("sB", NODE, S.QualPath(1, S.EdgeLabel("worksFor"), S.Top()), S.Nothing()),
    ])
    ground = GroundInstance(g, shapes)
    deps = grounded_reads(ground)
    for atom, ds, eq in zip(ground.atoms, deps, ground.gates):
        if atom.shape == "sB":
            assert not ds and eq in ((0, ()), (1, ()))  # a constant
    # Where the label is missing the conjunction folds to no and reads nothing.
    no_person = [x for x in g.nodes if "Person" not in g.labels_of(x)]
    index = {atom: i for i, atom in enumerate(ground.atoms)}
    for x in no_person:
        assert deps[index[Atom("sA", x, NODE)]] == ()


def test_a_chain_builds_no_label_table_it_does_not_read():
    # 60 nodes and 19 edges: two step labels times 60 nodes pass the edge
    # count, so the conjunction reads each node's own edges.  It is grounded
    # only at the nodes 59 reaches over c, which have no a or b edge, so no
    # path of it is read and neither label's table is built.
    nodes = [str(i) for i in range(60)]
    ends = {f"e{i}": (str(i), str(i + 1)) for i in range(10)}
    labels = {e: ["ab"[i % 2]] for i, e in enumerate(ends)}
    for i in range(50, 59):
        ends[f"c{i}"], labels[f"c{i}"] = ("59", str(i)), ["c"]
    g = build_graph(nodes, list(ends), ends, labels)
    shapes = parse_shapes("NODE s [] { >= 1 :c . (>= 1 :a . true & >= 1 :b . true) };\n")
    assert GroundInstance(g, shapes).least_fixed_point() == [FALSE] * 60
    assert set(g._label_adj) == {None, "c"}


def test_grounding_rejects_references_outside_the_atom_set():
    # An unlinked set may name a shape that does not exist; the reference is
    # grounded even beside a false operand, as the evaluator reads both.
    g = office_graph()
    bad = ShapeSet([
        Shape("s", NODE, S.And(S.Not(S.Top()), S.ShapeRef("missing")), S.Nothing()),
    ])
    with pytest.raises(DomainMismatch):
        GroundInstance(g, bad)


MISSING = S.ShapeRef("missing")


@pytest.mark.parametrize("constraint, at_a, at_b", [
    # Beside a false operand: every operand is grounded.
    (S.And(S.Not(S.Top()), MISSING), "missing(a)", "missing(b)"),
    # A path that reaches nothing grounds no operand.
    (S.QualPath(1, S.EdgeLabel("zz"), MISSING), None, None),
    # At a the count reaches b; b has no :k edge, so its chain is no
    # without grounding the count.
    (S.And(S.QualPath(1, S.EdgeLabel("k"), MISSING), S.HasLabel("P")), "missing(b)", None),
    # At b the chain is no, but its other operand is still grounded.
    (S.And(S.QualPath(1, S.EdgeLabel("k"), S.Top()), MISSING), "missing(a)", "missing(b)"),
], ids=["beside_false", "reaches_nothing", "count_then_label", "count_then_reference"])
def test_a_reference_outside_the_atom_set_raises_where_it_is_grounded(constraint, at_a, at_b):
    g = build_graph(["a", "b"], ["e"], endpoints={"e": ("a", "b")}, labelings={"e": ["k"]})
    shapes = ShapeSet([Shape("s", NODE, constraint, S.Nothing())])
    sigma = {Atom("s", x, NODE): UNKNOWN for x in g.nodes}
    # Nodes ground in id order, so the instance raises at a first if at all.
    first = at_a or at_b
    for x, named in (("a", at_a), ("b", at_b)):
        if named is None:
            assert eval_node_constraint(g, sigma, x, constraint) is FALSE
        else:
            with pytest.raises(DomainMismatch, match=rf"no value for {re.escape(named)}$"):
                eval_node_constraint(g, sigma, x, constraint)
    if first is None:
        assert [v.word for v in least_fixed_point(g, shapes).values()] == ["no", "no"]
    else:
        with pytest.raises(DomainMismatch, match=rf"no value for {re.escape(first)}$"):
            GroundInstance(g, shapes)


def test_a_reference_to_a_shape_of_the_other_kind_raises():
    g = build_graph(["a", "b"], ["e"], endpoints={"e": ("a", "b")}, labelings={"e": ["k"]})
    shapes = ShapeSet([
        Shape("n", NODE, S.QualOutgoing(1, S.ShapeRef("n")), S.Nothing()),
        Shape("t", EDGE, S.Top(), S.Nothing()),
    ])
    with pytest.raises(DomainMismatch, match=r"no value for n\(e\)$"):
        GroundInstance(g, shapes)
    crossed = ShapeSet([Shape("n", NODE, S.ShapeRef("t"), S.Nothing()),
                        Shape("t", EDGE, S.Top(), S.Nothing())])
    with pytest.raises(DomainMismatch, match=r"no value for t\(a\)$"):
        GroundInstance(g, crossed)


@pytest.mark.parametrize("seed", [7317, 7327])
def test_a_run_builds_atoms_only_for_its_violated_targets(seed, monkeypatch, tmp_path):
    # Grounding, the fixed point, the search and the printed witness work by
    # atom id.  Seed 7317 violates one target and 7327 conforms.
    g, shapes = large_instance(random.Random(seed))
    graph, progs = tmp_path / "g.json", tmp_path / "s.progs"
    graph.write_bytes(export_graph_json(g))
    progs.write_text(render_shapes(shapes), encoding="utf-8")
    built = []
    init = Atom.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Atom, "__init__", counting)
    ground = GroundInstance(g, shapes)
    least_fixed_point(g, shapes)
    assert built == []
    report = find_faithful_assignment(g, shapes)
    violated = len(report.violated_targets)
    assert (report.conforms, len(built)) == (seed == 7327, violated)
    for flags in ([], ["--explain"], ["--json"]):
        del built[:]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["validate", str(graph), str(progs), *flags])
        assert (code, len(built)) == (1 - report.conforms, violated)
        if report.conforms and not flags:
            assert len(out.getvalue().splitlines()) == 1 + ground.atom_count


def test_every_shared_gate_has_a_reader():
    # Grounding leaves unread the gates an atom takes over and the gates
    # inlined into their first reader; the instance keeps only what is read.
    rng = random.Random(7314)
    for round_ in range(20):
        g, sugared = recursive_instance(rng, sugar=round_ % 2 == 1)
        assert_every_gate_is_read(GroundInstance(g, desugar_shapes(sugared)))


def test_grounded_equations_agree_with_the_oracle(monkeypatch):
    rng = random.Random(7303)
    for _ in range(20):
        g, shapes = large_instance(rng)
        memoize_oracle_paths(g, monkeypatch)
        ground = GroundInstance(g, shapes)
        assert ground.atoms == tuple(
            Atom(sh.name, x, sh.kind)
            for sh in sorted(shapes, key=lambda sh: sh.name)
            for x in sorted(g.nodes if sh.kind == NODE else g.edges)
        )
        targets = {
            Atom(sh.name, x, sh.kind) for sh in shapes for x in ref_targets(g, sh)
        }
        assert {ground.atoms[i] for i in ground.targets} == targets
        values = [rng.choice((FALSE, UNKNOWN, TRUE)) for _ in ground.atoms]
        sigma = {(a.shape, a.element): FROM_TV[v] for a, v in zip(ground.atoms, values)}
        faithful = True
        evaluated = ground.evaluate(values)
        for i, atom in enumerate(ground.atoms):
            sh = shapes.get(atom.shape)
            want = ref_eval(g, sigma, atom.element, sh.constraint, sh.kind)
            assert FROM_TV[evaluated[i]] == want
            faithful = faithful and want == sigma[(atom.shape, atom.element)]
        faithful = faithful and all(sigma[(a.shape, a.element)] == ONE for a in targets)
        assert ground.holds(values) == faithful


# ---------------------------------------------------------------------------
# Metamorphic checks above the oracle's cap


def rename_tree(node, shape_name, element):
    """Rename shape references and element ids inside a constraint or target."""
    if isinstance(node, S.ShapeRef):
        return S.ShapeRef(shape_name(node.name))
    if isinstance(node, (S.Exact, S.TargetExact)):
        return dataclasses.replace(node, element=element(node.element))
    changes = {
        f.name: rename_tree(getattr(node, f.name), shape_name, element)
        for f in dataclasses.fields(node)
        if isinstance(getattr(node, f.name), (S.Constraint, S.Target))
    }
    return dataclasses.replace(node, **changes)


def rebuild(g, element=str, shuffle=None, extra=False):
    """The graph with ids renamed, input order shuffled, or an isolated
    unlabelled pair of nodes and an edge between them added."""
    nodes, edges = list(g.nodes), list(g.edges)
    if shuffle:
        shuffle(nodes)
        shuffle(edges)
    endpoints = {
        element(e): tuple(element(x) for x in g.endpoints(e)) for e in edges
    }
    labelings = {element(x): sorted(g.labels_of(x)) for x in nodes + edges}
    properties = {
        (element(x), k): sorted(g.property_values(x, k), key=repr)
        for x in nodes + edges for k in g.property_keys(x)
    }
    nodes, edges = [element(n) for n in nodes], [element(e) for e in edges]
    if extra:
        nodes += ["zz0", "zz1"]
        edges.append("zz2")
        endpoints["zz2"] = ("zz0", "zz1")
    return build_graph(nodes, edges, endpoints=endpoints, labelings=labelings,
                       properties=properties)


def decided(g, shapes):
    try:
        return find_faithful_assignment(g, shapes, BUDGET)
    except BudgetExceeded:
        return None


def metamorphic_cases(seed, rounds):
    rng = random.Random(seed)
    checked = 0
    for _ in range(rounds):
        g, shapes = recursive_instance(rng)
        report = decided(g, shapes)
        if report is None:
            continue
        checked += 1
        yield rng, g, shapes, report
    assert checked >= rounds // 2


def test_renaming_keeps_verdict_and_renamed_witness():
    # Prefixes keep the canonical order, so the first witness maps across.
    def shape_name(name):
        return "q" + name

    def element(x):
        return "x" + x

    for _rng, g, shapes, report in metamorphic_cases(7311, 16):
        renamed = link_shapes([
            Shape(shape_name(sh.name), sh.kind,
                  rename_tree(sh.constraint, shape_name, element),
                  rename_tree(sh.target, shape_name, element))
            for sh in shapes
        ])
        other = find_faithful_assignment(rebuild(g, element=element), renamed)
        assert other.conforms == report.conforms
        if report.conforms:
            assert dict(other.witness) == {
                Atom(shape_name(a.shape), element(a.element), a.kind): v
                for a, v in report.witness.items()
            }
        else:
            assert other.violated_targets == tuple(
                Atom(shape_name(a.shape), element(a.element), a.kind)
                for a in report.violated_targets
            )


def test_shuffled_input_keeps_verdict_and_witness():
    for rng, g, shapes, report in metamorphic_cases(7312, 16):
        listed = list(shapes)
        rng.shuffle(listed)
        other = find_faithful_assignment(rebuild(g, shuffle=rng.shuffle),
                                         link_shapes(listed))
        assert other.conforms == report.conforms
        assert other.witness == report.witness
        assert other.violated_targets == report.violated_targets


def test_unreferenced_additions_keep_verdict_and_witness():
    # An untargeted shape that sorts last, and elements no path reaches, add
    # atoms whose equations always have a solution and never feed back.
    for rng, g, shapes, report in metamorphic_cases(7313, 16):
        names = tuple(sh.name for sh in shapes if sh.kind == NODE)
        extra = Shape(
            "zz", NODE,
            gen_constraint(rng, NODE, 3, names + ("zz",), (), g.nodes, False),
            S.Nothing(),
        )
        for g2, shapes2 in (
            (g, link_shapes([*shapes, extra])),
            (rebuild(g, extra=True), shapes),
        ):
            other = find_faithful_assignment(g2, shapes2)
            assert other.conforms == report.conforms
            if report.conforms:
                assert is_strictly_faithful(g2, shapes2, other.witness).ok
                assert {a: other.witness[a] for a in report.witness} == dict(
                    report.witness
                )
            else:
                assert other.violated_targets == report.violated_targets


def test_normalizing_keeps_the_verdict_far_above_the_oracle_cap():
    # Pairs where either side exhausts the budget decide nothing; they are
    # counted, not dropped silently, and enough pairs must still decide.
    rng = random.Random(7314)
    deep_budget = dataclasses.replace(BUDGET, atom_order="dependency")
    verdicts = []
    exhausted = 0
    for round_ in range(40):
        g, sugared = recursive_instance(rng, sugar=round_ % 2 == 1)
        shapes = desugar_shapes(sugared)
        if not 100 <= len(atoms(g, shapes)) <= 300:
            continue
        report = decided(g, shapes)
        g2, shapes2, root, _ = normalize_instance(g, sugared)
        try:
            normalized = find_faithful_assignment(g2, shapes2, deep_budget)
        except BudgetExceeded:
            normalized = None
        if report is None or normalized is None:
            exhausted += 1
            continue
        assert normalized.conforms == report.conforms
        if normalized.conforms:
            assert normalized.witness[root] is TRUE
        verdicts.append(report.conforms)
    assert len(verdicts) >= 20, f"{len(verdicts)} decided, {exhausted} exhausted"
    assert set(verdicts) == {True, False}


def oracle_first_failure(g, shapes, assignment):
    """(ok, failed_condition, atom) by the oracle: node equations, edge
    equations, node targets, edge targets, each over the atoms in canonical
    order, the first failure named."""
    sigma = sigma_from_assignment(assignment)
    ordered = sorted(assignment, key=lambda a: (a.shape, a.element))
    targeted = {sh.name: ref_targets(g, sh) for sh in shapes}
    for cond, kind in ((1, NODE), (2, EDGE)):
        for a in ordered:
            sh = shapes.get(a.shape)
            if a.kind == kind and ref_eval(
                g, sigma, a.element, sh.constraint, kind
            ) != sigma[(a.shape, a.element)]:
                return False, cond, a
    for cond, kind in ((3, NODE), (4, EDGE)):
        for a in ordered:
            if (a.kind == kind and a.element in targeted[a.shape]
                    and sigma[(a.shape, a.element)] != ONE):
                return False, cond, a
    return True, None, None


def test_faithfulness_verdict_order_far_above_the_oracle_cap(monkeypatch):
    # Wholly random assignments fail early in the scan.  So most start from
    # the least fixed point, its unknowns filled at random, and have up to
    # two atoms set at random: failures then fall on every condition and
    # deep into the scan, and some assignments are faithful.
    rng = random.Random(7316)
    failed = []
    for _ in range(150):
        g, shapes = large_instance(rng, shapes=6)
        if not 100 <= len(atoms(g, shapes)) <= 300:
            continue
        memoize_oracle_paths(g, monkeypatch)
        lfp = least_fixed_point(g, shapes)
        mode = rng.randrange(4)
        values = {
            a: rng.choice((FALSE, UNKNOWN, TRUE)) if mode == 3 or v is UNKNOWN else v
            for a, v in lfp.items()
        }
        for a in rng.sample(sorted(values, key=Atom.sort_key), mode % 3):
            values[a] = rng.choice((FALSE, UNKNOWN, TRUE))
        verdict = is_strictly_faithful(g, shapes, Assignment(values))
        got = (verdict.ok, verdict.failed_condition, verdict.atom)
        assert got == oracle_first_failure(g, shapes, values)
        failed.append(verdict.failed_condition)
    assert len(failed) >= 20
    assert set(failed) == {None, 1, 2, 3, 4}


def test_propagating_search_far_above_the_oracle_cap():
    # Recursive instances of 100-300 atoms, many left open by the fixed
    # point: every witness is faithful and is enumeration's first, and every
    # refutation names targets the fixed point leaves below yes.
    rng = random.Random(7315)
    verdicts = []
    for _ in range(80):
        g, shapes = recursive_instance(rng)
        if not 100 <= len(atoms(g, shapes)) <= 300:
            continue
        report = decided(g, shapes)
        if report is None:
            continue
        if report.conforms:
            assert is_strictly_faithful(g, shapes, report.witness).ok
            assert enumerate_faithful_assignments(
                g, shapes, limit=1, config=BUDGET
            ) == [report.witness]
        else:
            assert report.violated_targets
            assert all(
                report.fixed_point[a] is not TRUE for a in report.violated_targets
            )
        verdicts.append(report.conforms)
    assert len(verdicts) >= 30
    assert set(verdicts) == {True, False}


# ---------------------------------------------------------------------------
# Nested exact counts: `= 1 p . c` reads c twice, and grounding shares it


def knows_graph(n, successors, labels=()):
    """Nodes "0" .. n - 1, each knowing the nodes successors(i) lists and
    carrying `labels`."""
    pairs = [(str(i), str(j)) for i in range(n) for j in successors(i)]
    ids = [f"e{i}" for i in range(len(pairs))]
    return build_graph(
        [str(i) for i in range(n)], ids,
        endpoints=dict(zip(ids, pairs)),
        labelings={
            **{e: ["knows"] for e in ids}, **{str(i): list(labels) for i in range(n)}
        },
    )


def nested_text(k, target="[]"):
    """k nested `= 1 :knows .` around r, which negates u, which negates r."""
    return (
        f"NODE s {target} {{ {'= 1 :knows . ' * k}r }};\n"
        "NODE r [] { ! u };\nNODE u [] { ! r };\n"
    )


def nested_counts(k, target="[]"):
    return parse_shapes(nested_text(k, target))


RING = knows_graph(6, lambda i: ((i + 1) % 6, (i + 2) % 6))


def test_nested_exact_counts_ground_to_a_linear_circuit():
    grounds = {k: GroundInstance(RING, nested_counts(k)) for k in (10, 20, 40)}
    sizes = {k: len(ground.gates) for k, ground in grounds.items()}
    assert sizes[40] - sizes[20] == 2 * (sizes[20] - sizes[10]) > 0
    for ground in grounds.values():  # the shared gates stay, each read
        assert_every_gate_is_read(ground)


@pytest.mark.parametrize("target", ["[id 0]", "[:P]"])
@pytest.mark.parametrize("k", range(1, 7))
def test_nested_exact_counts_match_brute_force_and_the_oracle(k, target):
    # 3 nodes, each knowing the other two: 9 atoms.  Targeting every node
    # asks each for exactly one of two successors, which no assignment gives.
    g = knows_graph(3, lambda i: [j for j in range(3) if j != i], labels=["P"])
    shapes = nested_counts(k, target)
    report = find_faithful_assignment(g, shapes)
    brute = brute_force_conformance(g, shapes)
    assert (report.conforms, report.witness) == (brute.conforms, brute.witness)
    assert report.conforms == (target == "[id 0]")
    for sigma in filter(None, (report.witness, report.fixed_point)):
        ref_sigma = sigma_from_assignment(sigma)
        for atom, value in sigma.items():
            sh = shapes.get(atom.shape)
            want = ref_eval(g, ref_sigma, atom.element, sh.constraint, sh.kind)
            assert want == FROM_TV[value]


def test_validate_thirty_nested_exact_counts(tmp_path, capsys):
    graph, progs = tmp_path / "ring.json", tmp_path / "nested.progs"
    graph.write_bytes(export_graph_json(RING))
    progs.write_text(nested_text(30, "[id 0]"))
    code = cli.main(["validate", "--json", str(graph), str(progs)])
    assert code in (0, 1)
    if code == 0:
        words = {"yes": TRUE, "no": FALSE, "maybe": UNKNOWN}
        witness = Assignment({
            Atom(a["shape"], a["element"], a["kind"]): words[a["value"]]
            for a in json.loads(capsys.readouterr().out)["witness"]
        })
        assert is_strictly_faithful(RING, nested_counts(30, "[id 0]"), witness).ok


def test_a_gate_inlined_into_one_reader_stays_for_the_next():
    # Nodes 0 and 1 both know 2 and 3.  a(0) and a(1) take over their own
    # gates, which come first and go.  At 2 and 3, `r | u` is a gate that
    # s(0) inlines and s(1) reads, so it stays, renumbered past the dropped.
    g = knows_graph(4, lambda i: (2, 3) if i < 2 else ())
    shapes = parse_shapes(
        "NODE a [] { >= 1 :knows . (r & u) };\nNODE s [] { >= 1 :knows . (r | u) };\n"
        "NODE r [] { ! u };\nNODE u [] { ! r };\n"
    )
    ground = GroundInstance(g, shapes)
    assert_every_gate_is_read(ground)
    atoms = len(ground.atoms)
    assert len(ground.gates) == atoms + 4  # r & u and r | u, at 2 and 3
    index = {atom: i for i, atom in enumerate(ground.atoms)}

    def lit(shape, x):
        return 2 * index[Atom(shape, x, NODE)]

    def equation(shape, x):
        return ground.gates[index[Atom(shape, x, NODE)]]

    assert equation("s", "0") == (1, tuple(lit(a, x) for x in "23" for a in "ru"))
    k, lits = equation("s", "1")
    assert k == 1 and all(v & 1 and v >> 1 >= atoms for v in lits)
    assert [ground.gates[v >> 1] for v in lits] == [
        (2, (lit("r", x) | 1, lit("u", x) | 1)) for x in "23"
    ]
    for value in (TRUE, FALSE):
        sigma = Assignment({atom: value for atom in ground.atoms})
        ref_sigma = sigma_from_assignment(sigma)
        for atom, got in zip(ground.atoms, ground.evaluate([value] * atoms)):
            sh = shapes.get(atom.shape)
            want = ref_eval(g, ref_sigma, atom.element, sh.constraint, sh.kind)
            assert FROM_TV[got] == want


@pytest.mark.parametrize("case", ["dead_tail", "dead_below_live"])
def test_dead_gates_go_and_every_equation_stays(case, monkeypatch):
    # Each t(x) of the wide shapes takes over its `r | u` gate, the last
    # gates grounded, so the dead gates are a tail and are cut off without
    # renumbering.  On one node, a takes over `r & s`, which s still reads:
    # a dead gate below a live one, so the live one is renumbered.
    if case == "dead_tail":
        g = build_graph(["p0", "p1"], labelings={"p0": ["Person"], "p1": ["Person"]})
        shapes = parse_shapes(
            "NODE r [] { ! u };\nNODE u [] { ! r };\nNODE t [:Person] { r | u };\n")
    else:
        g = build_graph(["x"])
        shapes = parse_shapes(
            "NODE a [] { r & s };\nNODE s [] { a | (r & s) };\nNODE r [] { ! s };\n")
    renumbered = []
    accumulate = semantics.accumulate
    monkeypatch.setattr(semantics, "accumulate",
                        lambda live: renumbered.append(live) or accumulate(live))
    ground = GroundInstance(g, shapes)
    atoms = ground.atom_count
    assert bool(renumbered) == (case == "dead_below_live")
    assert len(ground.gates) == atoms + (case == "dead_below_live")
    for v, (_, lits) in enumerate(ground.gates):
        assert all(lit >> 1 < (len(ground.gates) if v < atoms else v) for lit in lits)
    assert_every_gate_is_read(ground)
    # Every total assignment through the oracle: holds() is faithfulness,
    # and the fixed point is a solution of the equations below every other.
    lfp = tuple(ground.least_fixed_point()[:atoms])
    keys = [(a.shape, a.element) for a in ground.atoms]
    targets = [(sh.name, x) for sh in shapes for x in ref_targets(g, sh)]
    solutions = []
    for values in product((TRUE, FALSE, UNKNOWN), repeat=atoms):
        sigma = dict(zip(keys, map(FROM_TV.get, values)))
        solves = all(
            ref_eval(g, sigma, a.element, shapes.get(a.shape).constraint, a.kind) == sigma[key]
            for a, key in zip(ground.atoms, keys)
        )
        assert ground.holds(list(values)) == (solves and all(sigma[t] == ONE for t in targets))
        if solves:
            solutions.append(values)
            assert all(low is UNKNOWN or low is v for low, v in zip(lfp, values))
    assert lfp in solutions and len(solutions) > 1


def test_atom_ids_outside_the_atoms_raise():
    g = build_graph(["a", "b"], labelings={"a": ["P"]})
    ground = GroundInstance(g, parse_shapes("NODE s [:P] { true };\nNODE t [] { s };\n"))
    assert [ground.atom(i) for i in range(4)] == list(ground.atoms)
    for i in (-1, -4, -5, 4):
        with pytest.raises(IndexError):
            ground.atom(i)


# ---------------------------------------------------------------------------
# Golden circuits: sha256 of repr((atoms, targets, gates)) for fixed
# instances, taken from the grounding these were written against.  A change
# to how atoms or gates are built must keep every one of them.


def ground_digest(g, shapes) -> str:
    ground = GroundInstance(g, shapes)
    text = repr((ground.atoms, ground.targets, ground.gates))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN_FIXTURES = {  # office shape set over office_graph(): digest
    "person_label": (
        lambda: [office.person_label_shape()],
        "963ffe58e3a85f0eda4e93fa418d372cab285a049935083633a64075ebdf053a"),
    "colleague": (
        lambda: [office.employee_colleague_shape()],
        "e67f0578c6ac45b06274fc70d58f5ed09648e34061fd5fb80e3d6318880385b1"),
    "colleague_untargeted": (
        lambda: [office.employee_colleague_shape(False)],
        "e590ca5d23876b4e2ba5341fd442b76d5588e1d9359cb0d03a3a1c82f9749098"),
    "role_pair": (
        office.role_pair_shapes,
        "3612b0f76777d1cbf1f6d9bee1bf7be660444891193c484745e37b6cddd2b5f1"),
    "works_since": (
        lambda: [office.works_since_shape()],
        "d17d08d5ac1320c0d4f9fd9902a93299de57143f5c51c1dbdbc700c52c700ee5"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FIXTURES))
def test_fixture_circuits_are_unchanged(name):
    shapes, digest = GOLDEN_FIXTURES[name]
    assert ground_digest(office_graph(), link_shapes(shapes())) == digest


def golden_instances():
    """Even seeds: a/b negating each other recursively under random shapes;
    odd seeds: random shapes.  Plus two instances with shared gates."""
    for seed in range(20):
        rng = random.Random(seed)
        if seed % 2:
            yield large_instance(rng, nodes=10, edges=20)
        else:
            yield recursive_instance(rng, nodes=10, edges=20)
    yield RING, nested_counts(10)
    yield knows_graph(4, lambda i: (2, 3) if i < 2 else ()), parse_shapes(
        "NODE a [] { >= 1 :knows . (r & u) };\nNODE s [] { >= 1 :knows . (r | u) };\n"
        "NODE r [] { ! u };\nNODE u [] { ! r };\n"
    )


GOLDEN_INSTANCES = (
    "a7306fb69cf72fbda403657519da1794d0d549417d18afb268056f1c20347f30",
    "04757fcf56e5de388803ce760e6da7cc48e648bf8fb43ad82feea896e535ae77",
    "6c98366a2709fc7c12fff9ee39dbb3e5e70b575c1ffaf81db63d815c5ead97e6",
    "e666b9b2a045fd3e0969c41cea22e8d3c2c038aa42cce8ad5c82e98947ad4394",
    "23bc0ca6014cb4c7a0eb9b8ef473ac35996203ed6fdbd62ce41d3e7f979bfc6e",
    "ff4c9107ec2a49903babf8d2bcb2c8152db838d892cf8f2ef7352a9c31293505",
    "5f97978f17d27c574ade7027c3eaea25448579b7198cf725edba28942947c2d2",
    "a2f94d0014c3370101e2d12288f7d5a91a84bda1e408129a0f2afbac45c6cbd0",
    "2f7f228bc8dd8ba6c522b7ec85118738887598b046e5680bc43c9a815f55f3c2",
    "f68477ff7d07b00e579e1d7fe9dfa7853d07e637bee3cdb9e639f3c563d51897",
    "054b9f10ee2e0d4d2fbc8bd792c0ef65e90868c42c0e1c5ce210b9c081b2859c",
    "019b05c2c1537894859070012d2fb8335d4f6de5b74e739082e2b6e4655aca72",
    "bf4fd7cbbc495496422e31c570c4714c79f611b5eec859c4990bcb1e4e7347a0",
    "bff3f42d318b54706f2b808fa1236e61dd8f28228c0a4acda66a07d78af83134",
    "9b40ee80e28d50320f84a14dd3978830746721bb4db4fed4080404ed5d9d2be7",
    "be3db1c5cb4f2b2fa95e128f0b2360d8553c3fc408520d46219b987a04385942",
    "18ceb845afcfa432e9177f9a937d2e199affdc3afd6cb03a123b917cc1bcdfc4",
    "7ad7af3850bcad2444c089f4268f783f1a9b680689143e038630dc6d8d9fee31",
    "bef71d3c5a68a2ccbb2a11ac8d1ee0a933c440eb0fad3e7762ece6438db9db4d",
    "6081f90a177b1b28011970034a0908c8d47f91ea7c3131142cb87d4375e2eebc",
    "d1ee0a0daea74b834ed8dbfe82b043e3cdbf915398cea50c144852686bddc215",
    "23154f6e5557ce922741dae1cb40c827b9534377df180c59a42f5c68b5e4b35a",
)


def test_randgen_circuits_are_unchanged():
    instances = list(golden_instances())
    grounds = [GroundInstance(g, s) for g, s in instances]
    assert sum(len(ground.gates) > len(ground.atoms) for ground in grounds) == 2
    assert tuple(ground_digest(g, s) for g, s in instances) == GOLDEN_INSTANCES


# Golden circuits at the benchmark's sizes, on instances built here: the
# recursive shapes over 60 nodes of next chains, a typed sparse graph of 100
# nodes, and closure and inverse paths over 40 nodes.

RECURSIVE_TEXT = """\
NODE Chain [] { :Seed | >= 1 :next . Chain };
NODE Lost [] { ! Chain & (! >= 1 :next . true | >= 1 :next . Lost) };
NODE Warm [] { >= 1 :knows* . Chain | >= 1 :next . Warm };
NODE Safe [:Person] { Warm | ! Lost | >= 1 :next . Safe };
"""
SPARSE_TEXT = """\
NODE PersonShape [:Person] { >= 1 key name . string & <= 1 :worksFor . :Org };
NODE OrgShape [:Org] { ! :Person & >= 1 key name . string };
EDGE WorksShape [:worksFor] { src :Person & >= 1 key since . date };
"""
CLOSURE_TEXT = """\
NODE Reach [:Member] { >= 2 (:knows || ^:worksFor)+ . :Org };
NODE Circle [:Hub] { >= 3 ^(:knows/:worksFor)* . :Person };
NODE Taste [:Member] { cmp(subseteq, :likes, :knows*) };
"""


def labelled_graph(ids, labelled, edges, properties=None):
    """Nodes `ids`, `labelled` mapping each element to its labels, and
    `edges` a list of (source, label, destination), named e0, e1, ..."""
    names = [f"e{i}" for i in range(len(edges))]
    return build_graph(
        ids, names,
        endpoints={e: (a, b) for e, (a, _, b) in zip(names, edges)},
        labelings={**labelled, **{e: [l] for e, (_, l, _) in zip(names, edges)}},
        properties=properties or {},
    )


def chains_instance():
    """Three 20-node next chains of :Person nodes, the first and the last
    ending at a :Seed node; every node knows one other both ways."""
    rng = random.Random(1701)
    ids = [f"n{i:02d}" for i in range(60)]
    edges = [(ids[i], "next", ids[i + 1]) for i in range(59) if (i + 1) % 20]
    paired = ids[:]
    rng.shuffle(paired)
    for a, b in zip(paired[::2], paired[1::2]):
        edges += [(a, "knows", b), (b, "knows", a)]
    labelled = {x: ["Person"] for x in ids}
    labelled["n19"] = labelled["n59"] = ["Person", "Seed"]
    return labelled_graph(ids, labelled, edges), parse_shapes(RECURSIVE_TEXT)


def sparse_instance():
    """70 people and 30 organisations: most people work for one org, some
    for two or none, some orgs are people too, some names and dates are
    missing or mistyped, and a few worksFor edges leave an org."""
    rng = random.Random(1702)
    people = [f"p{i:02d}" for i in range(70)]
    orgs = [f"o{i:02d}" for i in range(30)]
    labelled = {x: ["Person"] for x in people}
    labelled |= {x: ["Org", "Person"] if i % 10 == 0 else ["Org"] for i, x in enumerate(orgs)}
    properties = {}
    for x in people + orgs:
        if rng.random() < 0.9:
            properties[(x, "name")] = [rng.choice(("Ada", "Bo", "Cy", 7))]
    edges = []
    for x in people + orgs[:3]:
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            edges.append((x, "worksFor", rng.choice(orgs + people[:5])))
    for i in range(len(edges)):
        if rng.random() < 0.85:
            properties[(f"e{i}", "since")] = [datetime.date(2000 + i % 20, 1, 1)]
    return labelled_graph(people + orgs, labelled, edges, properties), parse_shapes(SPARSE_TEXT)


def closure_instance():
    """40 nodes, each knowing two others, working for one and liking one,
    labelled :Member, :Hub, :Org and :Person at random."""
    rng = random.Random(1703)
    ids = [f"c{i:02d}" for i in range(40)]
    edges = []
    for x in ids:
        edges += [(x, "knows", y) for y in rng.sample(ids, 2)]
        edges += [(x, "worksFor", rng.choice(ids)), (x, "likes", rng.choice(ids))]
    labelled = {x: [l for l in ("Member", "Hub", "Org", "Person") if rng.random() < 0.4]
                for x in ids}
    return labelled_graph(ids, labelled, edges), parse_shapes(CLOSURE_TEXT)


GOLDEN_BENCHMARK_SHAPED = {  # name: (instance, atoms, variables, digest)
    "chains": (chains_instance, 240, 240,
               "c957724ddc20bfdfaa340de6bcfed71e67697160dc50f312728ecbc2165552f2"),
    "sparse": (sparse_instance, 275, 275,
               "d1478c7e56da91001aa7accd0d7fef2fcfeef158af5d376d7a5a07b7b24dc407"),
    "closure": (closure_instance, 120, 120,
                "58cf838209b24966cc973944c13753ca123c8c0fb020f3ebaad515585ba0168f"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BENCHMARK_SHAPED))
def test_benchmark_shaped_circuits_are_unchanged(name):
    build, atoms, gates, digest = GOLDEN_BENCHMARK_SHAPED[name]
    g, shapes = build()
    ground = GroundInstance(g, shapes)
    assert (len(ground.atoms), len(ground.gates)) == (atoms, gates)
    assert ground_digest(g, shapes) == digest
