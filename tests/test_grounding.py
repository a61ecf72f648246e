"""The grounded instance: its fixed point against the reference oracle, and
metamorphic checks far above the oracle's 12-atom cap."""

import dataclasses
import json
import random

import pytest

import oracle
from pgshapes import cli
from pgshapes import shapes as S
from pgshapes.errors import BudgetExceeded, DomainMismatch
from pgshapes.fixtures import office_graph
from pgshapes.graph import EDGE, NODE, build_graph
from pgshapes.jsonio import export_graph_json
from pgshapes.parser import parse_shapes
from pgshapes.semantics import (
    FALSE,
    TRUE,
    UNKNOWN,
    Assignment,
    Atom,
    GroundInstance,
    is_strictly_faithful,
    least_fixed_point,
    sorted_atoms,
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
    for x in no_person:
        assert deps[ground.index[Atom("sA", x, NODE)]] == ()


def test_grounding_rejects_references_outside_the_atom_set():
    # An unlinked set may name a shape that does not exist; the reference is
    # grounded even beside a false operand, as the evaluator reads both.
    g = office_graph()
    bad = ShapeSet([
        Shape("s", NODE, S.And(S.Not(S.Top()), S.ShapeRef("missing")), S.Nothing()),
    ])
    with pytest.raises(DomainMismatch):
        GroundInstance(g, bad)


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
        if not 100 <= len(sorted_atoms(g, shapes)) <= 300:
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
        if not 100 <= len(sorted_atoms(g, shapes)) <= 300:
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
        if not 100 <= len(sorted_atoms(g, shapes)) <= 300:
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

    def lit(shape, x):
        return 2 * ground.index[Atom(shape, x, NODE)]

    def equation(shape, x):
        return ground.gates[ground.index[Atom(shape, x, NODE)]]

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
