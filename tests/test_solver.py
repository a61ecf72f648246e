"""Conformance search: backtracking engine vs plain enumeration vs oracle."""

import hashlib
import random
from itertools import product
from types import SimpleNamespace

import pytest

from pgshapes import cli
from pgshapes.errors import BudgetExceeded, TooLarge
from pgshapes.graph import EDGE, NODE, build_graph
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
)
from pgshapes.shapes import (
    And,
    HasLabel,
    Nothing,
    QualPath,
    Shape,
    ShapeRef,
    TargetLabel,
    link_shapes,
)
from pgshapes.shapes import EdgeLabel as PathLabel
from pgshapes.solver import (
    VALUE_ORDER,
    SolverConfig,
    SolverStats,
    _Instance,
    _Network,
    brute_force_conformance,
    conforms,
    enumerate_faithful_assignments,
    find_faithful_assignment,
)

from office import (
    employee_colleague_shape,
    office_graph,
    person_label_shape,
    role_pair_shapes,
    works_since_shape,
)
from oracle import ONE, ref_conforms, ref_eval, ref_targets, sigma_from_assignment
from randgen import gen_instance
from test_grounding import grounded_reads, knows_graph, recursive_instance


def all_faithful_by_product(g, shapes):
    """Ground truth: filter the full value product through the oracle, no
    pinning at all."""
    ordered = GroundInstance(g, shapes).atoms
    targets = [(sh.name, x) for sh in shapes for x in ref_targets(g, sh)]
    hits = []
    for combo in product(VALUE_ORDER, repeat=len(ordered)):
        sigma = dict(zip(ordered, combo))
        frac = sigma_from_assignment(sigma)
        if all(
            ref_eval(g, frac, a.element, shapes.get(a.shape).constraint, a.kind)
            == frac[(a.shape, a.element)]
            for a in ordered
        ) and all(frac[key] == ONE for key in targets):
            hits.append(Assignment(sigma))
    return hits


# --- office facts -----------------------------------------------------------


def test_office_person_shape_fails():
    g = office_graph()
    shapes = link_shapes([person_label_shape()])
    report = find_faithful_assignment(g, shapes)
    assert not report.conforms
    assert report.witness is None
    assert Atom("PersonShape", "102", NODE) in report.violated_targets
    # No references anywhere, so the fixed point decides every atom and the
    # refuted target is visible without any branching.
    assert report.stats.branches == 0
    assert brute_force_conformance(g, shapes).conforms is False


def test_office_targeted_colleague_shape_fails():
    g = office_graph()
    shapes = link_shapes([employee_colleague_shape(target=True)])
    report = find_faithful_assignment(g, shapes)
    assert not report.conforms
    assert report.violated_targets == (Atom("s1", "100", NODE),)
    assert report.fixed_point[Atom("s1", "102", NODE)] is TRUE


def test_office_role_pair_conforms():
    g = office_graph()
    shapes = role_pair_shapes()
    report = find_faithful_assignment(g, shapes)
    assert report.conforms
    assert report.witness[Atom("s2", "102", NODE)] is TRUE
    assert is_strictly_faithful(g, shapes, report.witness).ok
    # The reference chain is acyclic, so the equations have one solution.
    assert report.witness == least_fixed_point(g, shapes)
    expected = {
        ("s1", "100"): FALSE,
        ("s1", "101"): FALSE,
        ("s1", "102"): TRUE,
        ("s2", "100"): FALSE,
        ("s2", "101"): FALSE,
        ("s2", "102"): TRUE,
    }
    for (name, x), v in expected.items():
        assert report.witness[Atom(name, x, NODE)] is v
    bf = brute_force_conformance(g, shapes)
    assert bf.conforms and bf.witness == report.witness


def test_office_works_since_fails():
    g = office_graph()
    shapes = link_shapes([works_since_shape()])
    report = find_faithful_assignment(g, shapes)
    assert not report.conforms
    assert set(report.violated_targets) == {
        Atom("s3", "200", EDGE),
        Atom("s3", "203", EDGE),
    }
    assert brute_force_conformance(g, shapes).conforms is False


def test_conforms_shortcut():
    g = office_graph()
    assert conforms(g, role_pair_shapes())
    assert not conforms(g, link_shapes([person_label_shape()]))


# --- degenerate instances ---------------------------------------------------


def test_empty_shape_set_conforms():
    g = office_graph()
    report = find_faithful_assignment(g, link_shapes([]))
    assert report.conforms
    assert report.witness == Assignment({})
    assert enumerate_faithful_assignments(g, link_shapes([])) == [Assignment({})]


def test_untargeted_shape_conforms_with_unique_witness():
    g = office_graph()
    shapes = link_shapes([employee_colleague_shape(target=False)])
    report = find_faithful_assignment(g, shapes)
    assert report.conforms
    # Reference-free equations pin every atom, so there is exactly one
    # solution and it equals the fixed point.
    assert enumerate_faithful_assignments(g, shapes) == [report.witness]
    assert report.witness == least_fixed_point(g, shapes)
    assert report.stats.branches == 0


def test_atoms_equal_to_an_atom_or_its_negation():
    # `a = !b`, `b = c`, `c = !a` and `s = !s` make classes of atoms that
    # are equal or negated; enumeration still lists exactly the faithful
    # assignments, in canonical order.
    g = build_graph(["100", "101"])
    shapes = parse_shapes(
        "NODE a [] { ! b };\n"
        "NODE b [] { c };\n"
        "NODE c [] { ! a };\n"
        "NODE s [] { ! s };\n"
    )
    found = enumerate_faithful_assignments(g, shapes)
    assert len(found) == 9
    assert found == all_faithful_by_product(g, shapes)
    assert all(sigma[Atom("s", x, NODE)] is UNKNOWN for sigma in found for x in g.nodes)


def test_self_reference_enumerates_all_three_values():
    g = build_graph(["100"])
    shapes = link_shapes([Shape("loop", NODE, ShapeRef("loop"), Nothing())])
    found = enumerate_faithful_assignments(g, shapes)
    atom = Atom("loop", "100", NODE)
    assert [a[atom] for a in found] == [TRUE, FALSE, UNKNOWN]
    assert found == all_faithful_by_product(g, shapes)
    first = find_faithful_assignment(g, shapes)
    assert first.conforms and first.witness[atom] is TRUE


def test_negated_self_reference_only_unknown():
    from pgshapes.shapes import Not

    g = build_graph(["100"])
    shapes = link_shapes([Shape("odd", NODE, Not(ShapeRef("odd")), Nothing())])
    found = enumerate_faithful_assignments(g, shapes)
    atom = Atom("odd", "100", NODE)
    assert [a[atom] for a in found] == [UNKNOWN]
    # Targeting the node makes conformance impossible: unknown is not yes.
    targeted = link_shapes(
        [Shape("odd", NODE, Not(ShapeRef("odd")), TargetLabel("T"))]
    )
    g2 = build_graph(["100"], labelings={"100": ["T"]})
    report = find_faithful_assignment(g2, targeted)
    assert not report.conforms
    assert report.violated_targets == (Atom("odd", "100", NODE),)


# --- dependency analysis ----------------------------------------------------


def grounded_dependencies(g, shapes):
    """Atom -> the atoms its grounded equation reads."""
    ground = GroundInstance(g, shapes)
    return {
        a: frozenset(ground.atoms[d] for d in ds)
        for a, ds in zip(ground.atoms, grounded_reads(ground))
    }


def test_atom_dependencies_follow_reachability():
    g = office_graph()
    sA = Shape("sA", NODE, QualPath(1, PathLabel("worksFor"), ShapeRef("sB")),
               Nothing())
    sB = Shape("sB", NODE, HasLabel("Company"), Nothing())
    shapes = link_shapes([sA, sB])
    deps = grounded_dependencies(g, shapes)
    assert deps[Atom("sA", "100", NODE)] == {Atom("sB", "101", NODE)}
    # 101 has no outgoing worksFor edge, so its constraint reads nothing.
    assert deps[Atom("sA", "101", NODE)] == frozenset()
    assert deps[Atom("sB", "100", NODE)] == frozenset()


def test_atom_dependencies_through_edges():
    from pgshapes.shapes import QualOutgoing, Src

    g = office_graph()
    sE = Shape("sE", EDGE, Src(ShapeRef("sN")), Nothing())
    sN = Shape("sN", NODE, QualOutgoing(1, ShapeRef("sE")), Nothing())
    shapes = link_shapes([sE, sN])
    deps = grounded_dependencies(g, shapes)
    assert deps[Atom("sE", "200", EDGE)] == {Atom("sN", "100", NODE)}
    assert deps[Atom("sN", "102", NODE)] == {
        Atom("sE", "202", EDGE),
        Atom("sE", "203", EDGE),
    }


def test_dependency_order_puts_referenced_shapes_first():
    g = office_graph()
    shapes = role_pair_shapes()  # s2 references s1
    config = SolverConfig(atom_order="dependency")
    report = find_faithful_assignment(g, shapes, config)
    assert report.conforms
    assert is_strictly_faithful(g, shapes, report.witness).ok


def test_bad_atom_order_rejected():
    with pytest.raises(ValueError):
        SolverConfig(atom_order="sideways")


@pytest.mark.parametrize("field", ["max_atoms", "max_branches"])
def test_negative_limits_rejected(field):
    with pytest.raises(ValueError):
        SolverConfig(**{field: -1})
    assert getattr(SolverConfig(**{field: 0}), field) == 0


# --- narrowing rules --------------------------------------------------------

INTERVALS = [(low, high) for low in range(3) for high in range(low, 3)]


def at_least_verdict(k, values):
    """The three-valued "at least k of values", over codes 0 < 1 < 2."""
    if values.count(2) >= k:
        return 2
    return 0 if len(values) - values.count(0) < k else 1


def domain(net, v):
    """The interval [low, high] of truth codes variable v can still take in
    the network: its representative's bits, read through its sign."""
    value = net.value
    w = 4 * net.root[v]
    low = 2 if value[w + 2] == 1 else 1 if value[w] == 1 else 0
    high = 0 if value[w] == 0 else 1 if value[w + 2] == 0 else 2
    return (2 - high, 2 - low) if net.negated[v] else (low, high)


def check_narrowing(k, literals, nvars):
    """Propagate `var 0 = at least k of literals` from every box of
    intervals over nvars variables; a literal is (variable, negated).  No
    total assignment in the box that satisfies the node may be lost, and a
    reported conflict needs a box without one."""
    eq = (k, tuple(2 * v + negated for v, negated in literals))
    ground = SimpleNamespace(
        atom_count=nvars, gates=[eq] + [(1, ())] * (nvars - 1)
    )
    net = _Network(ground, [UNKNOWN] + [FALSE] * (nvars - 1), {}, SolverStats())
    assert len(net.constraints) == 1
    assert net.propagate() is None
    solutions = [
        values for values in product(range(3), repeat=nvars)
        if values[0] == at_least_verdict(
            k, [2 - values[v] if negated else values[v] for v, negated in literals]
        )
    ]
    for box in product(INTERVALS, repeat=nvars):
        inside = [
            values for values in solutions
            if all(low <= x <= high for x, (low, high) in zip(values, box))
        ]
        net.open_level()
        ok = all(
            net.narrow(v, low, high) for v, (low, high) in enumerate(box)
        ) and net.propagate() is None
        assert ok or not inside, (k, literals, box)
        domains = [domain(net, v) for v in range(nvars)]
        for values in inside:
            assert all(
                low <= x <= high for x, (low, high) in zip(values, domains)
            ), (k, literals, box, values)
        net.backtrack(0)


def test_narrowing_keeps_every_solution_of_a_node():
    # Every at-least node with k <= 3 over at most three signed literals of
    # distinct variables, from every box of input and output intervals.
    for m in range(4):
        for k in range(4):
            for signs in product((False, True), repeat=m):
                check_narrowing(k, list(zip(range(1, m + 1), signs)), m + 1)


def test_narrowing_keeps_every_solution_with_repeated_variables():
    # Literals that share a variable, or read the node's own output: up to
    # two literals over three variables, three literals over two.
    for m, nvars in ((1, 3), (2, 3), (3, 2)):
        for k in range(1, m + 1):
            for vs in product(range(nvars), repeat=m):
                if len(set(vs)) == m and 0 not in vs:
                    continue
                for signs in product((False, True), repeat=m):
                    check_narrowing(k, list(zip(vs, signs)), nvars)


# --- budgets and caps -------------------------------------------------------


def test_brute_force_atom_cap(monkeypatch):
    # The cap is checked before anything is grounded.
    def no_grounding(*_):
        raise AssertionError("grounded above the cap")

    monkeypatch.setattr("pgshapes.solver.GroundInstance", no_grounding)
    g = build_graph([str(100 + i) for i in range(3)])
    shapes = link_shapes([Shape("s", NODE, HasLabel("A"), Nothing())])
    with pytest.raises(TooLarge):
        brute_force_conformance(g, shapes, SolverConfig(max_atoms=2))


def test_branch_budget():
    g = build_graph(["100", "101"])
    shapes = link_shapes([Shape("loop", NODE, ShapeRef("loop"), Nothing())])
    with pytest.raises(BudgetExceeded) as info:
        enumerate_faithful_assignments(g, shapes, config=SolverConfig(max_branches=1))
    assert info.value.stats is not None
    assert info.value.stats.branches == 2


# --- cross checks -----------------------------------------------------------


def test_brute_force_matches_full_product():
    rng = random.Random(4101)
    done = 0
    while done < 80:
        g, shapes = gen_instance(rng, max_atoms=6, max_free=6)
        hits = all_faithful_by_product(g, shapes)
        report = brute_force_conformance(g, shapes)
        assert report.conforms == bool(hits)
        if hits:
            assert report.witness == hits[0]
        assert enumerate_faithful_assignments(g, shapes) == hits
        done += 1


def test_brute_force_matches_reference_oracle():
    rng = random.Random(4102)
    done = 0
    while done < 120:
        g, shapes = gen_instance(rng, max_atoms=7, max_free=7)
        expected = ref_conforms(g, list(shapes))
        assert brute_force_conformance(g, shapes).conforms == expected
        done += 1


@pytest.mark.parametrize(
    "config",
    [
        SolverConfig(),
        SolverConfig(atom_order="dependency"),
    ],
    ids=["default", "dependency"],
)
def test_solver_matches_brute_force(config):
    rng = random.Random(4103)
    done = 0
    while done < 150:
        g, shapes = gen_instance(rng)
        bf = brute_force_conformance(g, shapes)
        report = find_faithful_assignment(g, shapes, config)
        assert report.conforms == bf.conforms
        if report.conforms:
            assert is_strictly_faithful(g, shapes, report.witness).ok
            if config.atom_order == "default":
                assert report.witness == bf.witness
        else:
            assert report.violated_targets
            lfp = least_fixed_point(g, shapes)
            for atom in report.violated_targets:
                assert lfp[atom] is not TRUE
        done += 1


def test_enumerate_limit_one_equals_find():
    rng = random.Random(4104)
    done = 0
    while done < 80:
        g, shapes = gen_instance(rng)
        report = find_faithful_assignment(g, shapes)
        first = enumerate_faithful_assignments(g, shapes, limit=1)
        if report.conforms:
            assert first == [report.witness]
            done += 1
        else:
            assert first == []


# A 3-CNF formula as a graph: a Var node per variable and a Clause node per
# clause, with a pos or neg edge to the variable of each of its literals.
# tv and fv are a variable's two values; every clause is a target.
CNF_SHAPES = (
    "NODE tv [] { :Var & ! fv };\n"
    "NODE fv [] { :Var & ! tv };\n"
    "NODE C [:Clause] { >= 1 :pos . tv | >= 1 :neg . fv };\n"
)


def cnf_graph(rng, nvars):
    """Random 3-CNF at 4.26 clauses per variable, as a graph."""
    nodes = [f"x{v}" for v in range(1, nvars + 1)]
    labels, ends = {x: ["Var"] for x in nodes}, {}
    for j in range(round(4.26 * nvars)):
        clause = f"c{j}"
        nodes.append(clause)
        labels[clause] = ["Clause"]
        for v in rng.sample(range(1, nvars + 1), 3):
            edge = f"{clause}-{v}"
            ends[edge] = (clause, f"x{v}")
            labels[edge] = ["pos" if rng.random() < 0.5 else "neg"]
    return build_graph(nodes, list(ends), ends, labels)


def test_enumeration_past_a_conflict_matches_plain_enumeration():
    # After the first leaf the search backtracks depth first, and on these
    # formulas it meets conflicts there too.  Its list, order included, is
    # plain enumeration over the atoms the fixed point leaves open: each
    # variable's tv and fv, with the targets at yes.
    shapes = parse_shapes(CNF_SHAPES)
    listed = []
    for seed in range(6):
        g = cnf_graph(random.Random(f"t:{seed}:4"), 4)
        ground = GroundInstance(g, shapes)
        targets = set(ground.targets)
        values = [TRUE if i in targets else v
                  for i, v in enumerate(ground.least_fixed_point()[:len(ground.atoms)])]
        free = [i for i, v in enumerate(values) if v is UNKNOWN]
        assert len(free) == 8
        expected = []
        for combo in product(VALUE_ORDER, repeat=len(free)):
            for i, v in zip(free, combo):
                values[i] = v
            if ground.holds(values):
                expected.append(Assignment(dict(zip(ground.atoms, values))))
        assert enumerate_faithful_assignments(g, shapes) == expected
        listed.append(len(expected))
    assert max(listed) > 1, listed


# --- the network a search starts from ---------------------------------------

NETWORK_DIGEST = "71f51f72b5726dadb22334d87d0120c5af055031da8622c67a9790747bd4c11c"


def cycle_instance(n):
    """Two-colouring of an n-cycle: every Red and Blue atom stays open."""
    nodes = [f"v{i}" for i in range(n)]
    edges = [f"e{i}" for i in range(n)]
    return build_graph(
        nodes, edges,
        endpoints={e: (nodes[i], nodes[(i + 1) % n]) for i, e in enumerate(edges)},
        labelings={**{x: ["V"] for x in nodes}, **{e: ["e"] for e in edges}},
    ), parse_shapes(
        "NODE Red [] { ! Blue & ! >= 1 :e . Red };\n"
        "NODE Blue [] { ! Red & ! >= 1 :e . Blue };\n"
        "NODE Col [:V] { Red | Blue };\n"
    )


def wide_instance(n):
    """n persons, each a free choice between r and u."""
    nodes = [f"p{i}" for i in range(n)]
    return build_graph(nodes, labelings={x: ["Person"] for x in nodes}), parse_shapes(
        "NODE r [] { ! u };\nNODE u [] { ! r };\nNODE t [:Person] { r | u };\n"
    )


def network_text(g, shapes):
    """Everything a search reads from the _Network it starts from."""
    inst = _Instance(g, shapes, SolverConfig())
    inst.pin(enumerate(inst.lfp[:inst.count]))
    if inst.refuted:
        return "refuted"
    net = _Network(inst.ground, inst.lfp, inst.pinned, inst.stats)
    return repr((
        net.lits, net.out, net.need,
        [tuple(cs) for cs in net.occurs], [tuple(cs) for cs in net.outs],
        net.clauses, sorted(net.watches.items()), net.trail, net.value,
        net.root, net.negated, net.conflict,
    ))


def test_network_build_is_pinned():
    # The constraints, clauses, watches, trail and bounds a search starts
    # from, on seeded random instances and on the benchmark's three
    # search-hard families at small sizes.  Their order decides the order
    # of every propagation, so a faster build has to keep all of it.
    h = hashlib.sha256()
    instances = [gen_instance(random.Random(f"pinned:{seed}")) for seed in range(200)]
    instances += [cycle_instance(5), cycle_instance(9), wide_instance(10),
                  (cnf_graph(random.Random("network"), 8), parse_shapes(CNF_SHAPES))]
    instances += [recursive_instance(random.Random(f"network:{seed}")) for seed in range(12)]
    # An open gate that reads a decided shared gate (c & r at 2 and 3), and a
    # target equal to an atom equal to its own negation: a conflict at once.
    instances += [
        (knows_graph(4, lambda i: (2, 3) if i < 2 else ()), parse_shapes(
            "NODE s [] { u | >= 1 :knows . (c & r) };\nNODE c [] { :P };\n"
            "NODE r [] { ! u };\nNODE u [] { ! r };\n")),
        (build_graph(["a"], labelings={"a": ["P"]}),
         parse_shapes("NODE t [:P] { r };\nNODE r [] { ! r };\n")),
    ]
    for g, shapes in instances:
        h.update(network_text(g, shapes).encode() + b"\n")
    assert h.hexdigest() == NETWORK_DIGEST


def test_decided_gates_are_bound_in_variable_order():
    # The walk meets s(1) before s(0), so it meets the gate `c & r` at 3
    # before the one at 2.  Both are decided (c is no everywhere), and the
    # network binds them lowest variable first, as a scan would.
    g = knows_graph(4, lambda i: (i + 2,) if i < 2 else ())
    inst = _Instance(g, parse_shapes(
        "NODE s [] { u | >= 1 :knows . (c & r) };\nNODE c [] { :P };\n"
        "NODE r [] { ! u };\nNODE u [] { ! r };\n"), SolverConfig())
    inst.pin(enumerate(inst.lfp[:inst.count]))
    net = _Network(inst.ground, inst.lfp, inst.pinned, inst.stats)
    gates = range(inst.count, len(inst.ground.gates))
    assert [inst.lfp[v] for v in gates] == [FALSE, FALSE]
    assert net.trail == [lit for v in gates for lit in (4 * v + 3, 4 * v + 1)]


@pytest.mark.parametrize("target, clauses, trail", [
    ("r | s", [], [10]),
    ("r | s | p", [[10, 9]], []),
])
def test_target_clauses_repeat_no_literal(target, clauses, trail):
    # r and s both equal q, and p equals ! q: all four share one
    # representative, so the target's operands r and s read one literal.
    g = build_graph(["a"], labelings={"a": ["P"]})
    inst = _Instance(g, parse_shapes(
        f"NODE t [:P] {{ {target} }};\nNODE r [] {{ q }};\nNODE s [] {{ ! p }};\n"
        "NODE q [] { ! p };\nNODE p [] { ! q };\n"), SolverConfig())
    inst.pin(enumerate(inst.lfp[:inst.count]))
    net = _Network(inst.ground, inst.lfp, inst.pinned, inst.stats)
    assert (net.clauses, net.trail) == (clauses, trail)
    assert net.watches == {lit: [0] for clause in clauses for lit in clause}


# --- what a search returns --------------------------------------------------

SEARCH_DIGEST = "13c0c4496e03242b826cab3f28ca9c5f556dd43cc3d510331f50042f4f0e82d4"


def search_text(g, shapes, enumerate_all):
    """The verdict, witness and violated targets of the default search, and
    on small instances every faithful assignment in the order listed."""
    report = find_faithful_assignment(g, shapes)
    lines = [repr((report.conforms, report.violated_targets,
                   report.witness and list(report.witness.items())))]
    if enumerate_all:
        lines += [repr(list(s.items())) for s in enumerate_faithful_assignments(g, shapes)]
    return "\n".join(lines)


def test_search_results_are_pinned():
    # The network pin above fixes where a search starts; this one fixes what
    # it returns, on the benchmark's search-hard families at sizes the fixed
    # point cannot decide and on the seeded instances it leaves open.
    cnf = parse_shapes(CNF_SHAPES)
    instances = [(cnf_graph(random.Random(f"search:{n}:{i}"), n), cnf, n <= 8)
                 for n in (8, 12, 16, 20, 24, 30) for i in range(2)]
    instances += [(*cycle_instance(n), n <= 8) for n in range(3, 13)]
    instances += [(*wide_instance(n), n <= 6) for n in (4, 6, 10, 20, 40)]
    for seed in range(200):
        g, shapes = gen_instance(random.Random(f"pinned:{seed}"))
        ground = GroundInstance(g, shapes)
        if UNKNOWN in ground.least_fixed_point()[:len(ground.atoms)]:
            instances.append((g, shapes, True))
    h = hashlib.sha256()
    for g, shapes, enumerate_all in instances:
        h.update(search_text(g, shapes, enumerate_all).encode() + b"\n")
    assert h.hexdigest() == SEARCH_DIGEST


def test_enumerate_limit_zero_and_negative():
    # r and u negate each other on two isolated nodes: 3 x 3 faithful
    # assignments, none of them found under a limit of 0.
    g = build_graph(["a", "b"])
    shapes = parse_shapes("NODE r [] { !u }; NODE u [] { !r };")
    assert len(enumerate_faithful_assignments(g, shapes)) == 9
    assert enumerate_faithful_assignments(g, shapes, limit=0) == []
    with pytest.raises(ValueError):
        enumerate_faithful_assignments(g, shapes, limit=-1)


def test_solver_stats_populated():
    g = office_graph()
    report = find_faithful_assignment(g, role_pair_shapes())
    assert report.stats.atoms == 6
    assert report.stats.targets == 1
    assert report.stats.elapsed >= 0.0


def test_refuted_target_still_reports_pinned_atoms():
    # The fixed point decides all three atoms and refutes the target at 102;
    # the report still counts what it pinned.
    g = office_graph()
    shapes = link_shapes([person_label_shape()])
    report = find_faithful_assignment(g, shapes)
    assert not report.conforms
    assert report.stats.pinned == report.stats.atoms == 3
    assert brute_force_conformance(g, shapes).stats.pinned == 3


# --- depth ------------------------------------------------------------------


def test_wide_free_instance_searches_past_the_recursion_limit():
    # Every r/u pair is a free choice, so the search opens one branch point
    # per node: 1,200 levels, above the interpreter's default recursion limit.
    n = 1200
    g = build_graph(
        [f"p{i:04d}" for i in range(n)],
        labelings={f"p{i:04d}": ["Person"] for i in range(n)},
    )
    shapes = parse_shapes(
        "NODE t [:Person] { r | u };\n"
        "NODE r [] { ! u };\n"
        "NODE u [] { ! r };\n"
    )
    report = find_faithful_assignment(g, shapes)
    assert report.conforms
    assert report.stats.branches == n
    assert is_strictly_faithful(g, shapes, report.witness).ok
    assert enumerate_faithful_assignments(g, shapes, limit=1)[0] == report.witness
    assert all(
        report.witness[Atom(name, x, NODE)] is value
        for x in g.nodes
        for name, value in (("r", TRUE), ("u", FALSE), ("t", TRUE))
    )


def test_dependency_order_on_a_long_chain():
    # Each atom reads the next one along a 2,000-node chain: one long path in
    # the dependency graph that the component pass has to walk.
    n = 2000
    ids = [f"n{i:04d}" for i in range(n)]
    g = build_graph(
        ids, [f"e{i:04d}" for i in range(n - 1)],
        endpoints={f"e{i:04d}": (ids[i], ids[i + 1]) for i in range(n - 1)},
        labelings={ids[-1]: ["Seed"]},
    )
    shapes = parse_shapes(
        "NODE c [] { :Seed | >= 1 ->[ dst c ] };\n"
        "NODE loop [] { loop & c };\n"
    )
    default = find_faithful_assignment(g, shapes)
    ordered = find_faithful_assignment(g, shapes, SolverConfig(atom_order="dependency"))
    assert default.conforms and ordered.conforms
    assert is_strictly_faithful(g, shapes, ordered.witness).ok
    assert default.witness == ordered.witness


def test_id_built_assignments_equal_eagerly_built_ones():
    # The engines' assignments hold values by atom id and the grounding's
    # blocks.  Before anything iterates them, their repr, CLI lines and
    # lookups come from the blocks; each must match an Assignment built from
    # a dict of Atoms.
    checked = 0
    for seed in range(80):
        g, shapes = gen_instance(random.Random(f"ids:{seed}"))
        atoms = GroundInstance(g, shapes).atoms
        reports = [find_faithful_assignment(g, shapes), brute_force_conformance(g, shapes)]
        found = enumerate_faithful_assignments(g, shapes, limit=20)
        lfp = least_fixed_point(g, shapes)
        sigmas = [r.witness for r in reports if r.witness is not None] + found
        for sigma in [*sigmas, reports[0].fixed_point, lfp]:
            text, lines, size = repr(sigma), cli._assignment_lines(sigma), len(sigma)
            values = [sigma[a] for a in atoms]
            for a in atoms[:1]:
                for missing in (Atom(a.shape, a.element + "?", a.kind),
                                Atom(a.shape, a.element, EDGE if a.kind == NODE else NODE),
                                Atom(a.shape + "?", a.element, a.kind)):
                    with pytest.raises(KeyError):
                        sigma[missing]
            eager = Assignment(dict(sigma.items()))
            assert sigma == eager and list(eager) == list(atoms)
            assert (text, size) == (repr(eager), len(eager))
            assert lines == [f"{atom} = {v.word}" for atom, v in eager.items()]
            assert values == [eager[a] for a in atoms]
            checked += 1
        assert reports[0].fixed_point == lfp == reports[1].fixed_point
    assert checked > 200
