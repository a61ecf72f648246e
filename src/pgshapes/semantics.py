"""Three-valued constraint evaluation and strictly faithful assignments.

Truth values are the three-point chain false < unknown < true.  Negation
flips the chain, conjunction is the minimum; both are exact enum operations,
no floating point anywhere.  A shape reference never recurses into the
referenced constraint: it reads the current assignment, which is what makes
evaluation total in the presence of recursive (even negated) references.

Constraints have one evaluator: _grounding writes each connective's rule
once, turning a constraint at an element into a circuit with one gate kind,
"at least k of these literals hold", whose inputs are the atoms, and _leaf
decides the core forms that read no assignment.  A subterm shared by two
paths to it is one gate, so the circuit grows with the constraint, not with
its unfolding; a GroundInstance keeps only the gates its equations read,
so every variable that is not an atom has a reader.  The least fixed
point, the search, brute force, is_strictly_faithful and
eval_node_constraint / eval_edge_constraint all read that circuit,
computing gates in ascending order without recursion.

Paths have one engine: each path object compiles once into a Thompson
automaton over the graph's per-label adjacency, and a search over (node,
state) pairs finds what a source reaches in O(|Q| * (|V| + |E|)).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Mapping

from .errors import DomainMismatch, UnknownElement
from .graph import EDGE, INCOMING, NODE, OUTGOING, PropertyGraph
from .shapes import (
    Alt,
    And,
    AnyValue,
    Cmp,
    Constraint,
    Dst,
    EdgeLabel,
    Exact,
    HasLabel,
    Inverse,
    KeyCmp,
    Not,
    Nothing,
    Opt,
    PathCmp,
    PathExpr,
    PathKeyCmp,
    Plus,
    PredAnd,
    PredNot,
    QualIncoming,
    QualKey,
    QualOutgoing,
    QualPath,
    Seq,
    Shape,
    ShapeRef,
    ShapeSet,
    Src,
    Star,
    Target,
    TargetExact,
    TargetKey,
    TargetKeyValue,
    TargetLabel,
    Top,
    TypeIs,
    ValuePredicate,
    conjuncts,
)
from .values import Value, compare_sets, compare_values


class TruthValue(enum.IntEnum):
    """The three-point chain; the int encoding makes min() the conjunction."""

    FALSE = 0
    UNKNOWN = 1
    TRUE = 2

    def negate(self) -> "TruthValue":
        return TruthValue(2 - self.value)

    @property
    def word(self) -> str:
        return ("no", "maybe", "yes")[self.value]

    @property
    def numeric_text(self) -> str:
        return ("0", "0.5", "1")[self.value]


FALSE, UNKNOWN, TRUE = TruthValue.FALSE, TruthValue.UNKNOWN, TruthValue.TRUE


@dataclass(frozen=True)
class Atom:
    """A (shape, element) pair an assignment gives a truth value to."""

    shape: str
    element: str
    kind: str  # NODE or EDGE

    def sort_key(self) -> tuple[str, str]:
        return (self.shape, self.element)

    def __str__(self) -> str:
        return f"{self.shape}({self.element})"


class Assignment(Mapping):
    """An immutable total map from atoms to truth values."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[Atom, TruthValue]):
        checked = {}
        for atom, v in values.items():
            if not isinstance(atom, Atom):
                raise TypeError(f"not an atom: {atom!r}")
            checked[atom] = TruthValue(v)
        self._values = checked

    def __getitem__(self, atom: Atom) -> TruthValue:
        return self._values[atom]

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{a}={self._values[a].word}"
            for a in sorted(self._values, key=Atom.sort_key)
        )
        return f"Assignment({inner})"


def atoms(g: PropertyGraph, shapes: ShapeSet) -> frozenset[Atom]:
    """All (shape, element) pairs of matching kind."""
    out = set()
    for s in shapes:
        elements = g.nodes if s.kind == NODE else g.edges
        for x in elements:
            out.add(Atom(s.name, x, s.kind))
    return frozenset(out)


def sorted_atoms(g: PropertyGraph, shapes: ShapeSet) -> tuple[Atom, ...]:
    return tuple(sorted(atoms(g, shapes), key=Atom.sort_key))


# ---------------------------------------------------------------------------
# Targets


def eval_target_nodes(g: PropertyGraph, q: Target) -> frozenset[str]:
    return _eval_target(g, q, g.nodes, g.has_node)


def eval_target_edges(g: PropertyGraph, q: Target) -> frozenset[str]:
    return _eval_target(g, q, g.edges, g.has_edge)


def _eval_target(g, q, elements, contains) -> frozenset[str]:
    """The members of `elements` that target q selects; `contains` tests
    membership of an exact id."""
    if isinstance(q, Nothing):
        return frozenset()
    if isinstance(q, TargetExact):
        # An id that is not an element of this kind yields no targets.
        return frozenset({q.element}) if contains(q.element) else frozenset()
    if isinstance(q, TargetLabel):
        return frozenset(filter(contains, g.by_label.get(q.label, ())))
    if isinstance(q, TargetKey):
        return frozenset(x for x in elements if g.property_values(x, q.key))
    if isinstance(q, TargetKeyValue):
        return frozenset(
            x for x in elements if q.value in g.property_values(x, q.key)
        )
    raise TypeError(f"cannot evaluate target {type(q).__name__} (desugar first)")


def target_elements(g: PropertyGraph, shape: Shape) -> frozenset[str]:
    if shape.kind == NODE:
        return eval_target_nodes(g, shape.target)
    return eval_target_edges(g, shape.target)


def target_atoms(g: PropertyGraph, shapes: ShapeSet) -> tuple[Atom, ...]:
    """Every target atom, in canonical order."""
    return tuple(sorted(
        (Atom(s.name, x, s.kind) for s in shapes for x in target_elements(g, s)),
        key=Atom.sort_key,
    ))


# ---------------------------------------------------------------------------
# Paths


def eval_path(
    g: PropertyGraph,
    n: str,
    p: PathExpr,
    _cache: dict | None = None,
) -> frozenset[str]:
    """Nodes reachable from n over p.  Independent of any assignment."""
    if not g.has_node(n):
        raise UnknownElement(f"no such node: {n!r}")
    return _reach(g, n, p, _cache if _cache is not None else {})


def _reach(g, n, p, cache) -> frozenset[str]:
    """eval_path without the node check.  `cache` maps id(p) to p, its
    automaton and its results by source node: keyed by identity, because
    hashing a PathExpr recurses through the whole expression."""
    _, automaton, results = cache.get(id(p)) or cache.setdefault(
        id(p), (p, _automaton(g, p), {}))
    if n not in results:
        results[n] = _search(automaton, n)
    return results[n]


def _automaton(g, p) -> dict:
    """Thompson's NFA for p, its steps reading g's label adjacency.

    Inverses are pushed down to the label steps on an explicit stack (^(p/q)
    is ^q/^p; the other operators commute with ^).  State 0 starts, 1
    accepts, and a move with adjacency None is an epsilon move.  The result
    maps each state a step enters to (accepting, steps): whether its epsilon
    closure holds state 1, and the steps leaving that closure.
    """
    moves: list[list[tuple]] = [[], []]
    stack = [(p, False, 0, 1)]
    while stack:
        q, inverted, a, b = stack.pop()
        if isinstance(q, EdgeLabel):
            direction = INCOMING if inverted else OUTGOING
            moves[a].append((g.label_adjacency(q.name, direction), b))
        elif isinstance(q, Inverse):
            stack.append((q.inner, not inverted, a, b))
        elif isinstance(q, Seq):
            first, second = (q.second, q.first) if inverted else (q.first, q.second)
            moves.append([])
            mid = len(moves) - 1
            stack += ((first, inverted, a, mid), (second, inverted, mid, b))
        elif isinstance(q, Alt):
            stack += ((q.first, inverted, a, b), (q.second, inverted, a, b))
        elif isinstance(q, (Star, Opt)):
            moves[a].append((None, b))
            stack.append((Plus(q.inner) if isinstance(q, Star) else q.inner, inverted, a, b))
        elif isinstance(q, Plus):
            # a -> loop entry -> q -> loop exit -> (entry again | b)
            entry, exit_ = len(moves), len(moves) + 1
            moves += ([], [(None, entry), (None, b)])
            moves[a].append((None, entry))
            stack.append((q.inner, inverted, entry, exit_))
        else:
            raise TypeError(f"not a path expression: {q!r}")

    out: dict[int, tuple[bool, list]] = {}
    pending = [0]
    while pending:
        s = pending.pop()
        if s in out:
            continue
        closure, todo, steps = {s}, [s], []
        while todo:
            for adjacency, t in moves[todo.pop()]:
                if adjacency is not None:
                    steps.append((adjacency, t))
                elif t not in closure:
                    closure.add(t)
                    todo.append(t)
        out[s] = (1 in closure, steps)
        pending += (t for _, t in steps)
    return out


def _search(automaton: dict, n: str) -> frozenset[str]:
    """The nodes at which an accepting state is reached from (n, start):
    each (node, state) pair is visited once."""
    seen, todo, reached = {(n, 0)}, [(n, 0)], set()
    while todo:
        x, s = todo.pop()
        accepting, moves = automaton[s]
        if accepting:
            reached.add(x)
        for adjacency, t in moves:
            for _, m in adjacency.get(x, ()):
                if (m, t) not in seen:
                    seen.add((m, t))
                    todo.append((m, t))
    return frozenset(reached)


# ---------------------------------------------------------------------------
# Predicates


def matches_predicate(f: ValuePredicate, v: Value) -> bool:
    if isinstance(f, AnyValue):
        return True
    if isinstance(f, TypeIs):
        return v.type_name == f.type_name
    if isinstance(f, Cmp):
        return compare_values(f.op, v, f.constant)
    if isinstance(f, PredAnd):
        # The chain comes apart on a list: no operand is a conjunction, and
        # only `!` nests a recursive call.
        return all(matches_predicate(k, v) for k in conjuncts(f, PredAnd, PredNot))
    if isinstance(f, PredNot):
        return not matches_predicate(f.inner, v)
    raise TypeError(f"not a value predicate: {f!r}")


# ---------------------------------------------------------------------------
# Constraint evaluation


def eval_node_constraint(
    g: PropertyGraph,
    sigma: Mapping[Atom, TruthValue],
    n: str,
    c: Constraint,
    _cache: dict | None = None,
) -> TruthValue:
    if not g.has_node(n):
        raise UnknownElement(f"no such node: {n!r}")
    return _eval_at(g, sigma, c, n, NODE, _cache)


def eval_edge_constraint(
    g: PropertyGraph,
    sigma: Mapping[Atom, TruthValue],
    e: str,
    c: Constraint,
    _cache: dict | None = None,
) -> TruthValue:
    if not g.has_edge(e):
        raise UnknownElement(f"no such edge: {e!r}")
    return _eval_at(g, sigma, c, e, EDGE, _cache)


def _eval_at(g, sigma, c, x, kind, cache) -> TruthValue:
    """c at x under sigma: grounded with the atoms it reads as inputs,
    which resolve to None where sigma gives no value."""
    gates: list = []
    inputs: dict[Atom, int] = {}

    def resolve(atom: Atom) -> int | None:
        if atom not in sigma:
            return None
        if atom not in inputs:
            inputs[atom] = len(gates)
            gates.append(None)
        return inputs[atom]

    lit = _grounding(g, resolve, gates, cache)(c, x, kind)
    values = [UNKNOWN] * len(gates)
    for atom, v in inputs.items():
        values[v] = sigma[atom]
    for v, gate in enumerate(gates):  # each gate after the ones it reads
        if gate is not None:
            values[v] = _gate_value(gate, values)
    return _gate_value(_equation(lit, gates), values)


def _leaf(g, x, c, cache) -> bool:
    """Whether a core form that reads no assignment holds at x: these are
    the only forms grounding folds, so every folded constant is yes or no."""
    if isinstance(c, Top):
        return True
    if isinstance(c, Exact):
        return c.element == x
    if isinstance(c, HasLabel):
        return c.label in g.labels_of(x)
    if isinstance(c, QualKey):
        hits = sum(
            1 for v in g.property_values(x, c.key) if matches_predicate(c.predicate, v)
        )
        return hits >= c.count
    if isinstance(c, PathCmp):
        return compare_sets(
            c.op, _reach(g, x, c.first, cache), _reach(g, x, c.second, cache)
        )
    if isinstance(c, PathKeyCmp):
        left = frozenset(
            v
            for m in _reach(g, x, c.first_path, cache)
            for v in g.property_values(m, c.first_key)
        )
        right = frozenset(
            v
            for m in _reach(g, x, c.second_path, cache)
            for v in g.property_values(m, c.second_key)
        )
        return compare_sets(c.op, left, right)
    if isinstance(c, KeyCmp):
        return compare_sets(
            c.op, g.property_values(x, c.first_key), g.property_values(x, c.second_key)
        )
    raise TypeError(f"cannot evaluate {type(c).__name__} (desugar first)")


# ---------------------------------------------------------------------------
# Strict faithfulness


@dataclass(frozen=True)
class FaithfulnessVerdict:
    """Outcome of the four-condition check, naming the first failure."""

    ok: bool
    failed_condition: int | None = None  # 1..4
    atom: Atom | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_strictly_faithful(
    g: PropertyGraph,
    shapes: ShapeSet,
    sigma: Mapping[Atom, TruthValue],
) -> FaithfulnessVerdict:
    """Check the four faithfulness conditions on the grounded instance.

    The assignment must be total over exactly the instance's atoms.  The
    conditions are scanned in order (node equations, edge equations, node
    targets, edge targets), each over the atoms in canonical order, and the
    verdict names the first failure.
    """
    ground = GroundInstance(g, shapes)
    given, wanted = frozenset(sigma), frozenset(ground.atoms)
    if given != wanted:
        missing = sorted(wanted - given, key=Atom.sort_key)
        extra = sorted(given - wanted, key=Atom.sort_key)
        parts = []
        if missing:
            parts.append(f"missing {', '.join(map(str, missing[:3]))}")
        if extra:
            parts.append(f"extra {', '.join(map(str, extra[:3]))}")
        raise DomainMismatch("assignment domain is not the atom set: "
                             + "; ".join(parts))
    values = [sigma[a] for a in ground.atoms]
    evaluated = ground.evaluate(values)
    for cond, kind in ((1, NODE), (2, EDGE)):
        for i, atom in enumerate(ground.atoms):
            if atom.kind != kind:
                continue
            expected = evaluated[i]
            if values[i] is not expected:
                return FaithfulnessVerdict(
                    False,
                    cond,
                    atom,
                    f"{atom} is {values[i].word} but evaluates {expected.word}",
                )
    for cond, kind in ((3, NODE), (4, EDGE)):
        for i in ground.targets:
            atom = ground.atoms[i]
            if atom.kind == kind and values[i] is not TRUE:
                return FaithfulnessVerdict(
                    False,
                    cond,
                    atom,
                    f"target {atom} is {values[i].word}, not yes",
                )
    return FaithfulnessVerdict(True)


# ---------------------------------------------------------------------------
# Grounding
#
# A grounded instance is a circuit with one gate kind, (k, literals): "at
# least k of the literals hold".  Literal 2v reads variable v and 2v + 1 its
# negation; _YES and _NO are the constants, so `^ 1` negates every literal.
# The inputs of a circuit have no gate (None) while grounding runs: in a
# GroundInstance they are the atoms, variables 0 .. atoms - 1, and each takes
# its equation as its gate only once every atom is grounded.  _grounding
# holds the rule for each connective once and grounds an operand that moves
# to another element once per (subterm, element), so a shared subterm is one
# gate, built after every gate it reads.  Every subterm that reads no input
# is a _leaf, folded to a constant, so paths, labels, keys and value
# predicates are evaluated once per instance, never again per assignment.

_YES, _NO = -1, -2


def _equation(lit: int, gates: list) -> tuple:
    """A gate with literal lit's value.  Not(at least k of m literals) is at
    least m - k + 1 of the negated literals."""
    if lit < 0:
        return (0, ()) if lit == _YES else (1, ())
    gate = gates[lit >> 1]
    if gate is None:
        return (1, (lit,))
    if not lit & 1:
        return gate
    k, lits = gate
    return (len(lits) - k + 1, tuple(x ^ 1 for x in lits))


def _gate_value(gate: tuple, values) -> TruthValue:
    """The verdict of a gate under `values`, indexed by variable: true when
    k literals hold, false when fewer than k are not refuted, else unknown."""
    k, lits = gate
    held = refuted = 0
    for lit in lits:
        v = values[lit >> 1]
        if v is not UNKNOWN:
            if (v is TRUE) ^ (lit & 1):
                held += 1
            else:
                refuted += 1
    if held >= k:
        return TRUE
    return FALSE if len(lits) - refuted < k else UNKNOWN


def _grounding(g: PropertyGraph, resolve, gates: list, cache: dict | None = None):
    """The function that grounds constraint c at element x of kind `kind`
    into the circuit `gates` and returns its literal.

    A reference to an atom reads input resolve(atom), and resolve returns
    None for an atom outside the instance.  Paths are evaluated through
    `cache` (see _reach).
    """
    cache = {} if cache is None else cache
    chains: dict[int, tuple] = {}
    moved: dict[tuple, int] = {}
    inlined: set[int] = set()

    def at_least(count: int, lits: list[int]) -> int:
        """At least `count` of lits, constants folded in.

        Constants are yes or no, because _leaf is two-valued: a yes literal
        lowers the count and a no literal leaves the pool, which keeps both
        tallies of _gate_value.  An operand gate of the same form (any of in
        any of, all of in all of) is inlined into its first reader only:
        copying a shared gate into every reader would nest its copies, and
        the circuit would grow with the unfolding again.
        """
        pending = []
        for lit in lits:
            if lit >= 0:
                pending.append(lit)
            elif lit == _YES:
                count -= 1
        if count <= 0:
            return _YES
        if len(pending) < count:
            return _NO
        if count == 1 and len(pending) == 1:
            return pending[0]
        any_of, all_of = count == 1, count == len(pending)
        flat: list[int] = []
        for lit in pending:
            if gates[lit >> 1] is not None and lit >> 1 not in inlined:
                k, inner = _equation(lit, gates)
                if any_of and k == 1 or all_of and k == len(inner):
                    inlined.add(lit >> 1)
                    count += k - 1
                    flat.extend(inner)
                    continue
            flat.append(lit)
        gates.append((count, tuple(flat)))
        return 2 * len(gates) - 2

    def at(c: Constraint, x: str, kind: str) -> int:
        """ground for an operand that moves to element x: once per
        (subterm, element)."""
        key = (id(c), x, kind)
        lit = moved.get(key)
        if lit is None:
            lit = moved[key] = ground(c, x, kind)
        return lit

    def ground(c: Constraint, x: str, kind: str) -> int:
        if isinstance(c, ShapeRef):
            atom = Atom(c.name, x, kind)
            v = resolve(atom)
            if v is None:
                raise DomainMismatch(f"assignment has no value for {atom}")
            return 2 * v
        if isinstance(c, Not) and not isinstance(c.inner, Not):
            return ground(c.inner, x, kind) ^ 1
        if isinstance(c, (And, Not)):
            # A conjunction chain (| included) comes apart on a list, once
            # per object.  Every operand is grounded before folding, so a
            # reference outside the atom set raises even beside a false
            # operand.  An operand >= k :l . d (k >= 1) at a node without an
            # l edge grounds nothing and makes the chain no; found from the
            # node's edges, such operands cost nothing where they are absent.
            chain, plain, stepping = chains.get(id(c)) or chains.setdefault(id(c), _chain(c))
            if stepping and kind == NODE:
                have = {l for e, _ in g.adjacent_edges(x, OUTGOING) for l in g.labels_of(e)}
                if not stepping.keys() <= have:
                    for i in sorted(plain + [i for l in have if l in stepping for i in stepping[l]]):
                        ground(chain[i], x, kind)
                    return _NO
            return at_least(len(chain), [ground(k, x, kind) for k in chain])
        if isinstance(c, QualPath):
            reached = sorted(_reach(g, x, c.path, cache))
            return at_least(c.count, [at(c.inner, m, NODE) for m in reached])
        if isinstance(c, (QualIncoming, QualOutgoing)):
            direction = INCOMING if isinstance(c, QualIncoming) else OUTGOING
            pool = g.adjacent_edges(x, direction)
            return at_least(c.count, [at(c.inner, e, EDGE) for e, _ in pool])
        if isinstance(c, (Src, Dst)):
            return at(c.inner, g.endpoints(x)[0 if isinstance(c, Src) else 1], NODE)
        return _YES if _leaf(g, x, c, cache) else _NO

    return ground


def _chain(c) -> tuple[list, list[int], dict[str, list[int]]]:
    """c's conjuncts; the positions of those that are not >= k :l . d with
    k >= 1; and the positions of those that are, by the label l."""
    chain, plain, stepping = conjuncts(c), [], {}
    for i, k in enumerate(chain):
        steps = isinstance(k, QualPath) and k.count >= 1 and isinstance(k.path, EdgeLabel)
        (stepping.setdefault(k.path.name, []) if steps else plain).append(i)
    return chain, plain, stepping


class GroundInstance:
    """One (graph, shapes) pair compiled into one circuit.

    Atoms are variables 0 .. atoms - 1 in canonical (shape, element) order,
    and `gates[i]` is atom i's equation; the variables after them are the
    shared gates those equations read, each after every gate it reads.
    Every variable that is not an atom has a reader.
    `readers[v]` lists the gates that read variable v, and `targets` holds
    the sorted ids of the target atoms.  Paths are evaluated through one
    shared cache.
    """

    def __init__(self, g: PropertyGraph, shapes: ShapeSet):
        self.atoms = sorted_atoms(g, shapes)
        self.index = index = {a: i for i, a in enumerate(self.atoms)}
        self.targets = tuple(index[a] for a in target_atoms(g, shapes))
        self.gates = gates = [None] * len(self.atoms)
        ground = _grounding(g, index.get, gates)
        roots = [
            ground(shapes.get(a.shape).constraint, a.element, a.kind)
            for a in self.atoms
        ]
        # Only now do the atoms take their gates, so that inlining never
        # mistook a reference to an atom for a gate.  An atom whose equation
        # is a gate's literal takes over that gate's (k, literals).
        gates[:len(roots)] = [_equation(lit, gates) for lit in roots]
        # Keep only the gates some equation reads (not those taken over or
        # inlined), in order: each reads below it, so one sweep down finds them.
        n = len(roots)
        live = [True] * n + [False] * (len(gates) - n)
        for v in [*range(n), *range(len(gates) - 1, n - 1, -1)]:
            if live[v]:
                for lit in gates[v][1]:
                    live[lit >> 1] = True
        if not all(live):
            number = [i - 1 for i in accumulate(live)]
            gates[:] = [(k, tuple(2 * number[lit >> 1] | lit & 1 for lit in lits))
                        for (k, lits), kept in zip(gates, live) if kept]
        self.readers: list[list[int]] = [[] for _ in gates]
        for v, (_, lits) in enumerate(gates):
            for lit in lits:
                self.readers[lit >> 1].append(v)

    def evaluate(self, values) -> list[TruthValue]:
        """Every atom's equation under `values`, a sequence indexed by atom
        id: the shared gates first, in ascending order."""
        atoms, gates = len(self.atoms), self.gates
        full = list(values) + [UNKNOWN] * (len(gates) - atoms)
        for v in range(atoms, len(gates)):
            full[v] = _gate_value(gates[v], full)
        return [_gate_value(gate, full) for gate in gates[:atoms]]

    def holds(self, values) -> bool:
        """Every equation and every target holds under a total `values`."""
        return (all(values[i] is TRUE for i in self.targets)
                and self.evaluate(values) == list(values))

    def least_fixed_point(self) -> list[TruthValue]:
        """The least solution of the circuit in the knowledge order, one
        value per variable.

        Worklist evaluation from all-unknown: a variable is re-evaluated
        only when one its gate reads changes.  Every gate is monotone in the
        knowledge order, so each variable changes at most once, from
        unknown to its final value, and the run makes at most |variables| +
        |literals| evaluations.  First in, first out: a wide gate whose inputs
        change one after another is evaluated once they have, not per input.
        """
        gates, readers = self.gates, self.readers
        values = [UNKNOWN] * len(gates)
        queued = [True] * len(gates)
        pending = deque(range(len(gates)))
        while pending:
            v = pending.popleft()
            queued[v] = False
            value = _gate_value(gates[v], values)
            if value is not values[v]:
                values[v] = value
                for r in readers[v]:
                    if not queued[r]:
                        queued[r] = True
                        pending.append(r)
        return values


def least_fixed_point(g: PropertyGraph, shapes: ShapeSet) -> Assignment:
    """The minimal-information solution of the evaluation equations.

    Grounds the instance once, then runs GroundInstance.least_fixed_point.
    The result satisfies the two equation conditions; targets may still sit
    at unknown or false.
    """
    ground = GroundInstance(g, shapes)
    return Assignment(dict(zip(ground.atoms, ground.least_fixed_point())))
