"""Three-valued constraint evaluation and strictly faithful assignments.

Truth values are the three-point chain false < unknown < true.  Negation
flips the chain, conjunction is the minimum; both are exact enum operations,
no floating point anywhere.  A shape reference never recurses into the
referenced constraint: it reads the current assignment, which is what makes
evaluation total in the presence of recursive (even negated) references.

Constraints have one evaluator: _grounding writes each connective's rule
once, turning a constraint at an element into a grounded node over
references, and _leaf decides the core forms that read no assignment.  The
least fixed point, the search, brute force, is_strictly_faithful and
eval_node_constraint / eval_edge_constraint all read that grounded form.

Paths have one engine: each path object compiles once into a Thompson
automaton over the graph's per-label adjacency, and a search over (node,
state) pairs finds what a source reaches in O(|Q| * (|V| + |E|)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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
    return _value(_grounding(g, _assigned(sigma), _cache)(c, n, NODE), sigma)


def eval_edge_constraint(
    g: PropertyGraph,
    sigma: Mapping[Atom, TruthValue],
    e: str,
    c: Constraint,
    _cache: dict | None = None,
) -> TruthValue:
    if not g.has_edge(e):
        raise UnknownElement(f"no such edge: {e!r}")
    return _value(_grounding(g, _assigned(sigma), _cache)(c, e, EDGE), sigma)


def _assigned(sigma: Mapping[Atom, TruthValue]):
    """References resolve to the atoms themselves, read off sigma later;
    None for an atom sigma gives no value."""
    return lambda atom: atom if atom in sigma else None


def _counted(count: int, values: list[TruthValue], pool: int) -> TruthValue:
    """The at-least-count verdict over a pool of three-valued results.

    True when `count` members already hold; false when even the undecided
    ones could not bring the tally up to `count`; unknown in between.
    """
    satisfied = sum(1 for v in values if v is TRUE)
    refuted = sum(1 for v in values if v is FALSE)
    if satisfied >= count:
        return TRUE
    if pool - refuted < count:
        return FALSE
    return UNKNOWN


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
    for cond, kind in ((1, NODE), (2, EDGE)):
        for i, atom in enumerate(ground.atoms):
            if atom.kind != kind:
                continue
            expected = ground.evaluate(i, values)
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
# A grounded equation is a tree of five node kinds: (CONST, value),
# (REF, reference), (NOT, child), (MIN, children) and (ATLEAST, k,
# children).  _grounding holds the rule for each connective once; a
# reference is an atom id in a GroundInstance and the atom itself in
# eval_node_constraint and eval_edge_constraint.  Every subterm that reads
# no atom is a _leaf, folded to a constant at build time, so paths, labels,
# keys and value predicates are evaluated once per instance, never again per
# assignment.  _value reads a grounded node under values indexed by
# reference: a list for ids, a mapping for atoms.

CONST, REF, NOT, MIN, ATLEAST = range(5)

_NEGATED = (TRUE, UNKNOWN, FALSE)
_TRUE_NODE = (CONST, TRUE)
_FALSE_NODE = (CONST, FALSE)


def _negation(child: tuple) -> tuple:
    if child[0] == CONST:
        return (CONST, _NEGATED[child[1]])
    if child[0] == NOT:
        return child[1]
    return (NOT, child)


def _at_least(count: int, children: list[tuple]) -> tuple:
    """At least `count` of the children hold, constant children folded in.

    Constants are yes or no, because _leaf is two-valued.  A yes child
    lowers the count and a no child leaves the pool, which keeps both
    tallies of _counted; MIN is the case where every child must hold.
    """
    pending = []
    for c in children:
        if c[0] != CONST:
            pending.append(c)
        elif c[1] is TRUE:
            count -= 1
    if count <= 0:
        return _TRUE_NODE
    if len(pending) < count:
        return _FALSE_NODE
    if count == 1 and len(pending) == 1:
        return pending[0]
    if count == len(pending):
        flat: list[tuple] = []
        for c in pending:
            flat.extend(c[1] if c[0] == MIN else (c,))
        return (MIN, tuple(flat))
    return (ATLEAST, count, tuple(pending))


def _grounding(g: PropertyGraph, resolve, cache: dict | None = None):
    """The function that grounds constraint c at element x of kind `kind`.

    A reference to an atom becomes (REF, resolve(atom)), and resolve returns
    None for an atom outside the instance.  Paths are evaluated through
    `cache` (see _reach).
    """
    cache = {} if cache is None else cache
    chains: dict[int, list] = {}

    def ground(c: Constraint, x: str, kind: str) -> tuple:
        if isinstance(c, ShapeRef):
            atom = Atom(c.name, x, kind)
            ref = resolve(atom)
            if ref is None:
                raise DomainMismatch(f"assignment has no value for {atom}")
            return (REF, ref)
        if isinstance(c, Not) and not isinstance(c.inner, Not):
            return _negation(ground(c.inner, x, kind))
        if isinstance(c, (And, Not)):
            # A conjunction chain (| included) comes apart on a list, once
            # per object.  Every operand is grounded before folding, so a
            # reference outside the atom set raises even beside a false
            # operand.
            chain = chains.get(id(c)) or chains.setdefault(id(c), conjuncts(c))
            parts = [ground(k, x, kind) for k in chain]
            return _at_least(len(parts), parts) if len(parts) > 1 else parts[0]
        if isinstance(c, QualPath):
            reached = sorted(_reach(g, x, c.path, cache))
            return _at_least(c.count, [ground(c.inner, m, NODE) for m in reached])
        if isinstance(c, (QualIncoming, QualOutgoing)):
            direction = INCOMING if isinstance(c, QualIncoming) else OUTGOING
            pool = g.adjacent_edges(x, direction)
            return _at_least(c.count, [ground(c.inner, e, EDGE) for e, _ in pool])
        if isinstance(c, (Src, Dst)):
            end = g.endpoints(x)[0 if isinstance(c, Src) else 1]
            return ground(c.inner, end, NODE)
        return _TRUE_NODE if _leaf(g, x, c, cache) else _FALSE_NODE

    return ground


def _references(node: tuple, out: set[int]) -> set[int]:
    """The atom ids a grounded node reads."""
    op = node[0]
    if op == REF:
        out.add(node[1])
    elif op == NOT:
        _references(node[1], out)
    elif op != CONST:
        for c in node[-1]:
            _references(c, out)
    return out


def _value(node: tuple, values) -> TruthValue:
    op = node[0]
    if op == REF:
        return values[node[1]]
    if op == CONST:
        return node[1]
    if op == NOT:
        return _NEGATED[_value(node[1], values)]
    if op == MIN:
        return min(_value(c, values) for c in node[1])
    children = node[2]
    return _counted(node[1], [_value(c, values) for c in children], len(children))


class GroundInstance:
    """One (graph, shapes) pair compiled into a flat equation per atom.

    Atoms are dense ids in canonical (shape, element) order.  `deps[i]` and
    `dependents[i]` are sorted id tuples: the atoms equation i reads, and
    the atoms whose equations read atom i.  `targets` holds the sorted ids
    of the target atoms.  Paths are evaluated through one shared cache.
    """

    def __init__(self, g: PropertyGraph, shapes: ShapeSet):
        self.atoms = sorted_atoms(g, shapes)
        self.index = index = {a: i for i, a in enumerate(self.atoms)}
        self.targets = tuple(index[a] for a in target_atoms(g, shapes))
        ground = _grounding(g, index.get)
        self.equations = [
            ground(shapes.get(a.shape).constraint, a.element, a.kind)
            for a in self.atoms
        ]
        self.deps = [tuple(sorted(_references(eq, set()))) for eq in self.equations]
        dependents: list[list[int]] = [[] for _ in self.atoms]
        for i, ds in enumerate(self.deps):
            for d in ds:
                dependents[d].append(i)
        self.dependents = [tuple(ds) for ds in dependents]

    def evaluate(self, i: int, values) -> TruthValue:
        """Equation i under `values`, a sequence indexed by atom id."""
        return _value(self.equations[i], values)

    def holds(self, values) -> bool:
        """Every equation and every target holds under a total `values`."""
        for i, eq in enumerate(self.equations):
            if _value(eq, values) is not values[i]:
                return False
        return all(values[i] is TRUE for i in self.targets)

    def least_fixed_point(self) -> list[TruthValue]:
        """The least solution of the equations in the knowledge order.

        Worklist evaluation from all-unknown: an atom is re-evaluated only
        when an atom it reads changes.  Every connective is monotone in the
        knowledge order, so each atom changes at most once, from unknown to
        its final value, and the run makes at most |atoms| + |dep edges|
        evaluations.
        """
        values = [UNKNOWN] * len(self.atoms)
        queued = [True] * len(self.atoms)
        pending = list(range(len(self.atoms) - 1, -1, -1))
        equations, dependents = self.equations, self.dependents
        while pending:
            i = pending.pop()
            queued[i] = False
            v = _value(equations[i], values)
            if v is not values[i]:
                values[i] = v
                for d in dependents[i]:
                    if not queued[d]:
                        queued[d] = True
                        pending.append(d)
        return values


def least_fixed_point(g: PropertyGraph, shapes: ShapeSet) -> Assignment:
    """The minimal-information solution of the evaluation equations.

    Grounds the instance once, then runs GroundInstance.least_fixed_point.
    The result satisfies the two equation conditions; targets may still sit
    at unknown or false.
    """
    ground = GroundInstance(g, shapes)
    return Assignment(dict(zip(ground.atoms, ground.least_fixed_point())))
