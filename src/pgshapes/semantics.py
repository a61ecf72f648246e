"""Three-valued constraint evaluation and strictly faithful assignments.

Truth values are the three-point chain false < unknown < true.  Negation
flips the chain, conjunction is the minimum; both are exact enum operations,
no floating point anywhere.  A shape reference never recurses into the
referenced constraint: it reads the current assignment, which is what makes
evaluation total in the presence of recursive (even negated) references.

Constraints have one evaluator: _grounding writes each connective's rule
once, turning a constraint at an element into a circuit with one gate kind,
"at least k of these literals hold", whose inputs are the atoms.  It
compiles each (constraint object, kind) once, at its first use, into a
function from an element to a literal: the switch on each subterm's type,
its conjunct split, its path and the memo of its operands are settled
then, and _leaf turns each core form that reads no assignment into a test
once.  Validation runs that function at every element of the shape's kind.
A shape reference compiles through the caller's resolver: a GroundInstance
reads the atom's id as its block's start plus the element's place in its
kind's sorted ids, with no atom built or hashed, and eval_node_constraint /
eval_edge_constraint read the assignment they are given.  A subterm shared
by two paths to it is one gate, so the circuit grows with the constraint,
not with its unfolding; a GroundInstance keeps only the gates its equations
read, so every variable that is not an atom has a reader.  The least fixed
point, the search, brute force, is_strictly_faithful and
eval_node_constraint / eval_edge_constraint all read that circuit,
computing gates in ascending order without recursion.  Atoms are numbered
in canonical order, shapes by name and each one's elements from the graph's
sorted node or edge ids, with no sort.  Grounding, search and printing read
only those numbers; an Atom is built when a caller reads one
(GroundInstance.atoms, an Assignment iterated or compared, a violated target).

Paths have one engine.  A path that is one label step is a lookup in the
label's adjacency.  Any other path object compiles into a Thompson
automaton over the graph's per-label adjacency, and its first evaluation
answers every source at once: the strongly connected components of the
product of graph and automaton, taken in reverse topological order, give
each (node, state) pair the bitset of nodes it reaches.  All sources
together cost O(|Q| * (|V| + |E|)) plus the bitset unions; an evaluation
without a shared cache pays that once for its one source.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter
from typing import Callable, Iterator, Mapping

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
    strongly_connected,
)
from .values import Value, compare_sets, compare_values


class TruthValue(enum.IntEnum):
    """The three-point chain; the int encoding makes min() the conjunction."""

    FALSE = 0
    UNKNOWN = 1
    TRUE = 2

    # A member is its int code: it indexes a tuple without enum's `value`.
    def negate(self) -> "TruthValue":
        return (TRUE, UNKNOWN, FALSE)[self]

    @property
    def word(self) -> str:
        return ("no", "maybe", "yes")[self]

    @property
    def numeric_text(self) -> str:
        return ("0", "0.5", "1")[self]


FALSE, UNKNOWN, TRUE = TruthValue.FALSE, TruthValue.UNKNOWN, TruthValue.TRUE


@dataclass(frozen=True, slots=True)
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
    """An immutable total map from atoms to truth values.

    The solver's assignments (_by_id) hold a grounding's blocks and a value
    per atom id.  They build their dict of Atoms when iterated or compared;
    a lookup before that reads the atom's block (GroundInstance.blocks).
    """

    __slots__ = ("_blocks", "_ids", "_dict")

    def __init__(self, values: Mapping[Atom, TruthValue]):
        checked = dict(values)  # copying a dict reuses its keys' hashes
        for atom, v in checked.items():
            if not isinstance(atom, Atom):
                raise TypeError(f"not an atom: {atom!r}")
            if type(v) is not TruthValue:
                if type(v) is not int:  # bool and float compare equal to codes
                    raise TypeError(f"not a truth value: {v!r}")
                checked[atom] = TruthValue(v)
        self._blocks, self._ids, self._dict = None, None, checked

    @classmethod
    def _by_id(cls, blocks, values: list[TruthValue]) -> "Assignment":
        """values[i] for atom i of blocks, with no Atom built."""
        sigma = cls.__new__(cls)
        sigma._blocks, sigma._ids, sigma._dict = blocks, values, None
        return sigma

    def _atoms(self) -> dict[Atom, TruthValue]:
        if self._dict is None:
            self._dict = dict(zip(map(Atom, *_columns(self._blocks)), self._ids))
        return self._dict

    def __getitem__(self, atom: Atom) -> TruthValue:
        if self._dict is None and type(atom) is Atom and type(atom.element) is str:
            start, xs = self._blocks.get((atom.shape, atom.kind), (0, ()))
            i = bisect_left(xs, atom.element)
            if i < len(xs) and xs[i] == atom.element:
                return self._ids[start + i]
            raise KeyError(atom)
        return self._atoms()[atom]

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms())

    def __len__(self) -> int:
        return len(self._ids if self._dict is None else self._dict)

    def items(self):
        return self._atoms().items()

    def _rows(self) -> Iterator[tuple[str, str, str, TruthValue]]:
        """(shape, element, kind, value) of every atom, in order."""
        if self._blocks is not None:
            return zip(*_columns(self._blocks), self._ids)
        return ((a.shape, a.element, a.kind, v) for a, v in self._dict.items())

    def __repr__(self) -> str:
        rows = sorted(self._rows(), key=itemgetter(0, 1))
        inner = ", ".join(f"{shape}({x})={v.word}" for shape, x, _, v in rows)
        return f"Assignment({inner})"


def atoms(g: PropertyGraph, shapes: ShapeSet) -> frozenset[Atom]:
    """All (shape, element) pairs of matching kind."""
    return frozenset(
        Atom(s.name, x, s.kind) for s in shapes for x in (g.nodes if s.kind == NODE else g.edges)
    )


def _blocks(g: PropertyGraph, shapes: ShapeSet) -> list[tuple[Shape, tuple[str, ...]]]:
    """Each shape in name order with its kind's sorted ids: canonical order."""
    return [(s, g.nodes if s.kind == NODE else g.edges)
            for s in sorted(shapes, key=lambda s: s.name)]


def _columns(blocks) -> tuple[Iterator[str], Iterator[str], Iterator[str]]:
    """The shape, element and kind of each atom of blocks, in id order."""
    return (chain.from_iterable(repeat(s, len(xs)) for (s, _), (_, xs) in blocks.items()),
            chain.from_iterable(xs for _, xs in blocks.values()),
            chain.from_iterable(repeat(k, len(xs)) for (_, k), (_, xs) in blocks.items()))


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
    return tuple(
        Atom(s.name, x, s.kind)
        for s, _ in _blocks(g, shapes) for x in sorted(target_elements(g, s))
    )


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
    return _reached(g, n, p, _cache if _cache is not None else {})[0]


def _reached(g, n, p, cache) -> tuple[frozenset[str], tuple[str, ...]]:
    """eval_path without the node check: the nodes n reaches over p, as a
    set and in node order."""
    return _reach(g, p, cache).get(n, _NOWHERE)


def _reach(g, p, cache) -> dict[str, tuple[frozenset[str], tuple[str, ...]]]:
    """Each source's answer to _reached over p; a node that reaches nothing
    may be absent.

    The first evaluation of a path object answers every source, and `cache`
    maps id(p) to p and those answers (keyed by identity, because hashing a
    PathExpr recurses through the whole expression).  A path that is one
    label step reads the label's answers from the graph, which builds them
    once from the label's adjacency, or holds them from path elimination
    for a fresh label; any other path costs one pass, O(|Q| * (|V| + |E|))
    plus the bitset unions, for all sources together.
    """
    entry = cache.get(id(p))
    if entry is None:
        if type(p) is EdgeLabel:
            found = g._targets(p.name)
        else:
            found = _every_source(g, p)
        entry = cache[id(p)] = (p, found)
    return entry[1]


def _both(members) -> tuple[frozenset[str], tuple[str, ...]]:
    """Nodes listed in node order, as a set and as that tuple."""
    members = tuple(members)
    return frozenset(members), members


_NOWHERE = _both(())


def _every_source(g, p) -> dict[str, tuple[frozenset[str], tuple[str, ...]]]:
    """The nodes each node reaches over p, from one pass over the product
    of the graph and p's automaton (Purdom, BIT 1970; Nuutila, 1995).

    Product vertex (node i, state s) is s * |V| + i, with start state 0.
    strongly_connected emits each component after every component it
    reaches, so one sweep in emit order gives every vertex the bitset (bit i
    for node i of the sorted g.nodes) of the nodes at which it reaches an
    accepting state: its component's accepting members' bits, OR'd with its
    successors' bitsets.  Each distinct bitset of a start vertex is listed
    once, shared by every source it belongs to; the vertex bitsets are
    dropped with the pass.
    """
    automaton = _automaton(g, p)
    nodes = g.nodes
    width = len(nodes)
    position = {x: i for i, x in enumerate(nodes)}
    number = {s: i for i, s in enumerate(automaton)}  # the start state is 0
    succ: list = [()] * (width * len(number))
    own = [0] * len(succ)  # the bit an accepting vertex contributes itself
    for s, (accepting, steps) in automaton.items():
        base = number[s] * width
        if accepting:
            own[base:base + width] = [1 << i for i in range(width)]
        for adjacency, t in steps:
            into = number[t] * width
            for x, pairs in adjacency.items():
                v = base + position[x]
                if not succ[v]:
                    succ[v] = []
                succ[v] += [into + position[m] for _, m in pairs]
    bits = [0] * len(succ)
    for component in strongly_connected(succ):
        b = 0
        for v in component:
            b |= own[v]
            for w in succ[v]:
                b |= bits[w]
        for v in component:
            bits[v] = b
    # Bit i is flag i of the reversed binary digits, so compress lists the
    # members in node order.
    flags = bytes.maketrans(b"01", b"\0\1")
    listed: dict[int, tuple] = {}
    reached = {}
    for x, b in zip(nodes, bits):
        both = listed.get(b)
        if both is None:
            both = listed[b] = _both(compress(nodes, bin(b)[:1:-1].encode().translate(flags)))
        reached[x] = both
    return reached


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


# ---------------------------------------------------------------------------
# Predicates


def matches_predicate(f: ValuePredicate, v: Value) -> bool:
    t = type(f)
    if t is TypeIs:
        return v.type_name == f.type_name
    if t is Cmp:
        return compare_values(f.op, v, f.constant)
    if t is AnyValue:
        return True
    if t is PredAnd:
        # The chain comes apart on a list: no operand is a conjunction, and
        # only `!` nests a recursive call.
        return all(matches_predicate(k, v) for k in conjuncts(f, PredAnd, PredNot))
    if t is PredNot:
        return not matches_predicate(f.inner, v)
    raise TypeError(f"not a value predicate: {f!r}")


# ---------------------------------------------------------------------------
# Constraint evaluation


def eval_node_constraint(
    g: PropertyGraph,
    sigma: Mapping[Atom, TruthValue],
    n: str,
    c: Constraint,
) -> TruthValue:
    if not g.has_node(n):
        raise UnknownElement(f"no such node: {n!r}")
    return _eval_at(g, sigma, c, n, NODE)


def eval_edge_constraint(
    g: PropertyGraph,
    sigma: Mapping[Atom, TruthValue],
    e: str,
    c: Constraint,
) -> TruthValue:
    if not g.has_edge(e):
        raise UnknownElement(f"no such edge: {e!r}")
    return _eval_at(g, sigma, c, e, EDGE)


def _eval_at(g, sigma, c, x, kind) -> TruthValue:
    """c at x under sigma: grounded with the atoms it reads as inputs, and
    a reference to an atom sigma gives no value raises DomainMismatch."""
    gates: list = []
    inputs: dict[Atom, int] = {}

    def reference(name: str, atom_kind: str) -> Callable[[str], int]:
        def variable(y: str) -> int:
            atom = Atom(name, y, atom_kind)
            if atom not in sigma:
                raise _outside(atom)
            v = inputs.get(atom)
            if v is None:
                v = inputs[atom] = len(gates)
                gates.append(None)
            return 2 * v

        return variable

    [lit] = _grounding(g, reference, gates, [(c, kind, (x,))])
    values = [UNKNOWN] * len(gates)
    for atom, v in inputs.items():
        values[v] = sigma[atom]
    for v, gate in enumerate(gates):  # each gate after the ones it reads
        if gate is not None:
            values[v] = _gate_value(gate, values)
    return _gate_value(_equation(lit, gates), values)


def _leaf(g, c, cache) -> Callable[[str], bool]:
    """The test x -> whether c holds at x, for a core form that reads no
    assignment: these are the only forms grounding folds, so every folded
    constant is yes or no.  One switch on the form's type, made once per
    subterm; a form that is not core raises when the test runs."""
    t = type(c)
    if t is HasLabel:
        return _labelled(g, c).__contains__
    if t is QualKey:
        key, predicate, count = c.key, c.predicate, c.count

        def holds(x: str) -> bool:
            hits = sum(1 for v in g.property_values(x, key) if matches_predicate(predicate, v))
            return hits >= count
    elif t is Top:
        def holds(x: str) -> bool:
            return True
    elif t is Exact:
        def holds(x: str) -> bool:
            return c.element == x
    elif t is PathCmp:
        def holds(x: str) -> bool:
            return compare_sets(
                c.op, _reached(g, x, c.first, cache)[0], _reached(g, x, c.second, cache)[0]
            )
    elif t is PathKeyCmp:
        def holds(x: str) -> bool:
            left = frozenset(
                v
                for m in _reached(g, x, c.first_path, cache)[1]
                for v in g.property_values(m, c.first_key)
            )
            right = frozenset(
                v
                for m in _reached(g, x, c.second_path, cache)[1]
                for v in g.property_values(m, c.second_key)
            )
            return compare_sets(c.op, left, right)
    elif t is KeyCmp:
        def holds(x: str) -> bool:
            return compare_sets(
                c.op, g.property_values(x, c.first_key), g.property_values(x, c.second_key)
            )
    else:
        def holds(x: str) -> bool:
            raise TypeError(f"cannot evaluate {t.__name__} (desugar first)")
    return holds


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
    atoms = ground.atoms
    given, wanted = frozenset(sigma), frozenset(atoms)
    if given != wanted:
        parts = [f"{word} {', '.join(map(str, sorted(odd, key=Atom.sort_key)[:3]))}"
                 for word, odd in (("missing", wanted - given), ("extra", given - wanted))
                 if odd]
        raise DomainMismatch("assignment domain is not the atom set: "
                             + "; ".join(parts))
    values = [sigma[a] for a in atoms]
    # (condition, atom id, detail) of every failure; the least is reported.
    failures = [
        (1 + (atoms[i].kind == EDGE), i, f"{atoms[i]} is {v.word} but evaluates {e.word}")
        for i, (v, e) in enumerate(zip(values, ground.evaluate(values))) if v is not e
    ]
    failures += [
        (3 + (atoms[i].kind == EDGE), i, f"target {atoms[i]} is {values[i].word}, not yes")
        for i in ground.targets if values[i] is not TRUE
    ]
    if not failures:
        return FaithfulnessVerdict(True)
    cond, i, detail = min(failures)
    return FaithfulnessVerdict(False, cond, atoms[i], detail)


# ---------------------------------------------------------------------------
# Grounding
#
# A grounded instance is a circuit with one gate kind, (k, literals): "at
# least k of the literals hold".  Literal 2v reads variable v and 2v + 1 its
# negation; _YES and _NO are the constants, so `^ 1` negates every literal.
# The inputs of a circuit have no gate (None) while grounding runs: in a
# GroundInstance they are the atoms, variables 0 .. atoms - 1, and each takes
# its equation as its gate only once every atom is grounded.  _grounding
# holds the rule for each connective once and compiles each (constraint
# object, kind) once into a function x -> literal, which holds its type's
# rule, its operands' functions and its path; an operand that moves to
# another element runs once per (subterm, element) behind a memo, so a
# shared subterm is one gate, built after every gate it reads.  Every
# subterm that reads no input is a _leaf, folded to a constant, so paths,
# labels, keys and value predicates are evaluated once per instance, never
# again per assignment.  A path count over a label test or true counts the
# reached nodes in the label's set, or all of them, with no literal per node.

_YES, _NO = -1, -2
# The core forms that can read the assignment; _leaf decides all others.
_READERS = frozenset({ShapeRef, Not, And, QualPath, QualIncoming, QualOutgoing, Src, Dst})
# The operands whose compiled function needs no memo (see moved).
_UNMEMOISED = frozenset({ShapeRef, HasLabel, Top})


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


def _grounding(g: PropertyGraph, reference, gates: list, jobs) -> list[int]:
    """Ground each (constraint, kind, elements) of `jobs` into the circuit
    `gates`, appending the gates it builds: the literal of the constraint at
    each element, job after job.  Inside, compiled(c, kind) is the function
    x -> literal that grounds c at an element x of kind `kind`.

    reference(name, kind) compiles a shape reference: the function x -> the
    literal of atom (name, x), which raises DomainMismatch for an atom
    outside the instance.  Paths share one cache (see _reach).
    """
    cache: dict = {}
    functions: dict[tuple, Callable[[str], int]] = {}
    memoised: dict[tuple, Callable[[str], int]] = {}
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
        if count == 1 and len(lits) == 1:  # the one literal itself
            return lits[0]
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

    def moved(c: Constraint, kind: str) -> Callable[[str], int]:
        """compiled(c, kind) for an operand that moves to other elements,
        run once per element, so that a shared subterm is one gate.  A
        reference, a label test or true builds no gate and costs less than
        a memo, so it runs as it is."""
        if type(c) in _UNMEMOISED:
            return compiled(c, kind)
        key = (id(c), kind)
        ground = memoised.get(key)
        if ground is None:
            run, memo = compiled(c, kind), {}

            def ground(x: str) -> int:
                lit = memo.get(x)
                if lit is None:
                    lit = memo[x] = run(x)
                return lit

            memoised[key] = ground
        return ground

    def compiled(c: Constraint, kind: str) -> Callable[[str], int]:
        """c's function x -> literal at elements of kind `kind`, built at
        its first use and kept by the object's identity."""
        key = (id(c), kind)
        ground = functions.get(key)
        if ground is not None:
            return ground
        # One switch on the type, first to the forms that read no assignment.
        t = type(c)
        if t not in _READERS:
            holds = _leaf(g, c, cache)

            def ground(x: str) -> int:
                return _YES if holds(x) else _NO
        elif t is ShapeRef:
            ground = reference(c.name, kind)
        elif t is Not and type(c.inner) is not Not:
            operand = compiled(c.inner, kind)

            def ground(x: str) -> int:
                return operand(x) ^ 1
        elif t is And or t is Not:
            # A conjunction chain (| included) comes apart on a list, once
            # per object.  Every operand is grounded before folding, so a
            # reference outside the atom set raises even beside a false
            # operand.  An operand >= k :l . d (k >= 1) at a node without an
            # l edge grounds nothing and makes the chain no.  Once per chain,
            # the labels l a node has are read from their adjacencies, or from
            # its edges if the graph has fewer edges than nodes times labels l.
            chain, plain, stepping = _chain(c)
            operands = list(map(compiled, chain, repeat(kind)))
            width = len(chain)

            def ground(x: str) -> int:
                return at_least(width, [operand(x) for operand in operands])

            if stepping and kind == NODE:
                every = ground
                by_label = len(stepping) * len(g.nodes) <= len(g.edges)
                steps = [(g.label_adjacency(l, OUTGOING), where)
                         for l, where in stepping.items()] if by_label else []

                def ground(x: str) -> int:
                    if by_label:
                        have = [where for adjacency, where in steps if x in adjacency]
                    else:
                        labels = {l for e, _ in g.adjacent_edges(x, OUTGOING)
                                  for l in g.labels_of(e)}
                        have = [stepping[l] for l in labels if l in stepping]
                    if len(have) < len(stepping):
                        for i in sorted(plain + [i for where in have for i in where]):
                            operands[i](x)
                        return _NO
                    return every(x)
        elif t is Src or t is Dst:
            operand, end = moved(c.inner, NODE), 0 if t is Src else 1

            def ground(x: str) -> int:
                return operand(g.endpoints(x)[end])
        elif t is QualPath:
            # The path's answers are read at its first run.  Over a label
            # test or true the count is of the reached nodes in the label's
            # set, or of all of them, which is what grounding each would
            # fold to.
            least, path, reach = c.count, c.path, None
            inner = type(c.inner)
            if inner is HasLabel or inner is Top:
                members = _labelled(g, c.inner) if inner is HasLabel else None

                def ground(x: str) -> int:
                    nonlocal reach
                    if reach is None:
                        reach = _reach(g, path, cache)
                    reached = reach.get(x, _NOWHERE)[0]
                    held = len(reached if members is None else members.intersection(reached))
                    return _YES if held >= least else _NO
            else:
                operand = moved(c.inner, NODE)

                def ground(x: str) -> int:
                    nonlocal reach
                    if reach is None:
                        reach = _reach(g, path, cache)
                    return at_least(least, list(map(operand, reach.get(x, _NOWHERE)[1])))
        else:  # QualIncoming or QualOutgoing
            least, direction = c.count, INCOMING if t is QualIncoming else OUTGOING
            operand = moved(c.inner, EDGE)

            def ground(x: str) -> int:
                return at_least(least, [operand(e) for e, _ in g.adjacent_edges(x, direction)])
        functions[key] = ground
        return ground

    try:
        roots: list[int] = []
        for c, kind, xs in jobs:
            roots += map(compiled(c, kind), xs)
        return roots
    finally:
        # compiled and moved reach themselves through these cells.  Emptied,
        # they leave no cycle: the compiled functions, their tables and the
        # path cache go by reference counting, not at a collection.
        del compiled, moved


def _labelled(g: PropertyGraph, c: HasLabel) -> frozenset[str]:
    """The nodes and edges at which label test c holds."""
    return g.by_label.get(c.label, frozenset())


def _outside(atom: Atom) -> DomainMismatch:
    return DomainMismatch(f"assignment has no value for {atom}")


def _chain(c) -> tuple[list, list[int], dict[str, list[int]]]:
    """c's conjuncts; the positions of those that are not >= k :l . d with
    k >= 1; and, by the label l, the positions of those that are."""
    chain, plain, stepping = conjuncts(c), [], {}
    for i, k in enumerate(chain):
        steps = isinstance(k, QualPath) and k.count >= 1 and isinstance(k.path, EdgeLabel)
        (stepping.setdefault(k.path.name, []) if steps else plain).append(i)
    return chain, plain, stepping


class GroundInstance:
    """One (graph, shapes) pair compiled into one circuit.

    Atoms are variables 0 .. atom_count - 1 in canonical (shape, element)
    order, shapes by name, each with its kind's sorted ids, and are grounded
    in that order, each shape's constraint compiled once and run at each
    element.  `blocks` maps each shape's (name, kind) to its first atom id
    and those ids: atom (s, x) is s's first id + x's place in them.  Only
    `atoms` builds Atoms, on first read.
    `gates[i]` is atom i's equation; the variables after them are the shared
    gates those equations read, each after every gate it reads.  Every
    variable that is not an atom has a reader.  `readers[v]` lists the gates
    that read variable v, and `targets` holds the sorted ids of the target
    atoms.  Paths are evaluated through one shared cache.
    """

    def __init__(self, g: PropertyGraph, shapes: ShapeSet):
        blocks = _blocks(g, shapes)
        # A target's id is its block's start plus its place in the sorted ids.
        targets, start, self.blocks = [], 0, {}
        for s, xs in blocks:
            targets += sorted(start + bisect_left(xs, x) for x in target_elements(g, s))
            self.blocks[s.name, s.kind] = start, xs
            start += len(xs)
        self.atom_count, self.targets = start, tuple(targets)
        literals: dict[tuple, Callable[[str], int]] = {}

        def reference(name: str, kind: str) -> Callable[[str], int]:
            """x -> 2 * (name's block start + x's place in it), one table
            per shape."""
            if (name, kind) not in literals:
                if (name, kind) in self.blocks:
                    first, xs = self.blocks[name, kind]
                    table = dict(zip(xs, range(2 * first, 2 * (first + len(xs)), 2)))
                    literals[name, kind] = table.__getitem__
                else:
                    def outside(x: str) -> int:
                        raise _outside(Atom(name, x, kind))

                    literals[name, kind] = outside
            return literals[name, kind]

        self.gates = gates = [None] * start
        roots = _grounding(g, reference, gates, [(s.constraint, s.kind, xs) for s, xs in blocks])
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
            # A dead tail goes as it is; only a dead gate below a live one
            # moves the gates above it.  renumbered[lit] is lit's literal
            # once the dead gates are gone.
            del gates[len(live) - live[::-1].index(True):]
            if not all(live[:len(gates)]):
                number = [2 * i - 2 for i in accumulate(live)]
                renumbered = [0] * (2 * len(number))
                renumbered[0::2] = number
                renumbered[1::2] = [lit + 1 for lit in number]
                relit = renumbered.__getitem__
                gates[:] = [(k, tuple(map(relit, lits))) for k, lits in compress(gates, live)]
        self.readers: list[list[int]] = [[] for _ in gates]
        for v, (_, lits) in enumerate(gates):
            for lit in lits:
                self.readers[lit >> 1].append(v)

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """Every atom, in id order."""
        return tuple(map(Atom, *_columns(self.blocks)))

    def atom(self, i: int) -> Atom:
        """Atom i, built from its block."""
        for (name, kind), (start, xs) in self.blocks.items():
            if 0 <= i < start + len(xs):
                return Atom(name, xs[i - start], kind)
        raise IndexError("atom id out of range")

    def assignment(self, values: list[TruthValue]) -> Assignment:
        """The assignment of values[i] to atom i, with no Atom built."""
        return Assignment._by_id(self.blocks, values[:self.atom_count])

    def evaluate(self, values) -> list[TruthValue]:
        """Every atom's equation under `values`, a sequence indexed by atom
        id: the shared gates first, in ascending order."""
        atoms, gates = self.atom_count, self.gates
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
    return ground.assignment(ground.least_fixed_point())
