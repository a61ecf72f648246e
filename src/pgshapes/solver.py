"""Conformance: search for a strictly faithful assignment.

Three entry points share one canonical ordering contract: atoms in
(shape, element) order, candidate values tried yes, no, maybe.  Under the
default configuration find_faithful_assignment, the first assignment of
enumerate_faithful_assignments, and brute_force_conformance all produce the
same witness, so the backtracking engine can be cross-checked against plain
enumeration.

Each instance is grounded once into a circuit of at-least gates
(semantics.GroundInstance): the least fixed point, the dependency order,
the search's constraints and every leaf check read that circuit by
variable id, and brute force checks its leaves against it too.  Values
stay lists by atom id up to the report, whose assignments hold them with
the grounding's blocks: a run builds Atoms only for its violated targets.

The search writes each three-valued variable as two bits and each gate as
at-least constraints over them (_Network), propagates them in both
directions and learns clauses from conflicts, as a CDCL SAT solver does,
but decides atoms in the canonical order and values in the canonical order
and never restarts.  Its set-up reads only the part of the circuit the
fixed point leaves open, each gate where it sits: one walk from the open
atoms finds the open gates and the decided gates they read, then one pass
merges the gates that copy or negate one operand and one more writes the
rest as constraints, target clauses and their watches.  Propagation and
learning remove only values that no strictly faithful assignment takes,
so the witness is the one plain enumeration finds (see _search).

Soundness of the pinning shortcuts:
 - every target atom is pinned to yes (faithfulness demands it);
 - an atom whose equation reads no atom has one possible value (both
   engines);
 - the least fixed point of the evaluation equations bounds every solution
   from below in the knowledge order, so an atom decided there carries that
   value in every solution, and an undecided target can only come true in
   some solution, never in the fixed point itself (search only).
Pinned atoms take forced values, so the set of faithful assignments and
their lexicographic order are unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator, Mapping

from .errors import BudgetExceeded, TooLarge
from .graph import NODE, PropertyGraph
from .semantics import (
    FALSE,
    TRUE,
    UNKNOWN,
    Assignment,
    Atom,
    GroundInstance,
    TruthValue,
)
from .shapes import ShapeSet, strongly_connected

VALUE_ORDER = (TRUE, FALSE, UNKNOWN)


@dataclass
class SolverConfig:
    atom_order: str = "default"        # "default" (canonical) or "dependency"
    max_atoms: int = 12                # brute-force size cap
    max_branches: int | None = None

    def __post_init__(self):
        if self.atom_order not in ("default", "dependency"):
            raise ValueError(f"bad atom order: {self.atom_order!r}")
        if self.max_atoms < 0 or (self.max_branches or 0) < 0:
            raise ValueError("max_atoms and max_branches must not be negative")


@dataclass
class SolverStats:
    """Counters of one run.  `branches` counts values tried at branch points
    (what the budget limits), `propagations` counts atom bits set by
    propagation or by a learned clause (an atom merged into another one's
    bits counts once, under that one), `leaf_checks` counts total
    assignments checked against the circuit, and `elapsed` is the run's
    wall time in seconds.
    """

    atoms: int = 0
    targets: int = 0
    pinned: int = 0
    branches: int = 0
    propagations: int = 0
    leaf_checks: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class ValidationReport:
    conforms: bool
    witness: Assignment | None
    violated_targets: tuple[Atom, ...]
    fixed_point: Assignment
    stats: SolverStats

    def __bool__(self) -> bool:
        return self.conforms


def _dependency_order(ground: GroundInstance) -> tuple[int, ...]:
    """Atom ids with dependencies before their dependents: the strongly
    connected components of the circuit (a variable reads the variables of
    its gate) in Tarjan's emit order, canonical order inside each one."""
    reads = [[lit >> 1 for lit in lits] for _, lits in ground.gates]
    return tuple(
        v for component in strongly_connected(reads) for v in sorted(component)
        if v < ground.atom_count
    )


class _Instance:
    """One run over a (graph, shapes) pair: one grounding, its fixed point,
    the search order over atom ids, the atoms pin() forces, and the run's
    stats and branch budget.  Every entry point that returns a
    ValidationReport builds it with report()."""

    def __init__(self, g: PropertyGraph, shapes: ShapeSet, config: SolverConfig):
        self.ground = GroundInstance(g, shapes)
        self.count = self.ground.atom_count
        self.targets = self.ground.targets
        dependency = config.atom_order == "dependency"
        self.order = _dependency_order(self.ground) if dependency else range(self.count)
        self.lfp = self.ground.least_fixed_point()
        self.limit = config.max_branches
        self.stats = SolverStats(atoms=self.count, targets=len(self.targets))
        self.started = time.monotonic()

    def pin(self, forced: Iterable[tuple[int, TruthValue]]) -> None:
        """Pin every target to yes and each atom id of forced to its value
        (unknown pins nothing); refuted once a target is forced otherwise."""
        self.pinned = pinned = dict.fromkeys(self.targets, TRUE)
        self.refuted = False
        for i, v in forced:
            if v is UNKNOWN:
                continue
            if pinned.get(i, v) is not v:
                self.refuted = True  # target pinned yes, its equation says no
            else:
                pinned[i] = v
        self.stats.pinned = len(pinned)

    def spend_branch(self) -> None:
        self.stats.branches += 1
        if self.limit is not None and self.stats.branches > self.limit:
            self.finish()
            raise BudgetExceeded(f"branch limit {self.limit} exhausted", stats=self.stats)

    def finish(self) -> None:
        self.stats.elapsed = time.monotonic() - self.started

    def report(self, witness: list[TruthValue] | None) -> ValidationReport:
        """Finish the run: it conforms with the witness, values by atom id,
        or fails on the targets the fixed point does not make true."""
        self.finish()
        ground, lfp = self.ground, self.lfp
        if witness is not None:
            return ValidationReport(True, ground.assignment(witness), (),
                                    ground.assignment(lfp), self.stats)
        violated = tuple(ground.atom(i) for i in self.targets if lfp[i] is not TRUE)
        return ValidationReport(False, None, violated, ground.assignment(lfp), self.stats)


# Truth values by their int codes (false 0, unknown 1, true 2).
_TRUTH = (FALSE, UNKNOWN, TRUE)


class _Network:
    """The circuit of one search as at-least constraints over pairs of bits,
    propagated and learned from as in a CDCL SAT solver.

    Its variables are the circuit's (semantics.GroundInstance): atoms
    0 .. atoms - 1, then the shared gates.  Each entry of `constraints` is
    a variable out whose gate (k, literals) is read where it sits in the
    circuit: out is the verdict "at least k of the operands hold", literal
    2w reading variable w as it is and 2w + 1 reading it negated.  Only
    variables the least fixed point leaves unknown get a constraint, and
    only those an open atom reads, through open gates, in the order one
    walk from the open atoms meets them: a decided variable keeps its value
    in every total extension of the fixed point (every gate is monotone in
    the knowledge order), so its gate holds whatever the open atoms take,
    and one that an open gate reads is bound to its value.

    Bits.  Variable v is two bits, "v is at least unknown" (bit 2v) and "v
    is true" (bit 2v + 1), the second implying the first: false is (0, 0),
    unknown (1, 0), true (1, 1).  Literal 2b is bit b and 2b + 1 its
    negation, so 4v, 4v + 1, 4v + 2, 4v + 3 read "v >= unknown", "v is
    false", "v is true", "v <= unknown".  In Kleene logic "at least k of the
    operands" is true iff at least k operands are true, and at least unknown
    iff at least k are at least unknown, while not-x is true iff x is
    false and at least unknown iff x is not true.  So each constraint splits
    into two Boolean ones, out's bit <-> at least k of the operands' bits
    of the same layer, a negated operand contributing the negation of its
    bit of the other layer.

    Two shortcuts keep the Boolean form small.  A constraint "at least 1 of
    one operand" makes out equal to the operand or to its negation, so the
    two share the bits of one representative variable (root, negated).
    And a target is pinned true, whose true layer implies the other one,
    so it keeps only the true layer, which is a clause when k is 1.

    Propagation counts, per Boolean constraint, the operands known true and
    known false when their literals are taken off the trail, and fires:
     - at least k known true: out is true; out false: conflict;
     - more than m - k known false: out is false; out true: conflict;
     - out true and exactly m - k known false: the open operands are true;
     - out false and exactly k - 1 known true: the open operands are false;
    together with "v is true" -> "v >= unknown" on every variable, and unit
    propagation over the clauses (two watched literals each).  Each implied
    literal keeps as its reason the other literals of a clause the
    constraints entail, all of them false when it fires, and a conflict
    yields an entailed clause with every literal false; learn() resolves it
    to the first unique implication point.
    """

    def __init__(
        self,
        ground: GroundInstance,
        lfp: list[TruthValue],
        pinned: Mapping[int, TruthValue],
        stats: SolverStats,
    ):
        gates = ground.gates
        self.atom_count = atoms = ground.atom_count
        self.atom_lits = 4 * atoms
        self.stats = stats
        nvars = len(gates)
        # The open variables that open atoms read, through open gates, one
        # walk that reads each gate where it is; `decided` collects the
        # decided gates they read, which are bound to their values below.
        self.constraints = constraints = []
        work = [i for i in range(atoms) if lfp[i] is UNKNOWN]
        visited = bytearray(nvars)
        decided = []
        while work:
            out = work.pop()
            constraints.append(out)
            for lit in gates[out][1]:
                w = lit >> 1
                if w >= atoms and not visited[w]:
                    visited[w] = 1
                    (work if lfp[w] is UNKNOWN else decided).append(w)

        # A constraint "out = at least 1 of one operand" makes out equal to
        # the operand or to its negation: both become one representative
        # variable, root[v] read under negated[v].  A variable equal to its
        # own negation is unknown.
        root = list(range(nvars))
        negated = [0] * nvars

        def find(v: int) -> tuple[int, int]:
            flip = 0
            while root[v] != v:
                up = root[v]
                if root[up] != up:      # path halving
                    root[v], negated[v] = root[up], negated[v] ^ negated[up]
                flip ^= negated[v]
                v = root[v]
            return v, flip

        unknown, merged, rest = [], [], []
        for out in constraints:
            k, lits = gates[out]
            if k == 1 and len(lits) == 1:
                (r, fr), (q, fq) = find(out), find(lits[0] >> 1)
                if r != q:
                    root[q], negated[q] = r, fr ^ fq ^ lits[0] & 1
                    merged.append(q)
                elif fr ^ fq != lits[0] & 1:
                    unknown.append(r)
            else:
                rest.append(out)
        # used[w]: representative w carries bits (it is merged or occurs in
        # a constraint); a pinned atom that is not read keeps no bits.
        used = bytearray(nvars)
        for v in merged:
            root[v], negated[v] = find(v)
            used[root[v]] = 1
        self.root, self.negated = root, negated

        # Two Boolean constraints per remaining constraint, over literals of
        # representatives: the "true" layer, then the "at least unknown"
        # layer, each with the operands read as they are before the negated
        # ones.  Negating a variable swaps its layers and negates its bits,
        # which is literal ^ 3.  A target's out is pinned true, and operand
        # bits of the true layer imply those of the other, so a target needs
        # only the true layer, and when one operand is needed that is a
        # clause of "is true" and "is false" literals, no two complementary,
        # watched at once unless it is a unit.
        self.lits: list[tuple[int, ...]] = []
        self.out: list[int] = []
        self.need: list[int] = []
        # Constraints by operand literal and by out bit; () where none.
        self.occurs: list = [()] * (4 * nvars)
        self.outs: list = [()] * (2 * nvars)
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        occurs, outs, clauses, watches = self.occurs, self.outs, self.clauses, self.watches
        units = []
        for out in rest:
            k, operands = gates[out]
            target = pinned.get(out) is TRUE
            ordered = operands
            for x in operands:
                if x & 1:
                    ordered = sorted(operands, key=(1).__and__)
                    break
            for plain in (2, 0)[:2 - target]:
                lits = tuple(
                    4 * root[x >> 1] + (plain ^ 3 * (negated[x >> 1] ^ x & 1)) for x in ordered
                )
                for lit in lits:
                    used[lit >> 2] = 1
                if target and k == 1:
                    # Only operands with one representative can repeat a literal.
                    clause = list(dict.fromkeys(lits)) if len(set(lits)) < len(lits) else list(lits)
                    if len(clause) == 1:
                        units.append(clause)
                    else:
                        for lit in clause[:2]:
                            watches.setdefault(lit, []).append(len(clauses))
                        clauses.append(clause)
                    continue
                o = 4 * root[out] + (plain ^ 3 * negated[out])
                used[o >> 2] = 1
                c = len(self.lits)
                self.lits.append(lits)
                self.out.append(o)
                self.need.append(k)
                for lit in lits:
                    if occurs[lit]:
                        occurs[lit].append(c)
                    else:
                        occurs[lit] = [c]
                if outs[o >> 1]:
                    outs[o >> 1].append(c)
                else:
                    outs[o >> 1] = [c]
        self.slack = [len(lits) - k for lits, k in zip(self.lits, self.need)]
        self.true_count = [0] * len(self.lits)
        self.false_count = [0] * len(self.lits)

        self.value = [-1] * (4 * nvars)       # per literal: 1, 0 or -1 (open)
        self.level = [0] * (2 * nvars)        # per bit
        self.reason: list = [None] * (2 * nvars)
        self.trail: list[int] = []
        self.head = 0                         # trail literals propagated
        self.levels: list[int] = []           # trail length at each decision
        self.seen: list[bool] | None = None
        self.conflict = None
        self.pinned = pinned
        # The known bits wait on the trail for propagate(): the variables
        # equal to their negation, then the pinned atoms and decided gates.
        bounds = [(v, UNKNOWN) for v in unknown]
        known = [*pinned.items(), *((v, lfp[v]) for v in sorted(decided))]
        bounds += ((i, x) for i, x in known if used[root[i]])
        for v, x in bounds:
            if not self.narrow(v, x, x):
                self.conflict = []
                return
        value, need, slack, out = self.value, self.need, self.slack, self.out
        for clause in units:
            if value[clause[0]] == 0:
                self.conflict = clause
                return
            if value[clause[0]] < 0:
                self._set(clause[0], clause)
        for c in range(len(self.lits)):
            # Counts are 0: only a bound of 0 or an out already decided at
            # a bound of the count can fire.
            known = value[out[c]]
            if (need[c] <= 0 or slack[c] < 0 or (known == 1 and not slack[c])
                    or (known == 0 and need[c] == 1)):
                self.conflict = self._revise(c)
                if self.conflict is not None:
                    return

    def values(self) -> list[TruthValue]:
        """The atoms' values once every atom is decided."""
        value, root, negated, pinned = self.value, self.root, self.negated, self.pinned
        # A representative's bits sum to its int code; negation is 2 - code.
        return [
            pinned[a] if a in pinned
            else _TRUTH[abs(2 * negated[a] - value[4 * root[a]] - value[4 * root[a] + 2])]
            for a in range(self.atom_count)
        ]

    def _set(self, lit: int, why) -> None:
        """Set an open literal true at the current level with a reason."""
        value = self.value
        value[lit] = 1
        value[lit ^ 1] = 0
        self.level[lit >> 1] = len(self.levels)
        self.reason[lit >> 1] = why
        self.trail.append(lit)

    def _imply(self, lit: int, why) -> None:
        """_set for a literal that propagation derived."""
        self._set(lit, why)
        if lit < self.atom_lits:
            self.stats.propagations += 1

    def _force(self, c: int, truth: int) -> None:
        """Out of constraint c is decided and its count sits at the bound:
        every open operand takes the value `truth` (1 true, 0 false)."""
        value, lits, out, imply = self.value, self.lits[c], self.out[c], self._imply
        if truth:
            why = [out ^ 1] + [lit for lit in lits if not value[lit]]
            for lit in lits:
                if value[lit] < 0:
                    imply(lit, why)
        else:
            why = [out] + [lit ^ 1 for lit in lits if value[lit] == 1]
            for lit in lits:
                if value[lit] < 0:
                    imply(lit ^ 1, why)

    def _revise(self, c: int) -> list[int] | None:
        """Apply the firing rules of constraint c to its present counts; the
        conflict clause if one breaks."""
        value, lits, out = self.value, self.lits[c], self.out[c]
        known = value[out]
        if self.true_count[c] >= self.need[c]:
            if known < 1:
                why = [lit ^ 1 for lit in lits if value[lit] == 1]
                if known == 0:
                    return why + [out]
                self._imply(out, why)
        elif self.false_count[c] > self.slack[c]:
            if known != 0:
                why = [lit for lit in lits if value[lit] == 0]
                if known == 1:
                    return why + [out ^ 1]
                self._imply(out ^ 1, why)
        elif known == 1 and self.false_count[c] == self.slack[c]:
            self._force(c, 1)
        elif known == 0 and self.true_count[c] == self.need[c] - 1:
            self._force(c, 0)
        return None

    def open_level(self) -> None:
        self.levels.append(len(self.trail))

    def decide(self, lit: int) -> None:
        """Open a level and set lit; a "true" or "false" literal comes with
        its companion bit, so that the variable's value is fixed."""
        self.open_level()
        self._set(lit, None)
        if 0 < lit & 3 < 3:
            companion = lit - 2 if lit & 2 else lit + 2
            if self.value[companion] < 0:
                self._set(companion, (lit ^ 1,))

    def narrow(self, v: int, low: int, high: int) -> bool:
        """Confine variable v to [low, high] at the current level, setting
        both bits of each bound that a bound fixes, read through v's
        representative; False if that contradicts what is already known."""
        base, flip = 4 * self.root[v], 3 * self.negated[v]
        for bit in ((), (0,), (0, 2))[low] + ((3, 1), (3,), ())[high]:
            lit = base + (bit ^ flip)
            if self.value[lit] == 0:
                return False
            if self.value[lit] < 0:
                self._set(lit, ())
        return True

    def propagate(self) -> list[int] | None:
        """Propagate every literal on the trail; a conflict clause (every
        literal false) or None once nothing more follows."""
        if self.conflict is not None:
            conflict, self.conflict = self.conflict, None
            return conflict
        value, trail, watches, clauses = self.value, self.trail, self.watches, self.clauses
        occurs, outs, out_of = self.occurs, self.outs, self.out
        need, slack, true_count, false_count = (
            self.need, self.slack, self.true_count, self.false_count
        )
        imply, revise = self._imply, self._revise
        while self.head < len(trail):
            lit = trail[self.head]
            self.head += 1
            false = lit ^ 1
            # Counts first, all of them, so that backtracking can undo a
            # propagated literal whole; a conflict found here waits.
            conflict = None
            for c in occurs[lit]:
                t = true_count[c] + 1
                true_count[c] = t
                if conflict is None:
                    if t == need[c]:
                        if value[out_of[c]] != 1:
                            conflict = revise(c)
                    elif t == need[c] - 1 and not value[out_of[c]]:
                        conflict = revise(c)
            for c in occurs[false]:
                f = false_count[c] + 1
                false_count[c] = f
                if conflict is None:
                    if f > slack[c]:
                        if f == slack[c] + 1 and value[out_of[c]]:
                            conflict = revise(c)
                    elif f == slack[c] and value[out_of[c]] == 1:
                        conflict = revise(c)
            if conflict is not None:
                return conflict
            # "v is true" implies "v >= unknown".
            if 0 < lit & 3 < 3:
                other = lit - 2 if lit & 2 else lit + 2
                known = value[other]
                if known < 0:
                    imply(other, (false,))
                elif not known:
                    return [false, other]
            for c in outs[lit >> 1]:
                conflict = revise(c)
                if conflict is not None:
                    return conflict
            # Clauses watching the literal that just became false.
            watching = watches.get(false)
            if not watching:
                continue
            watches[false] = keep = []
            for n, ci in enumerate(watching):
                clause = clauses[ci]
                if clause[0] == false:
                    clause[0], clause[1] = clause[1], false
                first = clause[0]
                if value[first] == 1:
                    keep.append(ci)
                    continue
                for j in range(2, len(clause)):
                    if value[clause[j]] != 0:
                        clause[1], clause[j] = clause[j], false
                        watches.setdefault(clause[1], []).append(ci)
                        break
                else:
                    keep.append(ci)
                    if value[first] == 0:
                        keep.extend(watching[n + 1:])
                        return clause
                    imply(first, clause)
        return None

    def backtrack(self, depth: int) -> None:
        """Undo every level above depth."""
        if len(self.levels) <= depth:
            return
        start = self.levels[depth]
        value, trail, occurs = self.value, self.trail, self.occurs
        true_count, false_count = self.true_count, self.false_count
        for at in range(len(trail) - 1, start - 1, -1):
            lit = trail[at]
            if at < self.head:
                for c in occurs[lit]:
                    true_count[c] -= 1
                for c in occurs[lit ^ 1]:
                    false_count[c] -= 1
            value[lit] = value[lit ^ 1] = -1
        del trail[start:]
        del self.levels[depth:]
        self.head = min(self.head, start)

    def learn(self, conflict: list[int]) -> int:
        """Resolve a conflict at a level above 0 into a clause with one
        literal of the current level (the first unique implication point),
        backtrack to the highest level among its other literals, add it,
        and set its asserted literal; the level backtracked to."""
        level, reason, trail = self.level, self.reason, self.trail
        if self.seen is None:
            self.seen = [False] * len(level)
        seen = self.seen
        depth = len(self.levels)
        learned = [0]
        marked = []
        pending = 0
        at = len(trail) - 1
        clause, skip = conflict, -1
        while True:
            for q in clause:
                b = q >> 1
                if b == skip or seen[b] or not level[b]:
                    continue
                seen[b] = True
                marked.append(b)
                if level[b] == depth:
                    pending += 1
                else:
                    learned.append(q)
            while not seen[trail[at] >> 1]:
                at -= 1
            lit = trail[at]
            at -= 1
            pending -= 1
            if not pending:
                break
            skip = lit >> 1
            clause = reason[skip]
        for b in marked:
            seen[b] = False
        learned[0] = lit ^ 1
        back = 0
        if len(learned) > 1:
            top = max(range(1, len(learned)), key=lambda j: level[learned[j] >> 1])
            learned[1], learned[top] = learned[top], learned[1]
            back = level[learned[1] >> 1]
        self.backtrack(back)
        self.add_clause(learned)
        return back

    def add_clause(self, clause: list[int]) -> None:
        """Add a clause whose first literal is open and whose second is
        open too, or false like every later one, in which case the first
        is set."""
        if len(clause) > 1:
            self.clauses.append(clause)
            for lit in clause[:2]:
                self.watches.setdefault(lit, []).append(len(self.clauses) - 1)
        if len(clause) == 1 or self.value[clause[1]] == 0:
            self._imply(clause[0], clause)


def _search(inst: _Instance) -> Iterator[list[TruthValue]]:
    """All strictly faithful assignments, lexicographically by atom order,
    each as its values by atom id.

    Pins the targets and the atoms the fixed point decides, and yields
    nothing if that refutes a target.  Each open atom in the search order
    is two choices over the bits of _Network: its "true" literal, else "not
    true"; then its "false" literal, else "unknown", so its values come in
    the order yes, no, maybe.  Each value tried spends one branch of the
    budget, and a choice whose literal is already set is skipped.

    Up to the first leaf the search is conflict-driven clause learning
    without restarts: a conflict adds a learned clause and goes back to
    the level where that clause sets its literal.  After a leaf it is
    depth first: a conflict or a leaf undoes the newest decision and sets
    the other side of its choice, with no reason, on the level below, so
    every level left on the stack is a choice whose first side is being
    explored.  The other side is a "not true" or "unknown" literal, which
    has no companion bit, and nothing is learned after the first leaf, so
    no reason is ever read.  Every leaf is checked against the circuit.
    Choices and the trail live in lists, so the depth is not bounded by the
    interpreter's recursion limit.

    Why the witness does not change: a strictly faithful assignment, with
    each gate taking its value under it, satisfies every constraint and
    every learned clause, which the constraints entail.
    Let S be the first faithful assignment in atom and value order, the
    one plain enumeration meets first.  While every decision agrees with
    S, so does every implied literal, its reason being a clause that S
    satisfies with all other literals false.  A decision that disagrees
    with S gives its atom an earlier value than S while every earlier atom
    agrees with S, so no faithful assignment lies below it, and the search
    (which terminates) leaves it only through a conflict.  So the first
    leaf is S.  From there every choice open on the stack has had only its
    first side explored, and the depth-first walk, which learning no longer
    reorders, meets the remaining assignments in order.
    """
    inst.pin(enumerate(inst.lfp[:inst.count]))
    if inst.refuted:
        return
    ground, stats, pinned = inst.ground, inst.stats, inst.pinned
    net = _Network(ground, inst.lfp, pinned, stats)
    value = net.value
    # Even positions hold an atom's "true" literal, odd ones its "false".
    root, negated = net.root, net.negated
    choices = [
        4 * root[a] + (lit ^ 3 * negated[a])
        for a in inst.order if a not in pinned for lit in (2, 1)
    ]
    frames: list[int] = []      # choice position of each level's decision
    position = 0
    learning = True

    def retreat() -> bool:
        """Undo the newest decision and set the other side of its choice on
        the level below; False once no decision is left."""
        nonlocal position
        if not frames:
            return False
        position = frames.pop()
        net.backtrack(len(frames))
        if position & 1:
            inst.spend_branch()     # "unknown" is tried
        net._set(choices[position] ^ 1, None)
        return True

    while True:
        conflict = net.propagate()
        if conflict is not None:
            if not frames:
                return
            if learning:
                back = net.learn(conflict)
                position = frames[back]
                del frames[back:]
            elif not retreat():
                return
            continue
        while position < len(choices) and value[choices[position]] >= 0:
            position += 1
        if position < len(choices):
            inst.spend_branch()
            frames.append(position)
            net.decide(choices[position])
            continue
        stats.leaf_checks += 1
        values = net.values()
        if ground.holds(values):
            yield values
        learning = False
        if not retreat():
            return


def enumerate_faithful_assignments(
    g: PropertyGraph,
    shapes: ShapeSet,
    limit: int | None = None,
    config: SolverConfig | None = None,
) -> list[Assignment]:
    """Faithful assignments in canonical order, up to limit."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must not be negative: {limit}")
    inst = _Instance(g, shapes, config or SolverConfig())
    return list(map(inst.ground.assignment, islice(_search(inst), limit)))


def find_faithful_assignment(
    g: PropertyGraph,
    shapes: ShapeSet,
    config: SolverConfig | None = None,
) -> ValidationReport:
    """Decide conformance; on success the witness is the canonically first
    faithful assignment (under the default configuration)."""
    inst = _Instance(g, shapes, config or SolverConfig())
    return inst.report(next(_search(inst), None))


def conforms(
    g: PropertyGraph, shapes: ShapeSet, config: SolverConfig | None = None
) -> bool:
    return find_faithful_assignment(g, shapes, config).conforms


def brute_force_conformance(
    g: PropertyGraph,
    shapes: ShapeSet,
    config: SolverConfig | None = None,
) -> ValidationReport:
    """Reference engine: plain enumeration over the unpinned atoms.

    Raises TooLarge above config.max_atoms atoms, before grounding anything.
    Pins only what is provably forced (targets to yes; atoms that never read
    the assignment to their value), then tries every combination in
    canonical order and checks each against the circuit.
    """
    config = config or SolverConfig()
    count = sum(len(g.nodes if s.kind == NODE else g.edges) for s in shapes)
    if count > config.max_atoms:
        raise TooLarge(f"{count} atoms exceed the brute-force cap {config.max_atoms}")
    inst = _Instance(g, shapes, config)
    # An atom whose gate reads nothing is a constant.
    gates = enumerate(inst.ground.gates[:inst.count])
    inst.pin((i, FALSE if k > 0 else TRUE) for i, (k, lits) in gates if not lits)
    witness = None
    if not inst.refuted:
        values = [inst.pinned.get(i) for i in range(inst.count)]
        free = [i for i in range(inst.count) if i not in inst.pinned]
        for combo in product(VALUE_ORDER, repeat=len(free)):
            inst.stats.leaf_checks += 1
            for i, v in zip(free, combo):
                values[i] = v
            if inst.ground.holds(values):
                witness = values
                break
    return inst.report(witness)
