"""Conformance: search for a strictly faithful assignment.

Three entry points share one canonical ordering contract: atoms in
(shape, element) order, candidate values tried yes, no, maybe.  Under the
default configuration find_faithful_assignment, the first assignment of
enumerate_faithful_assignments, and brute_force_conformance all produce the
same witness, so the backtracking engine can be cross-checked against plain
enumeration.

Each instance is grounded once (semantics.GroundInstance): the search, its
dependency sets and the least fixed point all read the grounded equations
by atom id.  Brute force takes only its pinned atoms from the grounding and
checks every leaf with the AST evaluator.

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
from itertools import product
from typing import Iterator, Mapping

from .errors import BudgetExceeded, TooLarge
from .graph import PropertyGraph
from .semantics import (
    FALSE,
    TRUE,
    UNKNOWN,
    Assignment,
    Atom,
    FaithfulnessChecker,
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


@dataclass
class SolverStats:
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


def _dependency_order(deps: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Atom ids with dependencies before their dependents: the strongly
    connected components of the dependency graph in Tarjan's emit order,
    canonical order inside each component."""
    return tuple(
        i for component in strongly_connected(deps) for i in sorted(component)
    )


class _Budget:
    def __init__(self, config: SolverConfig, stats: SolverStats):
        self.config = config
        self.stats = stats
        self.started = time.monotonic()

    def spend_branch(self):
        self.stats.branches += 1
        limit = self.config.max_branches
        if limit is not None and self.stats.branches > limit:
            raise BudgetExceeded(
                f"branch limit {limit} exhausted", stats=self.stats
            )

    def finish(self):
        self.stats.elapsed = time.monotonic() - self.started


class _Instance:
    """Shared precomputation for one (graph, shapes) pair: one grounding,
    its fixed point, and the search order over atom ids."""

    def __init__(self, g: PropertyGraph, shapes: ShapeSet, config: SolverConfig):
        self.ground = GroundInstance(g, shapes)
        self.atoms = self.ground.atoms
        self.targets = self.ground.targets
        if config.atom_order == "dependency":
            self.order = _dependency_order(self.ground.deps)
        else:
            self.order = tuple(range(len(self.atoms)))
        self.lfp = self.ground.least_fixed_point()
        self.fixed_point = Assignment(dict(zip(self.atoms, self.lfp)))

    def pinned_values(
        self, use_fixed_point: bool = True
    ) -> tuple[dict[int, TruthValue], bool]:
        """Forced values by atom id (targets and fixed-point decisions), and
        whether the fixed point refutes a target.  Without use_fixed_point
        only atoms whose equation reads no atom are forced."""
        pinned = dict.fromkeys(self.targets, TRUE)
        refuted = False
        if use_fixed_point:
            forced = enumerate(self.lfp)
        else:
            # Assignment-independent atoms are still forced to their value.
            forced = (
                (i, self.ground.evaluate(i, ()))
                for i, ds in enumerate(self.ground.deps) if not ds
            )
        for i, v in forced:
            if v is UNKNOWN:
                continue
            if pinned.get(i, v) is not v:
                refuted = True  # target pinned yes, its equation says no
            else:
                pinned[i] = v
        return pinned, refuted

    def violated_targets(self) -> tuple[Atom, ...]:
        return tuple(self.atoms[i] for i in self.targets if self.lfp[i] is not TRUE)


def _search(
    inst: _Instance, pinned: Mapping[int, TruthValue], budget: _Budget
) -> Iterator[dict[Atom, TruthValue]]:
    """All strictly faithful assignments, lexicographically by atom order.

    Chronological backtracking with forced-value propagation.  An unassigned
    atom whose dependencies are all decided is pinned by its equation; an
    assigned atom whose dependencies complete later is re-checked against
    its equation, so dead branches fall off as early as possible.  Branch
    points live on an explicit stack, so the depth is not bounded by the
    interpreter's recursion limit.
    """
    ground = inst.ground
    deps, dependents, evaluate = ground.deps, ground.dependents, ground.evaluate
    order = inst.order
    stats = budget.stats
    sigma: list[TruthValue | None] = [None] * len(inst.atoms)
    trail: list[int] = []

    def assign(i: int, value: TruthValue):
        sigma[i] = value
        trail.append(i)

    def undo(mark: int):
        while len(trail) > mark:
            sigma[trail.pop()] = None

    def ready(i: int) -> bool:
        return all(sigma[d] is not None for d in deps[i])

    def settle(queue: list[int]) -> bool:
        """Propagate consequences of freshly assigned atoms."""
        while queue:
            for d in dependents[queue.pop()]:
                if not ready(d):
                    continue
                value = evaluate(d, sigma)
                if sigma[d] is not None:
                    if sigma[d] is not value:
                        return False
                    continue
                required = pinned.get(d)
                if required is not None and required is not value:
                    return False
                stats.propagations += 1
                assign(d, value)
                queue.append(d)
        return True

    def seed() -> bool:
        queue: list[int] = []
        for i, value in pinned.items():
            assign(i, value)
            queue.append(i)
        for i in order:
            if sigma[i] is None and ready(i):
                stats.propagations += 1
                assign(i, evaluate(i, sigma))
                queue.append(i)
        if not settle(queue):
            return False
        # Equations of pre-assigned atoms with no open dependencies never
        # surface in the dependent walk; verify them once up front.
        return all(
            evaluate(i, sigma) is sigma[i]
            for i in order if sigma[i] is not None and ready(i)
        )

    def skip(position: int) -> int:
        while position < len(order) and sigma[order[position]] is not None:
            position += 1
        return position

    # One [position, next value index, trail mark] per open branch point.
    frames: list[list[int]] = []

    def advance() -> int | None:
        """Take the next value at the innermost open branch point; the
        position to continue from, or None once every point is exhausted."""
        while frames:
            frame = frames[-1]
            atom, mark = order[frame[0]], frame[2]
            required = pinned.get(atom)
            while frame[1] < len(VALUE_ORDER):
                value = VALUE_ORDER[frame[1]]
                frame[1] += 1
                if required is not None and value is not required:
                    continue
                budget.spend_branch()
                undo(mark)
                assign(atom, value)
                if settle([atom]):
                    return skip(frame[0] + 1)
            undo(mark)
            frames.pop()
        return None

    if not seed():
        return
    position = skip(0)
    while position is not None:
        if position == len(order):
            stats.leaf_checks += 1
            if ground.holds(sigma):
                yield dict(zip(inst.atoms, sigma))
        else:
            frames.append([position, 0, len(trail)])
        position = advance()


def _start(
    g: PropertyGraph, shapes: ShapeSet, config: SolverConfig
) -> tuple[_Instance, dict[int, TruthValue], bool, _Budget]:
    """The setup find and enumerate share: the instance, its pinned values,
    whether a target is refuted, and a budget whose stats are filled in."""
    inst = _Instance(g, shapes, config)
    pinned, refuted = inst.pinned_values()
    stats = SolverStats(
        atoms=len(inst.atoms), targets=len(inst.targets), pinned=len(pinned)
    )
    return inst, pinned, refuted, _Budget(config, stats)


def enumerate_faithful_assignments(
    g: PropertyGraph,
    shapes: ShapeSet,
    limit: int | None = None,
    config: SolverConfig | None = None,
) -> list[Assignment]:
    """Faithful assignments in canonical order, up to limit."""
    inst, pinned, refuted, budget = _start(g, shapes, config or SolverConfig())
    found: list[Assignment] = []
    try:
        if not refuted:
            for sigma in _search(inst, pinned, budget):
                found.append(Assignment(sigma))
                if limit is not None and len(found) >= limit:
                    break
    finally:
        budget.finish()
    return found


def find_faithful_assignment(
    g: PropertyGraph,
    shapes: ShapeSet,
    config: SolverConfig | None = None,
) -> ValidationReport:
    """Decide conformance; on success the witness is the canonically first
    faithful assignment (under the default configuration)."""
    inst, pinned, refuted, budget = _start(g, shapes, config or SolverConfig())
    witness = None
    try:
        if not refuted:
            sigma = next(_search(inst, pinned, budget), None)
            witness = None if sigma is None else Assignment(sigma)
    finally:
        budget.finish()
    if witness is not None:
        return ValidationReport(True, witness, (), inst.fixed_point, budget.stats)
    return ValidationReport(
        False, None, inst.violated_targets(), inst.fixed_point, budget.stats
    )


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

    Pins only what is provably forced (targets to yes; atoms that never read
    the assignment to their evaluation), then tries every combination in
    canonical order.  Raises TooLarge above config.max_atoms atoms.
    """
    config = config or SolverConfig()
    stats = SolverStats()
    start = time.monotonic()
    checker = FaithfulnessChecker(g, shapes)
    ordered = checker.atoms
    stats.atoms = len(ordered)
    stats.targets = len(checker.target_atoms)
    if len(ordered) > config.max_atoms:
        raise TooLarge(
            f"{len(ordered)} atoms exceed the brute-force cap {config.max_atoms}"
        )
    inst = _Instance(g, shapes, config)
    pinned, refuted = inst.pinned_values(use_fixed_point=False)
    stats.pinned = len(pinned)
    witness = None
    if not refuted:
        forced = {ordered[i]: v for i, v in pinned.items()}
        free = [a for a in ordered if a not in forced]
        for combo in product(VALUE_ORDER, repeat=len(free)):
            stats.leaf_checks += 1
            sigma = dict(forced)
            sigma.update(zip(free, combo))
            if checker.holds(sigma):
                witness = Assignment(sigma)
                break
    stats.elapsed = time.monotonic() - start
    if witness is not None:
        return ValidationReport(True, witness, (), inst.fixed_point, stats)
    return ValidationReport(
        False, None, inst.violated_targets(), inst.fixed_point, stats
    )
