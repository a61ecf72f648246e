"""Independent answers for the benchmark's instances.

Nothing here imports pgshapes.  Every expected verdict comes from the
generator's own structures: cycle parity, a small DPLL solver for the CNF
instances, and plain breadth-first search plus set logic for the rest.
"""

from __future__ import annotations

from collections import deque


def reach(adj: dict[str, list[str]], start: str, reflexive: bool) -> set[str]:
    """Nodes reachable from start over adj: one or more steps, or zero or
    more when reflexive."""
    seen: set[str] = {start} if reflexive else set()
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def cycle_colourable(n: int) -> bool:
    """A directed n-cycle can be properly 2-coloured exactly when n is even."""
    return n % 2 == 0


def dpll(clauses: list[tuple[int, ...]]) -> bool:
    """Satisfiability of a CNF given as tuples of non-zero ints (DIMACS style)."""

    def solve(cls: list[frozenset[int]]) -> bool:
        while True:
            if not cls:
                return True
            if any(not c for c in cls):
                return False
            unit = next((c for c in cls if len(c) == 1), None)
            if unit is None:
                break
            (lit,) = unit
            cls = simplify(cls, lit)
        counts: dict[int, int] = {}
        for c in cls:
            for lit in c:
                counts[lit] = counts.get(lit, 0) + 1
        lit = max(counts, key=lambda x: (counts[x], -abs(x), x))
        return solve(simplify(cls, lit)) or solve(simplify(cls, -lit))

    def simplify(cls, lit):
        return [c - {-lit} for c in cls if lit not in c]

    return solve([frozenset(c) for c in clauses])
