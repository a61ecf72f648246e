"""Exception hierarchy shared across the package.

Every error raised on purpose derives from PgShapesError so callers (and the
CLI) can distinguish expected failures from bugs.
"""

from __future__ import annotations


class PgShapesError(Exception):
    """Base class for all errors raised by this package."""


class IdClash(PgShapesError):
    """A node identifier and an edge identifier are the same token."""


class DanglingEdge(PgShapesError):
    """An edge is missing endpoints or references an unknown node."""


class KindMismatch(PgShapesError):
    """A node-kinded name used in an edge position or vice versa."""


class UnknownElement(PgShapesError):
    """An operation referenced a node or edge id that is not in the graph."""


class UnknownShapeName(PgShapesError):
    """A shape reference does not resolve to any shape in the set."""


class ShapeSyntaxError(PgShapesError):
    """Shape text failed to parse.  Carries the offending source span."""

    def __init__(self, message: str, span: object | None = None):
        super().__init__(message)
        self.span = span


class UnsupportedTarget(PgShapesError):
    """Target combinators nest deeper than the single supported level."""


class SchemaError(PgShapesError):
    """A graph document is malformed (missing field, bad type tag, ...)."""


class DomainMismatch(PgShapesError):
    """An assignment's domain is not exactly the atom set of the instance."""


class NotNormalized(PgShapesError):
    """An operation requiring at most one operator per constraint saw more."""


class PathsPresent(PgShapesError):
    """An operation requiring label-only paths saw a composite path."""


class TooLarge(PgShapesError):
    """An input exceeds a size ceiling that is checked before the work
    starts: the brute-force atom cap, or the bytes of constraint terms a
    fact export may spell."""


class BudgetExceeded(PgShapesError):
    """The search ran out of its branch budget before finishing.

    Distinct from a non-conformance verdict: nothing was decided.  `stats`
    is the search's SolverStats at the point it stopped.
    """

    def __init__(self, message: str, stats: object | None = None):
        super().__init__(message)
        self.stats = stats


class UnencodableValue(PgShapesError):
    """A value cannot be rendered in the target format."""


class NameCollision(PgShapesError):
    """Distinct source identifiers would merge under an export renaming."""
