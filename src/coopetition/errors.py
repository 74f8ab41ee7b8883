"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: a failed ``paper-demo`` check
(:class:`DemoCheckError`) exits 1, schema problems exit 2, unsupported
analyses exit 3, solver refusals (:class:`SolverRefusal`) exit 4, I/O
failures exit 5.
"""

from __future__ import annotations

__all__ = [
    "CoopetitionError",
    "GameFileError",
    "UnsupportedGameError",
    "SolverRefusal",
    "DegenerateProblem",
    "NoIntersection",
    "EmptyFeasibleSet",
    "SameHalfPlane",
    "EmptyPortion",
    "MissingInitialZ",
    "DemoCheckError",
]


class CoopetitionError(Exception):
    """Base class for all toolkit errors."""


class GameFileError(CoopetitionError):
    """A game file failed to parse or violates the documented schema."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)


class UnsupportedGameError(CoopetitionError):
    """The requested analysis is not defined for this game shape."""


class SolverRefusal(CoopetitionError):
    """A solver declined the problem as posed; the CLI exits 4."""


class DegenerateProblem(SolverRefusal):
    """A bargaining problem has no usable threat/utopia pair."""


class NoIntersection(SolverRefusal):
    """No boundary point lies close enough to the threat-utopia segment."""


class EmptyFeasibleSet(SolverRefusal):
    """No boundary point weakly improves on the disagreement point."""


class SameHalfPlane(SolverRefusal):
    """Threat and utopia do not straddle the transferable-utility line."""


class EmptyPortion(SolverRefusal):
    """No transferable-utility point improves on the reference point."""


class MissingInitialZ(CoopetitionError):
    """The operation needs a game with a marked initial cooperative strategy."""


class DemoCheckError(CoopetitionError):
    """A built-in scenario assertion failed; the CLI exits 1."""
