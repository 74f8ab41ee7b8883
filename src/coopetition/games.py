"""Finite two-player bimatrix games with a gain/loss orientation.

A game stores one payoff matrix per player on a shared ``rows x cols``
grid together with an :class:`Orientation` that fixes which direction of
the payoff plane is "better": componentwise greater under ``GAIN``,
componentwise smaller under ``LOSS``.  Best responses and dominance are
read per orientation, so the same code serves both sign conventions.

Equality comparisons inside equilibrium and dominance checks are exact on
the stored doubles: payoff tables are user-specified rationals, not the
result of floating-point computation, and best-response ties are
meaningful (a tied cell still counts as an equilibrium).

All types are immutable after construction and every operation is a pure
function, so values can be shared across threads without synchronization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

__all__ = [
    "Orientation",
    "PayoffPoint",
    "StrategyCell",
    "FiniteBimatrixGame",
    "pure_nash_equilibria",
    "dominant_strategies",
    "conservative_bivalue",
    "translate",
    "negate_orientation",
    "strictly_better",
]


class Orientation(enum.Enum):
    """Direction of preference in the payoff plane."""

    GAIN = "gain"
    LOSS = "loss"

    @property
    def sign(self) -> float:
        """+1.0 when better means greater, -1.0 when better means smaller."""
        return 1.0 if self is Orientation.GAIN else -1.0

    def flipped(self) -> "Orientation":
        return Orientation.LOSS if self is Orientation.GAIN else Orientation.GAIN


@dataclass(frozen=True)
class PayoffPoint:
    """A point of the payoff plane: (player-1 payoff, player-2 payoff)."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p1", float(self.p1))
        object.__setattr__(self, "p2", float(self.p2))
        if not (math.isfinite(self.p1) and math.isfinite(self.p2)):
            raise ValueError(f"payoff point must be finite, got ({self.p1}, {self.p2})")

    def __add__(self, other: "PayoffPoint") -> "PayoffPoint":
        return PayoffPoint(self.p1 + other.p1, self.p2 + other.p2)

    def __sub__(self, other: "PayoffPoint") -> "PayoffPoint":
        return PayoffPoint(self.p1 - other.p1, self.p2 - other.p2)

    def __neg__(self) -> "PayoffPoint":
        return PayoffPoint(-self.p1, -self.p2)

    def __iter__(self) -> Iterator[float]:
        yield self.p1
        yield self.p2

    def as_tuple(self) -> tuple[float, float]:
        return (self.p1, self.p2)

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2])


def strictly_better(p: PayoffPoint, q: PayoffPoint, orientation: Orientation) -> bool:
    """True when ``p`` beats ``q`` strictly in both components.

    This is the strict sup-order of the plane (both inequalities strict),
    the comparison used by win-win checks.
    """
    s = orientation.sign
    return s * p.p1 > s * q.p1 and s * p.p2 > s * q.p2


@dataclass(frozen=True)
class StrategyCell:
    """A pure strategy profile addressed by (row, col) indices."""

    row: int
    col: int

    def __post_init__(self) -> None:
        if self.row < 0 or self.col < 0:
            raise ValueError(f"cell indices must be non-negative, got {self}")


@dataclass(frozen=True, eq=False)
class FiniteBimatrixGame:
    """A finite two-player game: one payoff matrix per player plus orientation."""

    payoff1: np.ndarray
    payoff2: np.ndarray
    orientation: Orientation
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        p1 = np.array(self.payoff1, dtype=float)
        p2 = np.array(self.payoff2, dtype=float)
        if p1.ndim != 2 or p1.shape[0] < 1 or p1.shape[1] < 1:
            raise ValueError(f"payoff1 must be a non-empty matrix, got shape {p1.shape}")
        if p1.shape != p2.shape:
            raise ValueError(f"payoff matrices differ in shape: {p1.shape} vs {p2.shape}")
        if not (np.isfinite(p1).all() and np.isfinite(p2).all()):
            raise ValueError("payoff entries must be finite")
        for name, labels, count in (
            ("row_labels", self.row_labels, p1.shape[0]),
            ("col_labels", self.col_labels, p1.shape[1]),
        ):
            if labels is not None:
                labels = tuple(str(s) for s in labels)
                if len(labels) != count:
                    raise ValueError(f"{name} has {len(labels)} entries for {count} strategies")
                object.__setattr__(self, name, labels)
        p1.flags.writeable = False
        p2.flags.writeable = False
        object.__setattr__(self, "payoff1", p1)
        object.__setattr__(self, "payoff2", p2)

    @property
    def rows(self) -> int:
        return self.payoff1.shape[0]

    @property
    def cols(self) -> int:
        return self.payoff1.shape[1]

    def payoff_at(self, cell: StrategyCell) -> PayoffPoint:
        return PayoffPoint(self.payoff1[cell.row, cell.col], self.payoff2[cell.row, cell.col])

    def label(self, cell: StrategyCell) -> str:
        r = self.row_labels[cell.row] if self.row_labels else str(cell.row)
        c = self.col_labels[cell.col] if self.col_labels else str(cell.col)
        return f"({r},{c})"


def pure_nash_equilibria(game: FiniteBimatrixGame) -> set[StrategyCell]:
    """All cells where each strategy is a weak best response to the other.

    Ties count: a cell where a player merely matches his best attainable
    payoff against the opponent's strategy is still an equilibrium.
    """
    s = game.orientation.sign
    a = s * game.payoff1
    b = s * game.payoff2
    mask = (a == a.max(axis=0, keepdims=True)) & (b == b.max(axis=1, keepdims=True))
    return {StrategyCell(int(r), int(c)) for r, c in zip(*np.nonzero(mask))}


def dominant_strategies(
    game: FiniteBimatrixGame,
    player: int,
    strictness: Literal["weak", "strict"] = "weak",
) -> set[int]:
    """Strategies of ``player`` (1 or 2) dominating every alternative.

    Weak dominance requires being at least as good against every opponent
    strategy; strict dominance requires being strictly better everywhere.
    With identical rows (or columns) every one of them weakly dominates.
    """
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player}")
    if strictness not in ("weak", "strict"):
        raise ValueError(f"strictness must be 'weak' or 'strict', got {strictness!r}")
    s = game.orientation.sign
    # Rows of m are the candidate strategies, columns the opponent's replies.
    m = s * game.payoff1 if player == 1 else (s * game.payoff2).T
    out: set[int] = set()
    for i in range(m.shape[0]):
        others = np.delete(m, i, axis=0)
        if strictness == "weak":
            ok = bool((m[i] >= others).all())
        else:
            ok = bool((m[i] > others).all())
        if ok:
            out.add(i)
    return out


def conservative_bivalue(game: FiniteBimatrixGame) -> PayoffPoint:
    """Each player's guaranteed payoff: maximin for gains, minimax for losses."""
    s = game.orientation.sign
    v1 = s * (s * game.payoff1).min(axis=1).max()
    v2 = s * (s * game.payoff2).min(axis=0).max()
    return PayoffPoint(v1, v2)


def translate(game: FiniteBimatrixGame, v: PayoffPoint) -> FiniteBimatrixGame:
    """Shift every cell's payoff pair by ``v``; orientation and labels kept."""
    return FiniteBimatrixGame(
        game.payoff1 + v.p1,
        game.payoff2 + v.p2,
        game.orientation,
        game.row_labels,
        game.col_labels,
    )


def negate_orientation(game: FiniteBimatrixGame) -> FiniteBimatrixGame:
    """Negate all payoffs and flip gain/loss; the Nash set is unchanged."""
    return FiniteBimatrixGame(
        -game.payoff1,
        -game.payoff2,
        game.orientation.flipped(),
        game.row_labels,
        game.col_labels,
    )
