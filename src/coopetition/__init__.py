"""Coopetitive game analysis toolkit.

Models a two-player coopetitive game as a family of normal-form games
indexed by a jointly chosen cooperative strategy, computes the induced
Nash/conservative/Pareto structures per section and along the cooperative
axis, and solves bargaining-based solution concepts (Kalai-Smorodinsky,
Nash bargaining, transferable utility, proper coopetitive, win-win).
"""

from .bargaining import (
    BargainingProblem,
    SolutionPoint,
    compromise_solution,
    ks_solution,
    nash_bargaining,
    payoff_core,
)
from .coopetitive import (
    CoopetitiveGame,
    SetValuedPath,
    WinWinReport,
    core_supremum,
    family_roundtrip_check,
    induced_path,
    nash_zone,
    proper_coopetitive_solution,
    section_game,
    standard_win_win_solution,
    tu_crossing_solution,
    win_win_report,
)
from .errors import (
    CoopetitionError,
    DegenerateProblem,
    DemoCheckError,
    EmptyFeasibleSet,
    EmptyPortion,
    GameFileError,
    MissingInitialZ,
    NoIntersection,
    SameHalfPlane,
    SolverRefusal,
    UnsupportedGameError,
)
from .games import (
    FiniteBimatrixGame,
    Orientation,
    PayoffPoint,
    StrategyCell,
    conservative_bivalue,
    dominant_strategies,
    negate_orientation,
    pure_nash_equilibria,
    strictly_better,
    translate,
)
from .geometry import (
    ParetoBoundary,
    PayoffMap,
    PointCloud,
    TUBoundary,
    extrema,
    facing_flavor,
    hausdorff_distance,
    lattice_tu,
    orientation_best,
    orientation_worst,
    pareto_filter,
    sample_image,
    tu_boundary,
    tu_line,
)
from .mixed import (
    EquilibriumComponent,
    MixedBistrategy,
    bilinear_map,
    conservative_bivalue_mixed,
    expected_payoff,
    mixed_equilibrium_components,
)

__version__ = "0.1.0"

# Kept for callers that record it; geometry has a single numpy path.
KERNEL_BACKEND = "python"
