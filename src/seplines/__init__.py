"""seplines: separating planar point sets by lines.

Exact-arithmetic library and CLI for computing, approximating, and
empirically studying point-set separability: the minimum number of lines
needed to strictly separate every pair of points.
"""

from .geom import (
    CanonicalLine,
    DegeneratePairError,
    Point,
    intersect_lines,
    line_through,
    orient,
    pt,
    side,
)
from .sepsys import (
    CandidateLines,
    GeneralPositionError,
    PointSet,
    PreconditionError,
    PropernessError,
    SeparationMode,
    TooFewPointsError,
    candidate_lines,
    find_unseparated_pair,
    properize,
)
from .solvers import (
    SizeCapError,
    SolveResult,
    SolverError,
    VerificationError,
    WeightState,
    exact_separability,
    greedy_hitting_set,
    grid_separator,
    halving_separator,
    reweight_approx,
    solve,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalLine",
    "CandidateLines",
    "DegeneratePairError",
    "GeneralPositionError",
    "Point",
    "PointSet",
    "PreconditionError",
    "PropernessError",
    "SeparationMode",
    "SizeCapError",
    "SolveResult",
    "SolverError",
    "TooFewPointsError",
    "VerificationError",
    "WeightState",
    "candidate_lines",
    "exact_separability",
    "find_unseparated_pair",
    "greedy_hitting_set",
    "grid_separator",
    "halving_separator",
    "intersect_lines",
    "line_through",
    "orient",
    "properize",
    "pt",
    "reweight_approx",
    "side",
    "solve",
    "verify",
]
