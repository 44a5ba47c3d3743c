"""Optimal real-valued prefix-code lengths for max/average length trade-offs.

The core object is a piecewise-linear schedule describing how the smallest
source probabilities merge into one shared weight as the trade-off parameter
alpha grows; ``-log`` of the resulting weights are the optimal codeword
lengths.  Length-capped coding, an exponential-moment pay-off family, and a
water-level formulation are built on (and cross-checked against) the same
schedule.
"""

__version__ = "0.1.0"

from .codes import (
    CodeLengths,
    PayoffReport,
    default_alpha_grid,
    entropy,
    lengths_from_weights,
    optimal_code,
    payoff,
    payoff_curve,
)
from .distributions import (
    ProbabilityVector,
    canonicalize,
    from_counts,
    load_distribution,
)
from .errors import (
    AllZeroCounts,
    AlphaOutOfRange,
    BadRadix,
    EmptyInput,
    Infeasible,
    InvalidParam,
    MergeCodeError,
    NoConvergence,
    NotNormalizable,
    ParseError,
    SizeMismatch,
    TooLarge,
    ZeroProbability,
)
from .exponential import (
    ExpPayoffReport,
    TiltedSolution,
    closed_form_alpha1,
    payoff_t,
    renyi_entropy,
    solve_two_parameter,
)
from .extension import ExtensionReport, extend, extension_bounds
from .limited import LimitedCodeResult, alpha_for_limit, limited_code
from .merging import (
    MergeSchedule,
    WeightVector,
    build_schedule,
    merged_cardinality,
    weights_at,
)
from .waterfilling import WaterLevel, alpha_for_level, water_level, waterfill_weights

__all__ = [
    "__version__",
    # distributions
    "ProbabilityVector", "canonicalize", "from_counts", "load_distribution",
    # merging rule
    "MergeSchedule", "WeightVector", "build_schedule", "weights_at",
    "merged_cardinality",
    # codes and pay-offs
    "CodeLengths", "PayoffReport", "lengths_from_weights", "payoff",
    "optimal_code", "payoff_curve", "default_alpha_grid", "entropy",
    # limited length
    "LimitedCodeResult", "alpha_for_limit", "limited_code",
    # exponential pay-off
    "TiltedSolution", "ExpPayoffReport", "solve_two_parameter",
    "closed_form_alpha1", "renyi_entropy", "payoff_t",
    # waterfilling
    "WaterLevel", "water_level", "waterfill_weights", "alpha_for_level",
    # extensions
    "ExtensionReport", "extend", "extension_bounds",
    # errors
    "MergeCodeError", "EmptyInput", "ZeroProbability", "NotNormalizable",
    "BadRadix", "AllZeroCounts", "ParseError", "AlphaOutOfRange",
    "SizeMismatch", "InvalidParam", "TooLarge", "Infeasible", "NoConvergence",
]
