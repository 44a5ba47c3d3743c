"""Minimum average length under a hard cap on the maximum length.

The cap maps to the alpha at which the merged block's shared weight grows
to ``D**-l_lim``, where the longest codeword fits: the merging rule's one
level/cap inversion, which ``waterfilling.alpha_for_level`` uses too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeLengths, lengths_from_weights
from .distributions import ProbabilityVector
from .errors import Infeasible, InvalidParam
from .merging import (
    MergeSchedule,
    WeightVector,
    _alpha_for_shared_weight,
    build_schedule,
    weights_at,
)

# Caps within this of the no-compression length log_D(n) map straight to
# alpha_max; anything lower is infeasible, and resolving the segment line
# there would divide by a vanishing unmerged mass.
EXACT_LIMIT_WINDOW = 1e-12


@dataclass(frozen=True, eq=False)
class LimitedCodeResult:
    l_lim: float
    alpha_hat: float
    feasible: bool
    weights: WeightVector
    lengths: CodeLengths
    avg_length: float


def alpha_for_limit(
    p: ProbabilityVector,
    l_lim: float,
    schedule: MergeSchedule | None = None,
) -> float:
    """Smallest alpha whose maximum codeword length is at most ``l_lim``.

    Three regimes: a cap at or above the unconstrained maximum length needs
    no trade-off (alpha 0); a cap equal to log_D(n) forces the uniform code
    (alpha_max); in between, the cap pins the shared weight to
    ``D**-l_lim``.

    Raises Infeasible (carrying log_D(n)) for caps below log_D(n).
    """
    l_lim = float(l_lim)
    if not np.isfinite(l_lim) or l_lim <= 0:
        raise InvalidParam(f"length cap must be positive, got {l_lim}")
    if schedule is None:
        schedule = build_schedule(p)
    probs = p.probs
    n = probs.size
    lnD = np.log(p.radix)
    uncapped_max = -np.log(float(probs[-1])) / lnD
    no_compression = np.log(n) / lnD

    if l_lim >= uncapped_max:
        return 0.0
    if l_lim < no_compression - EXACT_LIMIT_WINDOW:
        raise Infeasible(
            f"no code on {n} symbols has maximum length below "
            f"{no_compression:.12g}; requested {l_lim:.12g}",
            min_achievable=no_compression,
        )
    if l_lim <= no_compression + EXACT_LIMIT_WINDOW:
        return schedule.alpha_max
    return _alpha_for_shared_weight(
        probs, schedule.wstar_at_breakpoint, p.radix ** (-l_lim)
    )


def limited_code(
    p: ProbabilityVector,
    l_lim: float,
    schedule: MergeSchedule | None = None,
) -> LimitedCodeResult:
    """Solve the capped problem end to end; Infeasible propagates."""
    if schedule is None:
        schedule = build_schedule(p)
    alpha = alpha_for_limit(p, l_lim, schedule)
    w = weights_at(schedule, p, alpha)
    lengths = lengths_from_weights(w, p.radix)
    return LimitedCodeResult(
        l_lim=float(l_lim),
        alpha_hat=alpha,
        feasible=True,
        weights=w,
        lengths=lengths,
        avg_length=float(np.dot(p.probs, lengths.real_lengths)),
    )
