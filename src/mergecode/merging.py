"""The merging rule: breakpoints, merged sets, and transformed weights.

As the trade-off parameter ``alpha`` grows from 0 to 1, the smallest source
probabilities are progressively absorbed into one shared weight.  The
breakpoints where the merged set grows, together with the per-segment line
coefficients, fully describe the transformed weight vector for every alpha,
so they are computed once and reused for all queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ProbabilityVector
from .errors import AlphaOutOfRange


@dataclass(frozen=True, eq=False)
class MergeSchedule:
    """Piecewise-linear description of the weight vector over alpha.

    Segment k covers ``[alphas[k], alphas[k+1])`` and merges the k+1 smallest
    symbols into one weight.  Equal adjacent probabilities produce zero-width
    segments (repeated breakpoints), so the merged set can grow by more than
    one symbol at a single alpha.

    Fields, one entry per segment k = 0 .. n-1:

    - ``alphas``: breakpoints, ``alphas[0] == 0`` and ``alphas[-1]`` equals
      ``alpha_max`` (up to roundoff);
    - ``card``: size of the merged set, always k+1;
    - ``wstar_at_breakpoint``: shared weight at the segment's left edge;
    - ``tail_mass``: total probability of the unmerged symbols;
    - ``slope``: growth rate of the shared weight, ``tail_mass / card``.
    """

    alphas: np.ndarray
    alpha_max: float
    card: np.ndarray
    wstar_at_breakpoint: np.ndarray
    tail_mass: np.ndarray
    slope: np.ndarray

    def __post_init__(self):
        for arr in (self.alphas, self.card, self.wstar_at_breakpoint,
                    self.tail_mass, self.slope):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.alphas.size)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Transformed weights at one alpha; ``-log`` of these are the lengths.

    ``merged_from`` is the first canonical index of the merged block: entries
    ``weights[merged_from:]`` all share the same value.
    """

    weights: np.ndarray
    alpha: float
    merged_from: int

    def __post_init__(self):
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.weights.size)


def build_schedule(p: ProbabilityVector) -> MergeSchedule:
    """Compute all breakpoints and segment coefficients in O(n).

    Merging the next candidate probability ``p_next`` into a block whose
    most recently merged probability is ``p_cur`` scales the unmerged share
    ``1 - alpha`` by a known factor:

        1 - alphas[k+1] = (1 - alphas[k]) * (slope[k] + p_cur)
                                          / (slope[k] + p_next)

    so ``log(1 - alphas)`` is a cumulative sum of ``log1p`` terms, taken as
    one numpy pass.  ``-expm1`` of that sum keeps full relative accuracy in
    the small breakpoints, which ``1 - cumprod`` of the factors would lose.
    No compression remains possible beyond ``alpha_max = 1 - 1/(n * p_max)``.
    """
    probs = p.probs
    n = probs.size
    alpha_max = 1.0 - 1.0 / (n * float(probs[0]))

    # head_mass[i] = sum of the i+1 largest probabilities; segment k leaves
    # head_mass[n-2-k] unmerged, summed from the head for accuracy when p_min
    # is tiny
    head_mass = np.cumsum(probs)
    tail_mass = np.zeros(n)
    tail_mass[:-1] = head_mass[-2::-1]
    card = np.arange(1, n + 1, dtype=np.intp)
    slope = tail_mass / card

    # log(1 - alphas[k+1]) = sum over j <= k of
    #     log1p(-(p_next - p_cur) / (slope[j] + p_next))
    ascending = probs[::-1]
    p_cur, p_next = ascending[:-1], ascending[1:]
    log_keep = np.subtract(p_cur, p_next)
    log_keep /= slope[:-1] + p_next
    np.log1p(log_keep, out=log_keep)
    np.cumsum(log_keep, out=log_keep)

    alphas = np.zeros(n)
    np.expm1(log_keep, out=alphas[1:])
    # 0.0 - x, not -x: ties at p_min give breakpoints +0.0, not -0.0
    np.subtract(0.0, alphas[1:], out=alphas[1:])
    wstar = np.empty(n)
    wstar[0] = probs[-1]
    np.exp(log_keep, out=wstar[1:])
    wstar[1:] *= p_next

    return MergeSchedule(
        alphas=alphas,
        alpha_max=alpha_max,
        card=card,
        wstar_at_breakpoint=wstar,
        tail_mass=tail_mass,
        slope=slope,
    )


def _segment_index(schedule: MergeSchedule, alpha: float) -> int:
    """Last segment whose left breakpoint is <= alpha.

    With repeated breakpoints this lands past all zero-width segments, which
    is what makes tied probabilities merge together.
    """
    return int(np.searchsorted(schedule.alphas, alpha, side="right")) - 1


def _check_alpha(alpha):
    """The one alpha-domain check: alpha in [0, 1], as a float.

    Takes one alpha or a whole 1-d grid of them (returned as given).  The
    comparisons are false for NaN, so NaN is rejected along with +-inf.
    """
    if isinstance(alpha, np.ndarray) and alpha.ndim:
        bad = ~((alpha >= 0.0) & (alpha <= 1.0))
        if bad.any():
            raise AlphaOutOfRange(
                f"alpha must be in [0, 1], got {float(alpha[bad][0])}"
            )
        return alpha
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise AlphaOutOfRange(f"alpha must be in [0, 1], got {alpha}")
    return alpha


def weights_at(
    schedule: MergeSchedule, p: ProbabilityVector, alpha: float
) -> WeightVector:
    """Evaluate the transformed weight vector at one alpha.

    Unmerged symbols carry ``(1 - alpha) * p``; the merged block carries the
    shared weight grown linearly from the segment's left breakpoint.  At or
    beyond ``alpha_max`` (including alpha exactly 1) the weights are uniform.
    """
    alpha = _check_alpha(alpha)
    n = p.size
    if alpha >= schedule.alpha_max or n == 1:
        return WeightVector(
            weights=np.full(n, 1.0 / n), alpha=alpha, merged_from=0
        )
    k = _segment_index(schedule, alpha)
    wstar = float(schedule.wstar_at_breakpoint[k]) + (
        alpha - float(schedule.alphas[k])
    ) * float(schedule.slope[k])
    weights = (1.0 - alpha) * p.probs
    weights[n - 1 - k:] = wstar
    return WeightVector(weights=weights, alpha=alpha, merged_from=n - 1 - k)


def merged_cardinality(schedule: MergeSchedule, alpha: float) -> int:
    """Number of symbols sharing the maximal length at this alpha."""
    alpha = _check_alpha(alpha)
    n = schedule.size
    if alpha >= schedule.alpha_max:
        return n
    return _segment_index(schedule, alpha) + 1


def _segments_on_grid(
    schedule: MergeSchedule, grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked grid, active segment and shared weight at every grid alpha.

    The batched form of ``weights_at``: one ``searchsorted`` with the tie
    rule of ``_segment_index`` and the same line per segment, so each shared
    weight is bitwise the one ``weights_at`` gives.  Where the weights are
    uniform (alpha at or past ``alpha_max``, or n = 1) the segment is the
    last one, n - 1, and the shared weight is 1/n: the whole alphabet is one
    merged block.  The merged set of point g is the last ``k[g] + 1``
    symbols.  Raises AlphaOutOfRange as ``weights_at`` would on any point.
    """
    grid = _check_alpha(np.array(grid, dtype=float, ndmin=1))
    n = schedule.size
    k = np.searchsorted(schedule.alphas, grid, side="right")
    k -= 1
    wstar = grid - schedule.alphas[k]
    wstar *= schedule.slope[k]
    wstar += schedule.wstar_at_breakpoint[k]
    uniform = grid >= schedule.alpha_max
    if n == 1:
        uniform[:] = True
    k[uniform] = n - 1
    wstar[uniform] = 1.0 / n
    return grid, k, wstar
