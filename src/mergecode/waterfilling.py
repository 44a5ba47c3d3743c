"""Water-level characterization of the optimal weights.

The optimal weights can equivalently be written as the scaled source
probabilities clipped from below at a common level, with the level chosen so
the clipped excess sums to alpha:

    sum_x (level - (1 - alpha) * p(x))+  =  alpha

Because the probabilities are sorted, the flooded set is always a suffix and
the level solves in closed form per candidate suffix size, so no tolerance
enters the level itself.  This module deliberately shares no code with the
merging rule (only its alpha-domain check and result type); agreement
between the two is a cross-check both rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ProbabilityVector
from .errors import Infeasible
from .merging import WeightVector, _check_alpha

# Levels within this of 1/n count as attainable; beyond it no alpha exists.
LEVEL_SLACK = 1e-12


@dataclass(frozen=True)
class WaterLevel:
    """Common clipped weight and the suffix of symbols it applies to.

    The flooded symbols are the last ``flooded_count`` of the ``size``
    symbols in canonical order.
    """

    level: float
    alpha: float
    flooded_count: int
    size: int

    @property
    def flooded(self) -> frozenset[int]:
        """Canonical indices of the flooded symbols."""
        return frozenset(range(self.size - self.flooded_count, self.size))


def _flood_suffix_size(probs: np.ndarray, alpha: float) -> tuple[int, float]:
    """Largest suffix size m whose closed-form level reaches into the suffix.

    level(m) = (alpha + (1 - alpha) * mass of the m smallest) / m is
    admissible when it is at least the scaled probability just inside the
    suffix.  ``m * scaled_inside(m) - m * level(m)`` never decreases in m, so
    the admissible sizes run from 1 up to the flooded count, and the largest
    one also stays at or below the scaled probability just outside; ties
    flood together.  All n candidates are evaluated at once.  m = 1 is always
    admissible; at alpha = 1 every m is, and the level is 1/n.
    """
    n = probs.size
    ascending = probs[::-1]
    level = np.cumsum(ascending)  # mass of the m smallest
    level *= 1.0 - alpha
    level += alpha
    level /= np.arange(1, n + 1)
    admissible = level >= (1.0 - alpha) * ascending
    m = n - int(np.argmax(admissible[::-1]))
    return m, float(level[m - 1])


def water_level(p: ProbabilityVector, alpha: float) -> WaterLevel:
    """Solve the clipped-excess equation exactly for one alpha."""
    alpha = _check_alpha(alpha)
    m, level = _flood_suffix_size(p.probs, alpha)
    return WaterLevel(level=level, alpha=alpha, flooded_count=m, size=p.size)


def waterfill_weights(p: ProbabilityVector, alpha: float) -> WeightVector:
    """Weights via clipping: max((1 - alpha) * p, level)."""
    alpha = _check_alpha(alpha)
    n = p.size
    m, level = _flood_suffix_size(p.probs, alpha)
    weights = (1.0 - alpha) * p.probs
    weights[n - m:] = level
    return WeightVector(weights=weights, alpha=alpha, merged_from=n - m)


def alpha_for_level(p: ProbabilityVector, level: float) -> float:
    """Invert the water level: smallest alpha whose level equals ``level``.

    The level grows piecewise linearly from p_min at alpha 0 to 1/n, so any
    target at or below p_min needs no clipping (alpha 0) and any target
    above 1/n is unattainable.
    """
    level = float(level)
    if not np.isfinite(level) or level <= 0:
        raise Infeasible(f"level must be positive, got {level}", 0.0)
    probs = p.probs
    n = probs.size
    if level > 1.0 / n + LEVEL_SLACK:
        raise Infeasible(
            f"level {level} exceeds the uniform weight 1/{n}", 1.0 / n
        )
    level = min(level, 1.0 / n)
    if level <= float(probs[-1]):
        return 0.0

    # candidate alpha for each suffix size m = 1 .. n-1, kept where the level
    # sits between the scaled probabilities just inside and just outside
    tail = np.cumsum(probs[:0:-1])  # tail[m-1] = mass of the m smallest
    alpha = np.arange(1, n, dtype=float)
    alpha *= level
    alpha -= tail
    alpha /= 1.0 - tail
    keep = 1.0 - alpha
    admissible = (alpha >= 0.0) & (alpha < 1.0)
    admissible &= keep * probs[:0:-1] <= level + LEVEL_SLACK
    admissible &= level <= keep * probs[-2::-1] + LEVEL_SLACK
    if not admissible.any():
        raise AssertionError("no admissible suffix when inverting the level")
    return float(alpha[admissible].min())
