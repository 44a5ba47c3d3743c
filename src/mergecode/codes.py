"""Code lengths and pay-off evaluation.

Optimal real-valued lengths are ``-log`` of the merged weights; this module
turns weight vectors into lengths, rounds them to integers, evaluates the
blended max/average pay-off, and sweeps it over a grid of alphas.

A sweep needs no weight vector per alpha.  At an alpha whose active segment
merges the m smallest symbols, the n - m head symbols weigh ``(1-alpha)p``
and the block shares ``w*``, so with head sums ``P = sum p`` and
``Q = sum p ln p`` and the merged mass ``S``, in nats,

    avg_length = -(P ln(1-alpha) + Q + S ln w*)
    max_length = -ln w*
    H(w)       = -((1-alpha)(P ln(1-alpha) + Q) + m w* ln w*)

``P``, ``Q`` and ``S`` are prefix and suffix sums taken once, so G grid
points cost O(n + G log n) instead of O(n G).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ProbabilityVector
from .errors import SizeMismatch
from .merging import (
    MergeSchedule,
    WeightVector,
    _segments_on_grid,
    build_schedule,
    weights_at,
)

# Real lengths within this of an integer are treated as that integer when
# ceiling, so dyadic sources round-trip despite log roundoff.
INT_SNAP = 1e-9


@dataclass(frozen=True, eq=False)
class CodeLengths:
    """Real-valued optimal lengths plus their ceiled integer counterparts."""

    real_lengths: np.ndarray
    int_lengths: np.ndarray
    radix: int
    max_length: float
    kraft_real: float
    kraft_int: float

    def __post_init__(self):
        self.real_lengths.setflags(write=False)
        self.int_lengths.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.real_lengths.size)


@dataclass(frozen=True)
class PayoffReport:
    alpha: float
    payoff: float
    avg_length: float
    max_length: float
    entropy_w: float
    entropy_p: float


def entropy(probs: np.ndarray, radix: int) -> float:
    """Entropy in base ``radix``; zero entries contribute nothing."""
    p = np.asarray(probs, dtype=float)
    nz = p[p > 0]
    # 0.0 - x, not -x: a point mass has entropy +0.0, not -0.0
    return float(0.0 - np.dot(nz, np.log(nz)) / np.log(radix))


def snap_ceil(values: np.ndarray) -> np.ndarray:
    """Ceiling that keeps near-integers (within INT_SNAP) unchanged."""
    values = np.asarray(values, dtype=float)
    nearest = np.rint(values)
    out = np.where(np.abs(values - nearest) <= INT_SNAP, nearest, np.ceil(values))
    return out.astype(np.int64)


def _pack_lengths(real: np.ndarray, radix: int) -> CodeLengths:
    """Bundle real lengths with their snapped ceilings and both Kraft sums.

    The one length packer: every solver that produces real lengths returns
    them through here.  ``real`` is adopted, not copied.
    """
    real += 0.0  # -0.0 + 0.0 is +0.0, so a one-symbol code has length 0, not -0
    ints = snap_ceil(real)
    lnD = np.log(radix)
    return CodeLengths(
        real_lengths=real,
        int_lengths=ints,
        radix=int(radix),
        max_length=float(real.max()),
        kraft_real=float(np.exp(real * -lnD).sum()),
        kraft_int=float(np.exp(ints * -lnD).sum()),
    )


def _neg_log(weights: np.ndarray, radix: int) -> np.ndarray:
    """``-log_radix`` of weights of any shape: the real lengths."""
    real = np.log(weights)
    real /= -np.log(radix)
    return real


def lengths_from_weights(w: WeightVector, radix: int) -> CodeLengths:
    """Lengths are ``-log_radix`` of the weights; integers are the ceiling."""
    return _pack_lengths(_neg_log(w.weights, radix), radix)


def payoff(lengths: CodeLengths, p: ProbabilityVector, alpha: float) -> PayoffReport:
    """Blend of maximum and average length for the real-valued lengths."""
    if lengths.size != p.size:
        raise SizeMismatch(
            f"{lengths.size} lengths vs {p.size} probabilities"
        )
    l = lengths.real_lengths
    avg = float(np.dot(p.probs, l))
    mx = float(l.max())
    w = np.exp(-l * np.log(lengths.radix))
    return PayoffReport(
        alpha=float(alpha),
        payoff=float(alpha) * mx + (1.0 - float(alpha)) * avg,
        avg_length=avg,
        max_length=mx,
        entropy_w=entropy(w, lengths.radix),
        entropy_p=entropy(p.probs, p.radix),
    )


def optimal_code(
    p: ProbabilityVector,
    alpha: float,
    schedule: MergeSchedule | None = None,
) -> tuple[WeightVector, CodeLengths, PayoffReport]:
    """Solve one alpha instance end to end via the merging rule."""
    if schedule is None:
        schedule = build_schedule(p)
    w = weights_at(schedule, p, alpha)
    lengths = lengths_from_weights(w, p.radix)
    return w, lengths, payoff(lengths, p, alpha)


def default_alpha_grid(schedule: MergeSchedule, points: int = 1001) -> np.ndarray:
    """Uniform grid on [0, 1] plus every breakpoint, so kinks are sampled."""
    grid = np.union1d(np.linspace(0.0, 1.0, points), schedule.alphas)
    return grid[(grid >= 0.0) & (grid <= 1.0)]


def payoff_columns(
    p: ProbabilityVector,
    grid: np.ndarray,
    schedule: MergeSchedule | None = None,
) -> dict[str, np.ndarray]:
    """The optimal pay-off at every grid alpha, one column per quantity.

    Columns ``alpha``, ``payoff``, ``avg_length``, ``max_length``,
    ``entropy_w`` and ``cardinality`` (merged symbols), from the closed form
    in the module docstring: O(n) for the prefix sums plus O(log n) per
    point.  Agrees with ``optimal_code`` and ``merged_cardinality`` at each
    alpha up to rounding: the sums are taken once, in another order than
    the per-alpha dot products.  Raises AlphaOutOfRange if any grid value
    is outside [0, 1] or NaN.
    """
    if schedule is None:
        schedule = build_schedule(p)
    grid, k, wstar = _segments_on_grid(schedule, grid)
    probs = p.probs
    n = probs.size
    # segment k leaves the n-1-k largest symbols unmerged; the merged mass
    # is summed from the tail so it stays accurate when p_min is tiny
    plogp = np.cumsum(probs * np.log(probs))
    head_plogp = np.zeros(n)
    head_plogp[:-1] = plogp[-2::-1]
    head_mass = schedule.tail_mass[k]
    merged_mass = np.cumsum(probs[::-1])[k]
    # where the weights are uniform the head is empty; alpha is capped at
    # alpha_max < 1 there so 0 * log(1 - alpha) stays 0, not 0 * -inf
    head = np.log1p(-np.minimum(grid, schedule.alpha_max))
    head *= head_mass
    head += head_plogp[k]
    log_wstar = np.log(wstar)
    lnD = np.log(p.radix)

    max_length = log_wstar / -lnD
    avg_length = merged_mass * log_wstar
    avg_length += head
    avg_length /= -lnD
    entropy_w = (k + 1) * wstar * log_wstar
    entropy_w += (1.0 - grid) * head
    entropy_w /= -lnD
    for col in (max_length, avg_length, entropy_w):
        col += 0.0  # -0.0 + 0.0 is +0.0: a one-symbol code has length 0
    payoff = grid * max_length
    payoff += (1.0 - grid) * avg_length
    return {
        "alpha": grid,
        "payoff": payoff,
        "avg_length": avg_length,
        "max_length": max_length,
        "entropy_w": entropy_w,
        "cardinality": k + 1,
    }


def lengths_on_grid(
    p: ProbabilityVector,
    grid: np.ndarray,
    schedule: MergeSchedule | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, real lengths and integer lengths at every grid alpha.

    Row g holds what ``weights_at`` and ``lengths_from_weights`` give at
    ``grid[g]``, bitwise: one (G, n) broadcast of the same operations.
    """
    if schedule is None:
        schedule = build_schedule(p)
    grid, k, wstar = _segments_on_grid(schedule, grid)
    n = p.size
    weights = (1.0 - grid)[:, None] * p.probs
    merged = np.arange(n) >= (n - 1 - k)[:, None]
    np.copyto(weights, wstar[:, None], where=merged)
    real = _neg_log(weights, p.radix)
    real += 0.0  # -0.0 + 0.0 is +0.0: a one-symbol code has length 0
    return weights, real, snap_ceil(real)


def payoff_curve(
    p: ProbabilityVector,
    grid: np.ndarray | None = None,
    schedule: MergeSchedule | None = None,
) -> list[PayoffReport]:
    """Evaluate the optimal pay-off at every grid alpha (sorted ascending).

    One report per point, built from ``payoff_columns``: the closed form in
    the module docstring, O(n + G log n) for G points, not a solve per
    alpha.  The default grid holds every breakpoint, so G is about n + 1001.
    """
    if schedule is None:
        schedule = build_schedule(p)
    if grid is None:
        grid = default_alpha_grid(schedule)
    cols = payoff_columns(p, grid, schedule)
    entropy_p = entropy(p.probs, p.radix)
    return [
        PayoffReport(a, f, avg, mx, h, entropy_p)
        for a, f, avg, mx, h in zip(
            *(cols[key].tolist()
              for key in ("alpha", "payoff", "avg_length", "max_length", "entropy_w"))
        )
    ]
