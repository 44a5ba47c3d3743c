"""Code lengths and pay-off evaluation.

Optimal real-valued lengths are ``-log`` of the merged weights; this module
turns weight vectors into lengths, rounds them to integers, evaluates the
blended max/average pay-off, and sweeps it over a grid of alphas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ProbabilityVector
from .errors import SizeMismatch
from .merging import MergeSchedule, WeightVector, build_schedule, weights_at

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


def lengths_from_weights(w: WeightVector, radix: int) -> CodeLengths:
    """Lengths are ``-log_radix`` of the weights; integers are the ceiling."""
    real = np.log(w.weights)
    real /= -np.log(radix)
    return _pack_lengths(real, radix)


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


def payoff_curve(
    p: ProbabilityVector,
    grid: np.ndarray | None = None,
    schedule: MergeSchedule | None = None,
) -> list[PayoffReport]:
    """Evaluate the optimal pay-off at every grid alpha (sorted ascending)."""
    if schedule is None:
        schedule = build_schedule(p)
    if grid is None:
        grid = default_alpha_grid(schedule)
    return [optimal_code(p, float(a), schedule)[2] for a in grid]
