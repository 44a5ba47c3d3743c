"""Code lengths and pay-off evaluation.

Optimal real-valued lengths are ``-log`` of the merged weights; this module
turns weight vectors into lengths, rounds them to integers, evaluates the
blended max/average pay-off, sweeps it over a grid of alphas, and provides a
numerical optimizer that knows nothing about the merging structure for use
as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .distributions import ProbabilityVector
from .errors import NoConvergence, SizeMismatch
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


def brute_force_optimal(
    p: ProbabilityVector,
    alpha: float,
    iterations: int = 3000,
    tol: float = 1e-6,
) -> CodeLengths:
    """Numerically minimize the pay-off with no structural knowledge.

    Solves the smooth convex epigraph form of the pay-off over real lengths
    ``l`` and an auxiliary maximum ``M``::

        minimize    alpha * M + (1 - alpha) * p . l
        subject to  l_i <= M  and  log_D sum D^-l_i <= 0

    with SLSQP and analytic Jacobians, starting from the Shannon lengths
    ``-log_D p`` with ``M = max(l)``.  The result is shifted by ``log_D`` of
    its Kraft sum so that the Kraft sum is exactly 1; the shift changes the
    pay-off by that same amount, so it never raises the pay-off of a
    feasible point.  Intended as an independent oracle on small alphabets,
    not a production solver.

    The result is accepted by a weak-duality certificate, not by SLSQP's
    own success flag.  For any distribution ``mu`` and any Kraft-feasible
    ``l``, Gibbs' inequality gives
    ``alpha*max(l) + (1-alpha)*p.l >= sum_i w_i l_i >= H_D(w)`` with
    ``w = alpha*mu + (1-alpha)*p``; at ``alpha = 0`` the bound is ``H_D(p)``.
    Two choices of ``mu`` are tried and the larger bound is kept: ``mu``
    proportional to ``max(D^-l - (1-alpha)*p, 0)``, which is exact at the
    optimum, and the normalized KKT multipliers of ``l_i <= M`` when SLSQP
    reports them.  The first is only first-order accurate in the length
    error, since it puts mass on every symbol whose length is slightly
    short; the multipliers vanish off the active set, so the second stays
    tight on sources where the pay-off is flat around its optimum.  The
    certified gap is the pay-off minus the bound, an upper bound on the
    distance to the optimal pay-off.

    ``iterations`` caps the SLSQP iterations; ``tol`` bounds the certified
    gap.  Raises NoConvergence when the gap exceeds ``tol``; the exception
    carries the lengths found (Kraft sum 1) as ``best`` and the certified
    gap as ``residual``.
    """
    alpha = float(alpha)
    probs = p.probs
    n = probs.size
    lnD = np.log(p.radix)

    if n == 1:
        w = WeightVector(weights=np.array([1.0]), alpha=alpha, merged_from=0)
        return lengths_from_weights(w, p.radix)

    def log_kraft(l: np.ndarray) -> tuple[float, np.ndarray]:
        """``log_D sum D^-l`` and its gradient, the normalized ``D^-l``."""
        z = -l * lnD
        top = z.max()
        e = np.exp(z - top)
        total = e.sum()
        return (top + np.log(total)) / lnD, e / total

    cost = np.append((1.0 - alpha) * probs, alpha)
    below_max = np.hstack([-np.eye(n), np.ones((n, 1))])
    shannon = -np.log(probs) / lnD
    res = minimize(
        lambda x: float(cost @ x),
        np.append(shannon, shannon.max()),
        jac=lambda x: cost,
        method="SLSQP",
        constraints=[
            dict(type="ineq", fun=lambda x: below_max @ x, jac=lambda x: below_max),
            dict(type="ineq", fun=lambda x: -log_kraft(x[:n])[0],
                 jac=lambda x: np.append(log_kraft(x[:n])[1], 0.0)),
        ],
        # the certificate below is the stopping rule; ftol only has to be
        # fine enough for SLSQP to get there
        options=dict(maxiter=iterations, ftol=1e-12),
    )

    shift, q = log_kraft(res.x[:n])
    real = res.x[:n] + shift
    mx = float(real.max())
    value = alpha * mx + (1.0 - alpha) * float(np.dot(probs, real))
    multipliers = res.get("multipliers", np.zeros(n))[:n]
    bound = entropy(probs, p.radix) if alpha == 0.0 else -np.inf
    for m in (q - (1.0 - alpha) * probs, multipliers):
        m = np.maximum(m, 0.0)
        if m.sum() > 0:
            w = alpha * m / m.sum() + (1.0 - alpha) * probs
            bound = max(bound, entropy(w, p.radix))
    gap = value - bound

    lengths = _pack_lengths(real, p.radix)
    if not gap <= tol:
        raise NoConvergence(
            f"certified pay-off gap {gap:.3e} exceeds tol {tol:.1e}",
            best=lengths,
            residual=gap,
            iterations=int(res.nit),
        )
    return lengths
