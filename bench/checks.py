"""Output checks for the benchmark, written apart from the program.

Every check recomputes what it needs from the returned numbers and the
source with plain numpy; none of them calls into ``mergecode``.  A check
raises ``CheckFailed`` with a message naming the broken property.

Tolerances follow one model (see README.md, "Tolerances"):

- ``rel_l`` is the relative precision of the lengths as handed over: one
  ulp (``EPS``) in-process, ``TEXT_REL`` for the CLI's 12 significant digits;
- a weight recomputed as ``D**-l`` is then good to ``|l| ln D * rel_l``;
- the program's shared weight and breakpoints come out of length-n
  recursions and sums, whose rounding error grows at most like ``n * EPS``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

EPS = float(np.finfo(float).eps)
# relative rounding of a float printed with "%.12g"
TEXT_REL = 5e-12
# canonicalize leaves sums within this of 1 unrenormalized (its documented
# RENORM_SKIP_WINDOW), so probabilities may differ from raw/sum(raw) by it
RENORM_SKIP = 1e-12
# the tilted solver's stopping tolerance on the sup-norm of its update
TILT_TOL = 1e-10


class CheckFailed(AssertionError):
    """An output broke a property the method must have."""


def _fail(what: str, got, bound) -> None:
    raise CheckFailed(f"{what}: {got:.3e} exceeds {bound:.3e}")


# ---------------------------------------------------------------- tolerances


def weight_rtol(n: int, lengths: np.ndarray, radix: int, rel_l: float = EPS) -> float:
    """Relative tolerance on one weight, recomputed from its length."""
    spread = float(np.max(np.abs(lengths))) * np.log(radix) if lengths.size else 0.0
    return 4.0 * (spread * rel_l + n * EPS) + 8.0 * EPS


def sum_tol(n: int) -> float:
    """Rounding of a float sum of n terms of total about 1."""
    return (np.log2(max(n, 2)) + 4.0) * EPS


# ---------------------------------------------------------------- references


def canonical_order(raw: np.ndarray) -> np.ndarray:
    """Stable descending order: the canonical form the program promises."""
    return np.argsort(-np.asarray(raw, dtype=float), kind="stable")


def water_level(p: np.ndarray, alpha: float) -> float:
    """Level L with sum (L - (1-alpha) p)+ = alpha, for p non-increasing.

    With S_m the mass of the m smallest symbols, every m gives
    (alpha + (1-alpha) S_m) / m >= L, with equality at the flooded count,
    so L is the minimum over m.  Shares nothing with the program.
    """
    tail = np.cumsum(p[::-1])
    m = np.arange(1, p.size + 1)
    return float(np.min((alpha + (1.0 - alpha) * tail) / m))


def max_length_at(p: np.ndarray, alpha: float, radix: int) -> float:
    """Optimal maximum length at alpha, from the independent water level."""
    return float(-np.log(water_level(p, alpha)) / np.log(radix))


def alpha_max(p: np.ndarray) -> float:
    return 1.0 - 1.0 / (p.size * float(p[0]))


def entropy(w: np.ndarray, radix: int) -> float:
    w = w[w > 0]
    return float(-np.dot(w, np.log(w)) / np.log(radix))


def renyi(p: np.ndarray, order: float, radix: int) -> float:
    z = order * np.log(p)
    top = z.max()
    return float((top + np.log(np.exp(z - top).sum())) / ((1.0 - order) * np.log(radix)))


def tilt(p: np.ndarray, t: float, lengths: np.ndarray, radix: int) -> np.ndarray:
    """nu proportional to p * D**(t*l), normalized in the log domain."""
    z = np.log(p) + t * lengths * np.log(radix)
    e = np.exp(z - z.max())
    return e / e.sum()


def exp_term(p: np.ndarray, t: float, lengths: np.ndarray, radix: int) -> float:
    """(1/t) log_D sum p D**(t*l)."""
    z = np.log(p) + t * lengths * np.log(radix)
    top = z.max()
    return float((top + np.log(np.exp(z - top).sum())) / (t * np.log(radix)))


# ---------------------------------------------------------------- checks


def check_canonical(raw: np.ndarray, probs: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """probs non-increasing, perm a stable permutation, probs = raw[perm]/sum.

    Returns the canonical source recomputed from ``raw``.
    """
    raw = np.asarray(raw, dtype=float)
    perm = np.asarray(perm)
    n = raw.size
    if probs.shape != (n,) or perm.shape != (n,):
        raise CheckFailed(f"canonical form has shape {probs.shape}, {perm.shape}; want ({n},)")
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise CheckFailed("perm is not a permutation")
    if np.any(np.diff(probs) > 0):
        raise CheckFailed("probs are not non-increasing")
    tied = probs[1:] == probs[:-1]
    if np.any(perm[1:][tied] <= perm[:-1][tied]):
        raise CheckFailed("tied probabilities lost their input order")
    ref = raw[perm] / raw.sum()
    err = float(np.max(np.abs(probs - ref) / ref))
    bound = RENORM_SKIP + sum_tol(n)
    if not err <= bound:
        _fail("probs vs raw[perm]/sum(raw)", err, bound)
    return ref


def check_certificate(
    lengths: np.ndarray,
    p: np.ndarray,
    alpha: float,
    radix: int,
    payoff: float | None = None,
    weights: np.ndarray | None = None,
    rel_l: float = EPS,
) -> None:
    """Optimality certificate of real lengths at alpha for source p.

    With w = D**-l: the Kraft sum is 1, w >= (1-alpha) p everywhere, the
    excess w - (1-alpha) p sits only on symbols of maximum length, and the
    pay-off equals H_D(w).  These are the optimality conditions of the
    convex problem, so together they certify the solution.
    """
    l = np.asarray(lengths, dtype=float)
    n = p.size
    if l.shape != (n,):
        raise CheckFailed(f"{l.size} lengths for {n} symbols")
    lnD = np.log(radix)
    w = np.exp(-l * lnD)
    rtol = weight_rtol(n, l, radix, rel_l)
    if weights is not None:
        err = float(np.max(np.abs(np.asarray(weights) - w) / w))
        if not err <= rtol:
            _fail("weights vs D**-lengths", err, rtol)
    kraft = float(w.sum())
    ktol = rtol + sum_tol(n)
    if not abs(kraft - 1.0) <= ktol:
        _fail("Kraft sum minus 1", abs(kraft - 1.0), ktol)
    floor = (1.0 - alpha) * p
    short = float(np.max((floor - w) / w))
    if not short <= rtol:
        _fail("weight below (1-alpha) p, relative", short, rtol)
    excess = w > floor * (1.0 + rtol)
    if np.any(excess):
        gap = float(np.max(w[excess]) / w.min() - 1.0)
        if not gap <= rtol:
            _fail("excess weight on a symbol shorter than the maximum, relative", gap, rtol)
    if payoff is not None:
        h = float(np.dot(w, l))
        ptol = float(l.max()) * ktol + 2.0 * abs(h) * rtol
        if not abs(payoff - h) <= ptol:
            _fail("pay-off minus H_D(w)", abs(payoff - h), ptol)


def check_same_weights(a: np.ndarray, b: np.ndarray, rtol: float, what: str) -> None:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise CheckFailed(f"{what}: shapes {a.shape} and {b.shape}")
    err = float(np.max(np.abs(a - b) / np.abs(b)))
    if not err <= rtol:
        _fail(what, err, rtol)


def alpha_tol(n: int) -> float:
    """Absolute tolerance in alpha of a cap inversion.

    The program gets alpha as 1 - x with x near 1 out of length-n sums, so
    its error is absolute, in ulps of 1 and growing like n.
    """
    return 4.0 * n * EPS + 16.0 * EPS


def check_limited(
    lengths: np.ndarray,
    alpha_hat: float,
    cap: float,
    p: np.ndarray,
    radix: int,
    weights: np.ndarray | None = None,
    rel_l: float = EPS,
) -> None:
    """Length-capped solution: optimal at alpha_hat, and alpha_hat the
    smallest alpha that meets the cap, both to within ``alpha_tol``.

    The lengths must fit under the cap to within their own rounding, or
    else alpha_hat plus ``alpha_tol`` must already meet the cap.  Where
    the level D**-cap is tiny, the maximum length moves by many ulps per
    ulp of alpha, and only the second holds.
    """
    l = np.asarray(lengths, dtype=float)
    check_certificate(l, p, alpha_hat, radix, weights=weights, rel_l=rel_l)
    ltol = weight_rtol(p.size, l, radix, rel_l) / np.log(radix)
    da = alpha_tol(p.size)
    over = float(l.max()) - cap
    if not over <= ltol:
        reach = max_length_at(p, min(alpha_hat + da, 1.0), radix)
        if not reach <= cap + ltol:
            _fail(f"maximum length above the cap, even at alpha_hat + {da:.1e}",
                  reach - cap, ltol)
    if alpha_hat - da > 0:
        reach = max_length_at(p, alpha_hat - da, radix)
        if not reach >= cap - ltol:
            raise CheckFailed(
                f"alpha_hat {alpha_hat!r} is not minimal: alpha {alpha_hat - da!r} "
                f"already reaches max length {reach!r} <= cap {cap!r}"
            )


def check_avg_monotone(caps: list[float], avgs: list[float], tol: float) -> None:
    """Average length must not increase as the cap rises."""
    order = np.argsort(caps)
    a = np.asarray(avgs, dtype=float)[order]
    rise = float(np.max(np.diff(a))) if a.size > 1 else 0.0
    if not rise <= tol:
        _fail("average length rose with the cap", rise, tol)


def check_level(level: float, p: np.ndarray, alpha: float, rtol: float) -> None:
    """The water level reached at alpha equals ``level`` (levels compared)."""
    ref = water_level(p, alpha)
    err = abs(level - ref) / ref
    if not err <= rtol:
        _fail(f"water level at alpha {alpha!r}", err, rtol)


def check_extension(lower: float, per_symbol: float, upper: float) -> None:
    if not (lower <= per_symbol < upper):
        raise CheckFailed(
            f"per-symbol pay-off {per_symbol!r} outside [{lower!r}, {upper!r})"
        )


def check_curve(
    alphas: np.ndarray,
    payoffs: np.ndarray,
    entropies: np.ndarray,
    p: np.ndarray,
    radix: int,
    rel_l: float = EPS,
) -> None:
    """Pay-off curve: non-decreasing, concave, from H_D(p) to log_D n.

    Each point's pay-off also equals the entropy of its weights.
    """
    a = np.asarray(alphas, dtype=float)
    f = np.asarray(payoffs, dtype=float)
    n = p.size
    # printed grids may repeat an alpha that differs only past 12 digits
    if a.size < 3 or a[0] != 0.0 or np.any(np.diff(a) < 0):
        raise CheckFailed("curve grid must start at 0 and not decrease")
    top = float(np.max(np.abs(f)))
    tol = top * (4.0 * n * EPS + 8.0 * rel_l) + 8.0 * EPS
    drop = float(np.max(f[:-1] - f[1:]))
    if not drop <= tol:
        _fail("curve decreases", drop, tol)
    left, mid, right = a[:-2], a[1:-1], a[2:]
    wide = right > left
    chord = ((right - mid) * f[:-2] + (mid - left) * f[2:])[wide] / (right - left)[wide]
    dent = float(np.max(chord - f[1:-1][wide], initial=-np.inf))
    if not dent <= tol:
        _fail("curve is not concave", dent, tol)
    start = abs(f[0] - entropy(p, radix))
    if not start <= tol:
        _fail("curve start minus H_D(p)", start, tol)
    flat = f[a >= alpha_max(p)]
    if flat.size == 0:
        raise CheckFailed("curve never reaches alpha_max")
    end = float(np.max(np.abs(flat - np.log(n) / np.log(radix))))
    if not end <= tol:
        _fail("curve beyond alpha_max minus log_D n", end, tol)
    ident = float(np.max(np.abs(f - np.asarray(entropies, dtype=float))))
    if not ident <= tol:
        _fail("curve pay-off minus H_D(w)", ident, tol)


def fixed_point_tol(t: float, alpha: float, lengths: np.ndarray, radix: int,
                    rel_l: float = EPS) -> float:
    """The solver stops on an update below TILT_TOL; the map's local slope
    is about alpha*t, so the fixed-point residual may be (1 + alpha*t) times
    that, plus the rounding of the lengths handed over."""
    scale = 1.0 + alpha * t
    spread = float(np.max(np.abs(lengths))) * np.log(radix)
    return 4.0 * scale * (TILT_TOL + spread * rel_l + 64.0 * EPS)


def check_tilted(lengths: np.ndarray, p: np.ndarray, t: float, alpha: float,
                 radix: int, rel_l: float = EPS) -> None:
    """D**-l = alpha*nu + (1-alpha)*p with nu ~ p D**(t l), and Kraft sum 1."""
    l = np.asarray(lengths, dtype=float)
    if l.shape != p.shape:
        raise CheckFailed(f"{l.size} lengths for {p.size} symbols")
    nu = tilt(p, t, l, radix)
    image = -np.log(alpha * nu + (1.0 - alpha) * p) / np.log(radix)
    res = float(np.max(np.abs(image - l)))
    tol = fixed_point_tol(t, alpha, l, radix, rel_l)
    if not res <= tol:
        _fail(f"tilted fixed-point residual at t={t}, alpha={alpha}", res, tol)
    kraft = float(np.exp(-l * np.log(radix)).sum())
    ktol = weight_rtol(p.size, l, radix, rel_l) + sum_tol(p.size)
    if not abs(kraft - 1.0) <= ktol:
        _fail("tilted Kraft sum minus 1", abs(kraft - 1.0), ktol)


def check_alpha1(lengths: np.ndarray, closed: np.ndarray, p: np.ndarray,
                 t: float, radix: int) -> None:
    """At alpha = 1 the tilted solution is the closed form, and its
    exponential term is the Renyi entropy of order 1/(1+t)."""
    l = np.asarray(lengths, dtype=float)
    tol = fixed_point_tol(t, 1.0, l, radix)
    diff = float(np.max(np.abs(l - np.asarray(closed, dtype=float))))
    if not diff <= tol:
        _fail(f"tilted vs closed form at alpha 1, t={t}", diff, tol)
    gap = abs(exp_term(p, t, l, radix) - renyi(p, 1.0 / (1.0 + t), radix))
    if not gap <= tol:
        _fail(f"exponential term minus Renyi entropy, t={t}", gap, tol)


def check_rational(got: float, want: Fraction, what: str, ulps: int = 8) -> None:
    """A float result against the paper's exact rational value.

    The values here lie in [0, 1] and come out of sums and ``1 - x``, so
    the tolerance is in ulps of 1.
    """
    err = abs(Fraction(float(got)) - want)
    bound = max(abs(want), 1) * ulps * Fraction(EPS)
    if not err <= bound:
        raise CheckFailed(f"{what}: {float(got)!r} is not {want} to {ulps} ulp")


def check_breakpoints(alphas: np.ndarray, cards: np.ndarray, p: np.ndarray,
                      rel: float = TEXT_REL) -> None:
    """Breakpoint table: starts at 0, never decreases, ends at alpha_max."""
    a = np.asarray(alphas, dtype=float)
    if a.size != p.size:
        raise CheckFailed(f"{a.size} breakpoints for {p.size} symbols")
    if a[0] != 0.0:
        raise CheckFailed(f"first breakpoint is {a[0]!r}, not 0")
    if np.any(np.diff(a) < 0):
        raise CheckFailed("breakpoints decrease")
    if not np.array_equal(np.asarray(cards), np.arange(1, a.size + 1)):
        raise CheckFailed("cardinality column is not 1..n")
    tol = 4.0 * rel + 4.0 * p.size * EPS
    end = abs(a[-1] - alpha_max(p))
    if not end <= tol:
        _fail("last breakpoint minus 1 - 1/(n p_max)", end, tol)


def check_ingest(labels: list[str], probs: np.ndarray, data: bytes,
                 rel: float = TEXT_REL) -> None:
    """Byte frequencies against an np.bincount of the file."""
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    seen = np.flatnonzero(counts)
    try:
        got = np.array([int(s, 16) for s in labels])
    except ValueError as exc:
        raise CheckFailed(f"bad byte label: {exc}") from None
    if not np.array_equal(np.sort(got), seen):
        raise CheckFailed("ingested symbols differ from the bytes present")
    ref = counts[got] / counts.sum()
    err = float(np.max(np.abs(np.asarray(probs, dtype=float) - ref) / ref))
    tol = 4.0 * rel
    if not err <= tol:
        _fail("ingested probability vs count/total", err, tol)
