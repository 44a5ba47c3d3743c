"""Two-parameter pay-off: average length blended with an exponential moment.

Replacing the maximum length by (1/t) log of the exponential moment of the
lengths, as in Campbell's coding theorem, gives a smooth two-parameter
family.  Its optimal weights w = D**-l solve

    w = alpha*nu + (1-alpha)*p,   nu proportional to p * w**-t.

Writing w_i = a_i + e**v_i with a_i = (1-alpha)*p_i turns this into one
equation per symbol,

    t*ln(w_i) + v_i = s + ln(p_i),

which fixes v_i(s) for a single shared scalar s, plus the normalization
logsumexp(v(s)) = ln(alpha), i.e. sum(w - a) = alpha.  The left side of the
per-symbol equation is convex and increasing in v_i, so Newton from the
right of its root converges monotonically; the normalization is increasing
in s and bracketed, so a safeguarded Newton on s finds it.  The alpha = 1
slice has a closed form tied to the Renyi entropy of order 1/(1+t), and as
t grows the solutions approach the max/average merging solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeLengths, _pack_lengths
from .distributions import ProbabilityVector
from .errors import InvalidParam, NoConvergence, SizeMismatch
from .merging import _check_alpha

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000

_EPS = float(np.finfo(float).eps)
# cap on the Newton steps of one per-symbol solve; near the root the error
# squares each step (11 steps at most on stress sources with t up to 5000),
# and a solve cut short here shows in the residual check
_MAX_INNER = 100


@dataclass(frozen=True, eq=False)
class TiltedSolution:
    """Lengths and tilted distribution for one (t, alpha) pair.

    ``iterations`` counts the steps on the scalar s (1 for the closed-form
    slices t = 0, alpha = 0 and alpha = 1); ``residual`` is the sup-norm
    ``max|map(l) - l|`` of the fixed-point map
    ``l -> -log_D(alpha*nu(l) + (1-alpha)*p)`` at the returned lengths.
    """

    t: float
    alpha: float
    lengths: CodeLengths
    nu: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        self.nu.setflags(write=False)


@dataclass(frozen=True)
class ExpPayoffReport:
    payoff_t: float
    exp_term: float
    avg_length: float
    renyi: float | None


def _logsumexp(z: np.ndarray) -> float:
    """``log(sum(exp(z)))``, shifted by the maximum so nothing overflows."""
    top = z.max()
    return float(top + np.log(np.exp(z - top).sum()))


def _tilt(log_p: np.ndarray, t: float, lengths: np.ndarray, lnD: float) -> np.ndarray:
    """log of the tilted distribution: p reweighted by D**(t*l), normalized."""
    z = log_p + t * lengths * lnD
    return z - _logsumexp(z)


def _map_residual(lengths: np.ndarray, log_p: np.ndarray, probs: np.ndarray,
                  t: float, alpha: float, lnD: float) -> float:
    """``max|map(l) - l|`` for l -> -log_D(alpha*nu(l) + (1-alpha)*p)."""
    nu = np.exp(_tilt(log_p, t, lengths, lnD))
    image = -np.log(alpha * nu + (1.0 - alpha) * probs) / lnD
    return float(np.max(np.abs(image - lengths)))


def _solve_v(b: np.ndarray, log_a: np.ndarray, t: float, v: np.ndarray,
             tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Newton on ``t*log(a + e**v) + v = b``, elementwise, from ``v``.

    The left side is convex with slope 1 + t*r >= 1, r = e**v/(a + e**v),
    and the ratio of its curvature to its slope is below 1, so from the
    right of the root every step stays right of it and the error e becomes
    at most e**2/2: once a step is below ``tol`` the error left is far
    smaller.  Returns v and dv/db = 1/(1 + t*r).
    """
    for _ in range(_MAX_INNER):
        log_w = np.logaddexp(log_a, v)
        slope = 1.0 + t * np.exp(v - log_w)
        step = (t * log_w + v - b) / slope
        v = v - step
        if np.max(np.abs(step)) <= tol:
            break
    return v, 1.0 / slope


def _solve_s(log_p: np.ndarray, t: float, alpha: float, max_iter: int):
    """Find s with logsumexp(v(s)) = ln(alpha); 0 < alpha < 1, t > 0.

    The root lies in [lo, hi]: w >= a gives Z = sum(p*w**-t) <= sum(p*a**-t),
    v <= (s + ln p)/(1 + t) gives the second lower end, and at the root
    e**v_i <= alpha, so w_i <= a_i + alpha bounds Z from below.  Newton
    steps use dPsi/ds = sum(softmax(v)_i * dv_i/ds) and fall back to
    bisection when they leave the bracket.  Each v(s) is warm-started from
    the tangent of the previous one: v(s) is concave, so the tangent lies
    right of the new root, where the per-symbol Newton wants to start.

    Returns (ln w, v, s + ln p, nu, steps, converged).
    """
    log_a = np.log1p(-alpha) + log_p
    ln_alpha = float(np.log(alpha))
    lo = max(ln_alpha - _logsumexp(log_p - t * log_a),
             (1.0 + t) * (ln_alpha - _logsumexp(log_p / (1.0 + t))))
    s = hi = ln_alpha - _logsumexp(log_p - t * np.logaddexp(log_a, ln_alpha))
    # scale of the terms in t*ln(w) + v = s + ln(p), which sets their rounding
    p_scale = float(-log_p.min()) - ln_alpha
    v = slope = s_prev = None
    converged = False
    for step in range(1, max_iter + 1):
        b = s + log_p
        start = np.minimum(b - t * log_a, b / (1.0 + t))
        if v is not None:
            start = np.minimum(start, v + slope * (s - s_prev))
        v, slope = _solve_v(b, log_a, t, start,
                            max(1e-9, 64.0 * _EPS * (abs(s) + p_scale)))
        top = v.max()
        e = np.exp(v - top)
        total = e.sum()
        gap = float(top + np.log(total)) - ln_alpha
        dpsi = float(np.dot(e, slope)) / total
        if gap > 0.0:
            hi = s
        else:
            lo = s
        # one spacing of s moves Psi by about |s|*dPsi ulps, so this is as
        # close as the normalization can be resolved
        if abs(gap) <= 16.0 * _EPS * (1.0 + abs(s) * dpsi):
            converged = True
            break
        s_prev, s = s, s - gap / dpsi
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        if abs(s - s_prev) <= 2.0 * _EPS * abs(s_prev):
            converged = True
            break
    return np.logaddexp(log_a, v), v, b, e / total, step, converged


def _equation_miss(log_w: np.ndarray, v: np.ndarray, b: np.ndarray, t: float) -> float:
    """Worst ``|t*ln(w) + v - b|/(1 + t)`` over the symbols, b = s + ln(p).

    It bounds the error of ln(w) to first order and rounds at about
    eps*(|ln w| + 2|s|/(1 + t)), with no factor of t.
    """
    return float(np.max(np.abs(t * log_w + v - b))) / (1.0 + t)


def solve_two_parameter(
    p: ProbabilityVector,
    t: float,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TiltedSolution:
    """Solve  D**-l = alpha*nu + (1-alpha)*p  with nu proportional to p*D**(t*l).

    For 0 < alpha < 1 and t > 0 this finds the scalar s of the module
    docstring in the bracket [ln(alpha) - ln(sum(p*a**-t)), ln(alpha)]
    (narrowed as in ``_solve_s``) by safeguarded Newton, solving each
    symbol's equation by Newton inside every step; the number of steps does
    not grow with t.  alpha = 1 is ``closed_form_alpha1``, and t = 0 or
    alpha = 0 is the Shannon code.

    ``iterations`` counts the steps on s, at most ``max_iter``.
    ``residual`` is ``max|map(l) - l|`` for the fixed-point map
    l -> -log_D(alpha*nu(l) + (1-alpha)*p); at the correctly rounded
    solution it is about eps*t*max(l)*ln(D), from the rounding of the
    exponent t*l*ln(D).  A solution is accepted when the residual is within
    ``tol`` or, past that floor, when each symbol's equation
    t*ln(w) + v = s + ln(p), scaled by 1/(1 + t), is; that scaled equation
    has no floor growing with t.  The normalization is solved to its own
    rounding by the steps on s.

    Raises InvalidParam for t < 0, tol <= 0 or max_iter < 1, and
    AlphaOutOfRange (a subclass) for alpha outside [0, 1]; NoConvergence,
    carrying the solution reached, when ``max_iter`` steps do not pin s
    down or neither the residual nor the equations are within ``tol``.
    """
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise InvalidParam(f"t must be >= 0, got {t}")
    alpha = _check_alpha(alpha)
    if tol <= 0:
        raise InvalidParam(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InvalidParam(f"max_iter must be >= 1, got {max_iter}")

    probs = p.probs
    lnD = np.log(p.radix)
    log_p = np.log(probs)

    if t == 0.0 or alpha == 0.0:
        # no tilt (or no weight on it): the average-length optimum directly
        shannon = -log_p / lnD
        nu = np.exp(_tilt(log_p, t, shannon, lnD))
        return TiltedSolution(
            t=t, alpha=alpha, lengths=_pack_lengths(shannon, p.radix),
            nu=nu, iterations=1, residual=0.0,
        )

    if alpha == 1.0:
        lengths = closed_form_alpha1(p, t)
        nu = np.exp(_tilt(log_p, t, lengths.real_lengths, lnD))
        steps, converged = 1, True
    else:
        log_w, v, b, nu, steps, converged = _solve_s(log_p, t, alpha, max_iter)
        lengths = _pack_lengths(-log_w / lnD, p.radix)
    res = _map_residual(lengths.real_lengths, log_p, probs, t, alpha, lnD)
    sol = TiltedSolution(t=t, alpha=alpha, lengths=lengths, nu=nu,
                         iterations=steps, residual=res)
    # a residual above tol may be its rounding floor, so the per-symbol
    # equations decide then; the closed form needs no check
    if converged and res > tol and alpha < 1.0:
        converged = _equation_miss(log_w, v, b, t) <= tol
    if not converged:
        raise NoConvergence(
            f"tilted system not solved to {tol} in {steps} steps "
            f"(residual {res:.3e})",
            best=sol, residual=res, iterations=steps,
        )
    return sol


def closed_form_alpha1(p: ProbabilityVector, t: float) -> CodeLengths:
    """Exact alpha = 1 solution: entropy-coding the 1/(1+t) power of p.

    l(x) = -(1/(1+t)) log p(x) + log sum_y p(y)**(1/(1+t)); the Kraft sum is
    exactly 1 because these are -log of a normalized distribution.
    """
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise InvalidParam(f"t must be >= 0, got {t}")
    a = 1.0 / (1.0 + t)
    lnD = np.log(p.radix)
    log_p = np.log(p.probs)
    log_norm = _logsumexp(a * log_p)
    real = (-a * log_p + log_norm) / lnD
    return _pack_lengths(real, p.radix)


def renyi_entropy(p: ProbabilityVector, a: float) -> float:
    """Renyi entropy of order ``a`` in base radix: log(sum p**a) / (1 - a)."""
    a = float(a)
    if not np.isfinite(a) or a <= 0:
        raise InvalidParam(f"order must be positive, got {a}")
    if a == 1.0:
        raise InvalidParam("order 1 is the plain entropy; use codes.entropy")
    log_sum = _logsumexp(a * np.log(p.probs))
    return float(log_sum / ((1.0 - a) * np.log(p.radix)))


def payoff_t(
    lengths: CodeLengths,
    p: ProbabilityVector,
    t: float,
    alpha: float,
) -> ExpPayoffReport:
    """Evaluate the two-parameter pay-off for given lengths.

    The exponential term (1/t) log sum p * D**(t*l) is computed via
    log-sum-exp so large t cannot overflow; t = 0 takes its limiting value,
    the average length.
    """
    t = float(t)
    alpha = float(alpha)
    if not np.isfinite(t) or t < 0:
        raise InvalidParam(f"t must be >= 0, got {t}")
    if lengths.size != p.size:
        raise SizeMismatch(f"{lengths.size} lengths vs {p.size} probabilities")
    lnD = np.log(p.radix)
    l = lengths.real_lengths
    avg = float(np.dot(p.probs, l))
    if t == 0.0:
        exp_term = avg
        renyi = None
    else:
        exp_term = float(_logsumexp(np.log(p.probs) + t * l * lnD) / (t * lnD))
        renyi = renyi_entropy(p, 1.0 / (1.0 + t))
    return ExpPayoffReport(
        payoff_t=alpha * exp_term + (1.0 - alpha) * avg,
        exp_term=exp_term,
        avg_length=avg,
        renyi=renyi,
    )
