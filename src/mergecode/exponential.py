"""Two-parameter pay-off: average length blended with an exponential moment.

Replacing the maximum length by (1/t) log of the exponential moment of the
lengths gives a smooth two-parameter family whose optimality system is a
fixed point in the tilted distribution.  The solver iterates that system in
the log domain with adaptive damping; the alpha = 1 slice has a closed form
tied to the Renyi entropy of order 1/(1+t), and as t grows the solutions
approach the max/average merging solution.
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


@dataclass(frozen=True, eq=False)
class TiltedSolution:
    """Converged lengths and tilted distribution for one (t, alpha) pair."""

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


def solve_two_parameter(
    p: ProbabilityVector,
    t: float,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TiltedSolution:
    """Solve the tilted fixed point  D**-l = alpha*nu + (1-alpha)*p.

    Starts from the plain-entropy lengths and repeatedly applies the map
    l -> -log(alpha*nu(l) + (1-alpha)*p), damped by a mixing factor that
    shrinks geometrically whenever the residual grows (the undamped map has
    local slope about alpha*t, so large t oscillates without damping).
    Stops when the sup-norm of the undamped update drops below ``tol``.

    Raises InvalidParam for t < 0 and AlphaOutOfRange (a subclass) for alpha
    outside [0, 1]; NoConvergence (carrying the best iterate) when the
    iteration cap is hit.
    """
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise InvalidParam(f"t must be >= 0, got {t}")
    alpha = _check_alpha(alpha)
    if tol <= 0:
        raise InvalidParam(f"tol must be positive, got {tol}")

    probs = p.probs
    lnD = np.log(p.radix)
    log_p = np.log(probs)
    shannon = -log_p / lnD

    if t == 0.0 or alpha == 0.0:
        # no tilt (or no weight on it): the average-length optimum directly
        nu = np.exp(_tilt(log_p, t, shannon, lnD))
        return TiltedSolution(
            t=t, alpha=alpha, lengths=_pack_lengths(shannon, p.radix),
            nu=nu, iterations=1, residual=0.0,
        )

    l = shannon.copy()
    eta = min(1.0, 1.0 / (1.0 + alpha * t))
    eta_min = 1.0 / (4.0 * (1.0 + t))
    prev_res = np.inf
    best_l, best_res = l, np.inf
    for iteration in range(1, max_iter + 1):
        log_nu = _tilt(log_p, t, l, lnD)
        if alpha >= 1.0:
            log_q = log_nu
        else:
            log_q = np.log(alpha * np.exp(log_nu) + (1.0 - alpha) * probs)
        l_new = -log_q / lnD
        res = float(np.max(np.abs(l_new - l)))
        if res < best_res:
            best_res, best_l = res, l_new
        if res <= tol:
            return TiltedSolution(
                t=t, alpha=alpha, lengths=_pack_lengths(l_new, p.radix),
                nu=np.exp(log_nu), iterations=iteration, residual=res,
            )
        if res > prev_res:
            eta = max(eta / 2.0, eta_min)
        l = l + eta * (l_new - l)
        prev_res = res

    best = TiltedSolution(
        t=t, alpha=alpha, lengths=_pack_lengths(best_l, p.radix),
        nu=np.exp(_tilt(log_p, t, best_l, lnD)),
        iterations=max_iter, residual=best_res,
    )
    raise NoConvergence(
        f"fixed point not within {tol} after {max_iter} iterations "
        f"(best residual {best_res:.3e})",
        best=best, residual=best_res, iterations=max_iter,
    )


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
