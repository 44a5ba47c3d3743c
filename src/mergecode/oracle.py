"""Structure-blind numerical optimizer, the tests' independent oracle.

It minimizes the max/average pay-off directly, knowing nothing of the
merging rule, so agreement with the merging solution checks both.  This is
the only module that imports scipy; neither the package namespace nor the
CLI imports it, so scipy is needed for the tests, not at run time.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .codes import CodeLengths, _pack_lengths, entropy, lengths_from_weights
from .distributions import ProbabilityVector
from .errors import NoConvergence
from .merging import WeightVector


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
