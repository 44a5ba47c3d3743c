"""Tilted solver against a 40-digit reference, at large t, and in the limit.

``decimal_tilted`` solves  w = alpha*nu + (1-alpha)*p,  nu ~ p*w**-t  in
stdlib ``decimal`` by nested bisection: on the shared scalar s, and for
each s on every u_i = ln w_i.  The float probabilities are taken as exact,
so the comparison measures the rounding of ``solve_two_parameter`` alone.
"""

from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest

from mergecode import (
    InvalidParam,
    NoConvergence,
    build_schedule,
    canonicalize,
    solve_two_parameter,
    weights_at,
)
from mergecode.exponential import DEFAULT_TOL

EPS = np.finfo(float).eps
EX1 = [8 / 15, 4 / 15, 2 / 15, 1 / 15]
R3 = [0.1, 0.3, 0.2, 0.2, 0.15, 0.05]
# Worst seen on the grid below: 1.8 eps * max(1, l_max).
MAX_EPS = 6.0


def decimal_tilted(probs, t, alpha, radix):
    """Real lengths of the tilted system at 40 digits, each u_i to 1e-20."""
    with localcontext() as ctx:
        ctx.prec = 40
        # p*a**-t overflows the default exponent range from t ~ 1e6
        ctx.Emax, ctx.Emin = MAX_EMAX, MIN_EMIN
        p = [Decimal(float(x)) for x in probs]
        t, alpha = Decimal(float(t)), Decimal(float(alpha))
        ln_d = Decimal(radix).ln()
        log_p = [x.ln() for x in p]
        if alpha == 1:
            # a = 0: each equation is (1+t)*u = s + ln p, so w ~ p**(1/(1+t))
            norm = sum(((lp / (1 + t)).exp() for lp in log_p), Decimal(0)).ln()
            return [float((norm - lp / (1 + t)) / ln_d) for lp in log_p]
        a = [(1 - alpha) * x for x in p]
        log_a = [x.ln() for x in a]
        # 1 <= Z = sum(p*w**-t) <= sum(p*a**-t) brackets s = ln(alpha/Z)
        s_lo = alpha.ln() - sum(
            ((lp - t * la).exp() for lp, la in zip(log_p, log_a)), Decimal(0)
        ).ln()
        s_hi = alpha.ln()
        # bracket ends (u, e**u) of each u_i = ln w_i in [ln a_i, 0]
        lo = list(zip(log_a, a))
        hi = [(Decimal(0), Decimal(1))] * len(p)
        width = Decimal("1e-20")

        def excess(ends):  # sum(w - a), increasing in every u_i
            return sum((w - ai for (_, w), ai in zip(ends, a)), Decimal(0))

        def spread(lo, hi):
            return max(h[0] - l[0] for l, h in zip(lo, hi))

        while spread(lo, hi) > width:
            s = (s_lo + s_hi) / 2
            # u_i(s) increases with s, so the brackets over [s_lo, s_hi]
            # hold u_i(s); halve them until the sign of excess - alpha shows
            at_lo, at_hi = list(lo), list(hi)
            while True:
                if excess(at_lo) > alpha:
                    s_hi, hi = s, at_hi
                    break
                if excess(at_hi) < alpha:
                    s_lo, lo = s, at_lo
                    break
                if spread(at_lo, at_hi) <= width:  # s is the root
                    lo, hi = at_lo, at_hi
                    break
                for i in range(len(p)):
                    m = (at_lo[i][0] + at_hi[i][0]) / 2
                    w = m.exp()
                    # w - a - e**(s + ln p - t*u) is increasing in u
                    if w - a[i] > (s + log_p[i] - t * m).exp():
                        at_hi[i] = (m, w)
                    else:
                        at_lo[i] = (m, w)
        return [float(-(l[0] + h[0]) / 2 / ln_d) for l, h in zip(lo, hi)]


class TestExactReference:
    def test_reference_reproduces_a_hand_solution(self):
        # a symmetric source keeps w = (1/2, 1/2) at any t and alpha
        got = decimal_tilted([0.5, 0.5], 1.0, 0.3, 2)
        assert got == pytest.approx([1.0, 1.0], abs=1e-18)

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0, 50.0, 1000.0])
    def test_lengths_within_a_few_ulps(self, t):
        for raw, radix in ((EX1, 2), (R3, 3)):
            p = canonicalize(raw, radix)
            for alpha in (1e-6, 0.1, 0.5, 0.9, 1.0):
                ref = np.array(decimal_tilted(p.probs, t, alpha, radix))
                got = solve_two_parameter(p, t, alpha).lengths.real_lengths
                err = np.max(np.abs(got - ref)) / (EPS * max(1.0, ref.max()))
                assert err <= MAX_EPS, (raw, t, alpha, err)


class TestLargeT:
    @pytest.mark.parametrize("t", [1000.0, 5000.0])
    def test_ex1_converges(self, t):
        sol = solve_two_parameter(canonicalize(EX1, 2), t, 0.9)
        assert sol.residual <= DEFAULT_TOL

    @pytest.mark.parametrize("t", [1e6, 1e9])
    def test_ex1_matches_the_reference_at_huge_t(self, t):
        # the map residual of the correctly rounded solution reads about
        # eps*t*l_max*ln(D) here, above DEFAULT_TOL; convergence is decided
        # on the per-symbol equations scaled by 1/(1 + t), which have no
        # such floor
        p = canonicalize(EX1, 2)
        for alpha in (1e-6, 0.5, 0.9, 1.0):
            got = solve_two_parameter(p, t, alpha).lengths.real_lengths
            ref = np.array(decimal_tilted(p.probs, t, alpha, 2))
            err = np.max(np.abs(got - ref)) / (EPS * max(1.0, ref.max()))
            assert err <= MAX_EPS, (t, alpha, err)

    def test_step_count_does_not_grow_with_t(self):
        # 1 to 7 steps here; the damped fixed point took 712 to 1104
        # iterations on such sources at t = 50, growing about linearly in t
        rng = np.random.default_rng(89)
        p = canonicalize(np.exp(0.1 * rng.standard_normal(64)) / np.arange(1, 65), 3)
        steps = [
            solve_two_parameter(p, t, alpha).iterations
            for t in (0.5, 2.0, 10.0, 50.0, 200.0, 1000.0, 5000.0)
            for alpha in (1e-9, 0.3, 0.9, 0.999999)
        ]
        assert max(steps) <= 20

    def test_step_cap_raises_with_the_solution_reached(self):
        p = canonicalize(EX1, 2)
        with pytest.raises(NoConvergence) as info:
            solve_two_parameter(p, 50.0, 0.5, max_iter=1)
        best = info.value.best
        assert best.iterations == info.value.iterations == 1
        assert best.residual == info.value.residual > DEFAULT_TOL
        with pytest.raises(InvalidParam):
            solve_two_parameter(p, 50.0, 0.5, max_iter=0)


class TestLimit:
    def test_gap_to_merging_shrinks_like_log_t_over_t(self):
        # gap * t / (1 + ln t) peaked at 2.1 on these sources (at t = 25 on
        # a source merged at 0.98 alpha_max); 4 leaves a margin of about 2
        rng = np.random.default_rng(83)
        cases = [(canonicalize(EX1, 2), 1 / 16)]  # on a breakpoint: slowest
        for _ in range(12):
            p = canonicalize(rng.dirichlet(np.ones(int(rng.integers(2, 9)))),
                             int(rng.integers(2, 4)))
            s = build_schedule(p)
            cases.append((p, float(rng.uniform(0, max(s.alpha_max, 1e-12)))))
        for p, alpha in cases:
            merge = -np.log(weights_at(build_schedule(p), p, alpha).weights)
            merge /= np.log(p.radix)
            for t in (25.0, 50.0, 100.0, 200.0, 400.0, 1000.0):
                sol = solve_two_parameter(p, t, alpha)
                gap = float(np.max(np.abs(sol.lengths.real_lengths - merge)))
                assert gap * t / (1.0 + np.log(t)) <= 4.0, (p.probs, alpha, t)
