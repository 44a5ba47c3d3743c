"""Float schedule and inversions against exact and plain-Python references.

``exact_schedule`` runs the breakpoint recursion in ``fractions.Fraction``
on the float probabilities taken as exact rationals, so it measures the
rounding of ``build_schedule``, ``weights_at`` and the level/cap inversion
alone.  The scans at the bottom are the per-symbol loops that the
vectorized cap search and flood test replace.
"""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from mergecode import (
    Infeasible,
    alpha_for_level,
    alpha_for_limit,
    build_schedule,
    canonicalize,
    water_level,
    waterfill_weights,
    weights_at,
)

EPS = np.finfo(float).eps
# Worst seen, relative ulps, over 3800 instances of the schedule sources
# below (these seeds and nine shifted sets): 4.5 in alphas, 3.3 in the
# breakpoint weights, 2.5 in weights_at (3.3, 2.3 and 2.0 at these seeds).
# At these seeds the log-domain product that the closed form replaced was
# off by up to 156 ulps in the breakpoint weights of the wide-range sources
# and 14 in the alphas of the Zipf-count sources.  The level/cap
# inversions, absolute in units of EPS: 5.2 (level) and 5.0 (cap) at these
# seeds, 8.5 and 7.6 over nine shifted sets.  Those are last segments where
# 1 - S_m is about 0.07, so alpha moves by m / (1 - S_m), some 2300, per
# unit of level: one ulp of the level there moves alpha by about 9 EPS.
MAX_ULPS = 8.0


def exact_schedule(probs):
    """Breakpoints, breakpoint weights and slopes, in exact arithmetic."""
    q = [Fraction(x) for x in probs]
    n = len(q)
    head = list(accumulate(q))
    slope = [(head[n - 2 - k] if k < n - 1 else Fraction(0)) / (k + 1)
             for k in range(n)]
    alphas, wstar = [Fraction(0)], [q[-1]]
    for k in range(n - 1):
        p_cur, p_next = q[n - 1 - k], q[n - 2 - k]
        a = alphas[-1]
        alphas.append(a + (1 - a) * (p_next - p_cur) / (slope[k] + p_next))
        wstar.append((1 - alphas[-1]) * p_next)
    return alphas, wstar, slope, q


def exact_weights(exact, alpha):
    alphas, wstar, slope, q = exact
    n = len(q)
    a = Fraction(alpha)
    k = max(i for i in range(n) if alphas[i] <= a)
    shared = wstar[k] + (a - alphas[k]) * slope[k]
    return [(1 - a) * x for x in q[:n - 1 - k]] + [shared] * (k + 1)


def exact_alpha_for_weight(exact, target):
    """Smallest alpha whose shared weight is ``target`` (an exact rational).

    Walks the exact breakpoint lines; needs p_min < target <= the last
    breakpoint weight.
    """
    alphas, wstar, slope, q = exact
    k = next(k for k in range(len(q) - 1) if wstar[k + 1] >= target)
    return alphas[k] + (target - wstar[k]) / slope[k]


def max_rel_ulps(got, want):
    worst = 0.0
    for g, w in zip(got, want):
        if w == 0:
            assert g == 0
        else:
            worst = max(worst, float(abs(Fraction(float(g)) - w) / w) / EPS)
    return worst


def assert_matches_exact(p, alpha):
    exact = exact_schedule(p.probs.tolist())
    s = build_schedule(p)
    assert max_rel_ulps(s.alphas, exact[0]) <= MAX_ULPS
    assert max_rel_ulps(s.wstar_at_breakpoint, exact[1]) <= MAX_ULPS
    got = weights_at(s, p, alpha).weights
    assert max_rel_ulps(got, exact_weights(exact, alpha)) <= MAX_ULPS


class TestExactReference:
    def test_reference_reproduces_the_worked_breakpoints(self):
        alphas, wstar, _, _ = exact_schedule(
            [Fraction(8, 15), Fraction(4, 15), Fraction(2, 15), Fraction(1, 15)]
        )
        assert alphas == [0, Fraction(1, 16), Fraction(1, 4), Fraction(17, 32)]
        assert wstar[-1] == Fraction(1, 4)

    def test_worked_examples(self, four_symbol_source, eight_symbol_source):
        for p in (four_symbol_source, eight_symbol_source):
            for alpha in (0.01, 0.1, 0.3, 0.5):
                assert_matches_exact(p, alpha)

    def test_small_denominator_sources(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            counts = rng.integers(1, 21, int(rng.integers(2, 13)))
            p = canonicalize(counts / counts.sum(), int(rng.integers(2, 5)))
            top = float(build_schedule(p).alphas[-1])
            assert_matches_exact(p, float(rng.uniform(0.0, top)))

    def test_small_alpha_on_skewed_sources(self):
        # Dirichlet(0.2) puts probabilities down to 1e-10 and below, so the
        # first breakpoints are tiny and the weights at alpha ~ 0.005 depend
        # on them through the active segment's line
        rng = np.random.default_rng(77)
        for _ in range(150):
            n = int(rng.integers(30, 61))
            raw = rng.dirichlet(np.full(n, 0.2))
            if not np.all(raw > 0):
                continue
            p = canonicalize(raw, 2)
            assert_matches_exact(p, float(rng.uniform(0.003, 0.006)))

    def test_wide_range_sources(self):
        # p ~ exp(-U(0, 600)) spans up to 260 decades, so p_max is near 1,
        # alpha_max near 1 - 1/n and the breakpoint weights near 1/n hold
        # only a sliver 1 - alpha of each probability
        rng = np.random.default_rng(600)
        for _ in range(40):
            raw = np.exp(-rng.uniform(0.0, 600.0, int(rng.integers(2, 401))))
            p = canonicalize(raw / raw.sum(), int(rng.integers(2, 5)))
            top = float(build_schedule(p).alphas[-1])
            assert_matches_exact(p, float(rng.uniform(0.0, top)))

    def test_zipf_count_sources(self):
        # Zipf(1) token counts plus one per symbol: long runs of tied small
        # counts between distinct large ones, so many zero-width segments
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(2, 401))
            zipf = 1.0 / np.arange(1, n + 1)
            raw = rng.multinomial(10**5, zipf / zipf.sum()) + 1.0
            p = canonicalize(raw / raw.sum(), int(rng.integers(2, 5)))
            top = float(build_schedule(p).alphas[-1])
            assert_matches_exact(p, float(rng.uniform(0.0, top)))


# ------------------------------------------------ plain-Python scan oracles


def scan_alpha_for_limit(p, schedule, l_lim):
    """First segment whose right-edge weight meets the cap, walked in order."""
    probs = p.probs.tolist()
    n = len(probs)
    target = p.radix ** (-l_lim)
    k = 0
    while k < n - 2 and schedule.wstar_at_breakpoint[k + 1] < target:
        k += 1
    merged_mass = math.fsum(probs[n - k - 1:])
    return ((k + 1) * target - merged_mass) / (1.0 - merged_mass)


def scan_flood(probs, alpha):
    """Largest suffix whose level reaches into it, scanned down from m = n."""
    probs = probs.tolist()
    n = len(probs)
    tail, running = [], 0.0
    for x in reversed(probs):
        running += x
        tail.append(running)
    for m in range(n, 0, -1):
        level = (alpha + (1.0 - alpha) * tail[m - 1]) / m
        if level >= (1.0 - alpha) * probs[n - m]:
            return m, level
    raise AssertionError("no admissible suffix")


def tied_and_zipf_sources():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 201))
        yield rng.integers(1, 5, n).astype(float)  # a few distinct values
        s = float(rng.choice([0.5, 1.0, 1.5]))
        yield np.floor(1000.0 / np.arange(1, n + 1) ** s) + 1.0  # tied tail
    yield np.ones(7)


class TestInversionsAgainstScans:
    @pytest.mark.parametrize("radix", [2, 3])
    def test_tied_and_zipf_sources(self, radix):
        # the level/cap inversion is also checked against the exact one,
        # with the float target it sees taken as an exact rational
        rng = np.random.default_rng(radix)
        for raw in tied_and_zipf_sources():
            p = canonicalize(raw / raw.sum(), radix)
            n = p.size
            s = build_schedule(p)
            exact = exact_schedule(p.probs.tolist())
            lo, hi = exact[1][0], exact[1][-1]
            w = s.wstar_at_breakpoint
            assert np.all(np.diff(w) >= 0)
            assert np.all(np.diff(s.alphas) >= 0)
            assert not np.signbit(s.alphas).any()

            # caps on breakpoint edges (zero-width segments included) and
            # strictly inside segments
            lnD = np.log(radix)
            caps = [-np.log(float(x)) / lnD for x in w[1:]]
            caps += list(rng.uniform(np.log(n) / lnD, -np.log(p.probs[-1]) / lnD, 8))
            for cap in caps:
                try:
                    got = alpha_for_limit(p, cap, s)
                except Infeasible:
                    continue
                if got in (0.0, s.alpha_max):
                    continue
                want = scan_alpha_for_limit(p, s, cap)
                assert got == pytest.approx(want, rel=1e-12, abs=64 * EPS)
                target = Fraction(radix ** -float(cap))  # the weight inverted
                if lo < target <= hi:
                    want = exact_alpha_for_weight(exact, target)
                    assert abs(Fraction(got) - want) <= MAX_ULPS * EPS

            for alpha in list(s.alphas[:-1]) + list(rng.uniform(0, 1, 8)) + [1.0]:
                m, level = scan_flood(p.probs, float(alpha))
                wl = water_level(p, float(alpha))
                assert wl.level == level
                if m < n:  # and the level stays below the first dry symbol
                    dry = (1.0 - alpha) * p.probs[n - m - 1]
                    assert level <= dry * (1 + 4 * EPS)
                assert wl.flooded == frozenset(range(n - m, n))
                assert waterfill_weights(p, float(alpha)).merged_from == n - m

            levels = list(rng.uniform(float(p.probs[-1]), 1.0 / n, 8)) + list(w[1:])
            for level in levels:
                level = float(level)
                if not lo < Fraction(level) <= hi:
                    continue
                want = exact_alpha_for_weight(exact, Fraction(level))
                assert abs(Fraction(alpha_for_level(p, level)) - want) <= MAX_ULPS * EPS
