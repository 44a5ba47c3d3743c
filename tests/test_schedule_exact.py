"""Float schedule and inversions against exact and plain-Python references.

``exact_schedule`` runs the breakpoint recursion in ``fractions.Fraction``
on the float probabilities taken as exact rationals, so it measures the
rounding of ``build_schedule`` and ``weights_at`` alone.  The scans at the
bottom are the per-symbol loops that the vectorized inversions replace.
"""

import math
from fractions import Fraction

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
from mergecode.waterfilling import LEVEL_SLACK

EPS = np.finfo(float).eps
# Worst seen over 4300 instances of the sources below: 4.6 ulps.  Computing
# the breakpoints as 1 - cumprod of the merge factors instead loses the
# relative accuracy of small breakpoints (errors of 1e15 ulps in alphas and
# about 900 ulps in the weights on the Dirichlet(0.2) sources).
MAX_ULPS = 8.0


def exact_schedule(probs):
    """Breakpoints, breakpoint weights and slopes, in exact arithmetic."""
    q = [Fraction(x) for x in probs]
    n = len(q)
    head = [sum(q[:i + 1], Fraction(0)) for i in range(n)]
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


def scan_alpha_for_level(probs, level, slack):
    """Smallest admissible alpha over the suffix sizes m = 1 .. n-1."""
    probs = probs.tolist()
    n = len(probs)
    running, best = 0.0, None
    for m in range(1, n):
        running += probs[n - m]
        alpha = (m * level - running) / (1.0 - running)
        if not 0.0 <= alpha < 1.0:
            continue
        inside = (1.0 - alpha) * probs[n - m] <= level + slack
        outside = level <= (1.0 - alpha) * probs[n - m - 1] + slack
        if inside and outside and (best is None or alpha < best):
            best = alpha
    return best


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
        rng = np.random.default_rng(radix)
        for raw in tied_and_zipf_sources():
            p = canonicalize(raw / raw.sum(), radix)
            n = p.size
            s = build_schedule(p)
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
                if level <= float(p.probs[-1]) or level > 1.0 / n:
                    continue
                want = scan_alpha_for_level(p.probs, level, LEVEL_SLACK)
                assert alpha_for_level(p, level) == want
