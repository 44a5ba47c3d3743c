import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

from mergecode import (
    Infeasible,
    InvalidParam,
    alpha_for_level,
    alpha_for_limit,
    canonicalize,
    limited_code,
    optimal_code,
)
from conftest import random_source


class TestAlphaForLimit:
    def test_cap_four(self, eight_symbol_source):
        alpha = alpha_for_limit(eight_symbol_source, 4.0)
        assert alpha == pytest.approx(5 / 96, abs=1e-12)
        assert alpha == pytest.approx(0.0521, abs=5e-4)

    def test_cap_five_needs_no_tradeoff(self, eight_symbol_source):
        assert alpha_for_limit(eight_symbol_source, 5.0) == 0.0

    def test_cap_three_forces_uniform(self, eight_symbol_source):
        alpha = alpha_for_limit(eight_symbol_source, 3.0)
        assert alpha == pytest.approx(1 - 26 / 72, abs=1e-12)
        assert alpha == pytest.approx(0.6389, abs=5e-4)

    def test_cap_below_uniform_is_infeasible(self, eight_symbol_source):
        with pytest.raises(Infeasible) as excinfo:
            alpha_for_limit(eight_symbol_source, 2.5)
        assert excinfo.value.min_achievable == pytest.approx(3.0, abs=1e-12)

    def test_cap_must_be_positive(self, eight_symbol_source):
        with pytest.raises(InvalidParam):
            alpha_for_limit(eight_symbol_source, 0.0)

    def test_cap_at_uncapped_max_is_alpha_zero(self, four_symbol_source):
        lmax = -np.log2(1 / 15)
        assert alpha_for_limit(four_symbol_source, lmax) == 0.0

    def test_cap_just_below_uncapped_max_with_tiny_p_min(self):
        # alpha is far below the rounding of 1 here, so it has to come from
        # the merged mass itself, not from 1 - (1 - m*D^-L)/tail_mass
        p = canonicalize([0.4, 0.2, 0.15, 0.1, 0.08, 0.04, 0.03, 1e-19], 2)
        uncapped_max = -np.log2(p.probs[-1])
        for below in (1e-3, 0.5, 2.0):
            cap = uncapped_max - below
            result = limited_code(p, cap)
            assert 0.0 < result.alpha_hat < 1e-17
            assert result.lengths.max_length <= cap * (1 + 1e-12)


class TestLimitedCode:
    def test_cap_four_lengths_and_average(self, eight_symbol_source):
        result = limited_code(eight_symbol_source, 4.0)
        expected = [1.61, 2.46, 2.78, 3.78, 3.78, 3.78, 4.0, 4.0]
        np.testing.assert_allclose(result.lengths.real_lengths, expected, atol=0.01)
        assert result.avg_length == pytest.approx(2.6355, abs=5e-4)
        assert result.feasible

    def test_cap_three_all_lengths_three(self, eight_symbol_source):
        result = limited_code(eight_symbol_source, 3.0)
        np.testing.assert_allclose(result.lengths.real_lengths, 3.0, atol=1e-12)

    def test_uniform_source_boundary_cap(self):
        p = canonicalize([0.25] * 4, 2)
        result = limited_code(p, 2.0)
        assert result.alpha_hat == 0.0
        np.testing.assert_allclose(result.lengths.real_lengths, 2.0, atol=1e-12)

    def test_infeasible_propagates(self, eight_symbol_source):
        with pytest.raises(Infeasible):
            limited_code(eight_symbol_source, 2.5)


class TestConsistency:
    def test_cap_is_active_in_the_middle_regime(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            p = random_source(rng, int(rng.integers(2, 12)))
            lo = np.log2(p.size)
            hi = -np.log2(p.probs[-1])
            if hi - lo < 1e-6:
                continue
            l_lim = float(rng.uniform(lo + 1e-3 * (hi - lo), hi))
            alpha = alpha_for_limit(p, l_lim)
            _, lengths, _ = optimal_code(p, alpha)
            assert lengths.max_length == pytest.approx(l_lim, abs=1e-9)

    def test_alpha_non_increasing_in_cap(self, eight_symbol_source):
        caps = np.linspace(3.0, 5.0, 41)
        alphas = [alpha_for_limit(eight_symbol_source, float(c)) for c in caps]
        assert all(a1 <= a0 + 1e-12 for a0, a1 in zip(alphas[:-1], alphas[1:]))

    def test_water_level_inversion_agrees(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            p = random_source(rng, int(rng.integers(2, 12)))
            lo = np.log2(p.size)
            hi = -np.log2(p.probs[-1])
            if hi - lo < 1e-6:
                continue
            l_lim = float(rng.uniform(lo, hi))
            expected = alpha_for_limit(p, l_lim)
            assert alpha_for_level(p, 2.0 ** (-l_lim)) == pytest.approx(
                expected, abs=1e-9
            )


class TestAverageLengthOptimality:
    def test_no_feasible_code_beats_the_solution(self):
        # minimize the average length directly over codes whose point on the
        # simplex stays above the cap floor D**-l_lim (max length <= l_lim)
        rng = np.random.default_rng(61)
        for _ in range(8):
            n = int(rng.integers(3, 6))
            p = random_source(rng, n)
            lo = np.log2(n)
            hi = -np.log2(p.probs[-1])
            if hi - lo < 1e-3:
                continue
            l_lim = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
            ours = limited_code(p, l_lim)

            floor = 2.0 ** (-l_lim)
            free_mass = 1.0 - n * floor
            probs = p.probs

            def avg_len(u):
                q = floor + free_mass * np.exp(u - logsumexp(u))
                return float(np.dot(probs, -np.log2(q)))

            best = np.inf
            for _ in range(12):
                res = minimize(
                    avg_len,
                    rng.normal(size=n),
                    method="Nelder-Mead",
                    options=dict(xatol=1e-10, fatol=1e-12, maxfev=4000 * n),
                )
                best = min(best, float(res.fun))
            assert best >= ours.avg_length - 1e-4
