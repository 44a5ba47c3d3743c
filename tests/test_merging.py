import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergecode import (
    AlphaOutOfRange,
    alpha_for_limit,
    build_schedule,
    canonicalize,
    merged_cardinality,
    weights_at,
)
from mergecode.oracle import brute_force_optimal
from conftest import random_source


class TestBreakpoints:
    def test_first_breakpoint(self, four_symbol_source):
        s = build_schedule(four_symbol_source)
        assert s.alphas[1] == pytest.approx(1 / 16, abs=1e-12)

    def test_alpha_max(self, four_symbol_source):
        s = build_schedule(four_symbol_source)
        assert s.alpha_max == pytest.approx(0.53125, abs=1e-12)
        assert s.alphas[-1] == pytest.approx(s.alpha_max, abs=1e-12)

    def test_middle_breakpoint_where_cardinality_switches(self, four_symbol_source):
        # independent check: a structure-blind optimizer shows the number of
        # maximal lengths jumping from 2 to 3 across alpha = 0.25
        s = build_schedule(four_symbol_source)
        assert s.alphas[2] == pytest.approx(0.25, abs=1e-12)
        for alpha, expected_max_set in [(0.22, 2), (0.28, 3)]:
            lengths = brute_force_optimal(four_symbol_source, alpha)
            l = lengths.real_lengths
            assert np.sum(l > l.max() - 1e-3) == expected_max_set

    def test_uniform_source_has_zero_width_everywhere(self):
        p = canonicalize([0.25] * 4, 2)
        s = build_schedule(p)
        np.testing.assert_allclose(s.alphas, 0.0, atol=1e-15)
        assert s.alpha_max == pytest.approx(0.0, abs=1e-15)

    def test_tied_smallest_probabilities_repeat_breakpoints(
        self, eight_symbol_source
    ):
        s = build_schedule(eight_symbol_source)
        assert s.alphas[1] == 0.0  # two tied smallest merge immediately
        assert s.alphas[2] == pytest.approx(1 / 14, abs=1e-12)

    def test_breakpoints_non_decreasing_and_cardinality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_source(rng, int(rng.integers(1, 13)))
            s = build_schedule(p)
            assert np.all(np.diff(s.alphas) >= -1e-15)
            assert s.alphas[0] == 0.0
            assert list(s.card) == list(range(1, p.size + 1))
            assert s.alphas[-1] == pytest.approx(s.alpha_max, abs=1e-12)
            assert np.all(s.slope[: p.size - 1] > 0)

    def test_singleton(self):
        p = canonicalize([1.0], 2)
        s = build_schedule(p)
        assert s.alpha_max == pytest.approx(0.0)
        w = weights_at(s, p, 0.5)
        assert w.weights.tolist() == [1.0]


class TestWeightsAt:
    def test_huffman_coincidence_point(self, four_symbol_source):
        s = build_schedule(four_symbol_source)
        w = weights_at(s, four_symbol_source, 1 / 16)
        np.testing.assert_allclose(
            w.weights, [0.5, 0.25, 0.125, 0.125], atol=1e-12
        )
        assert w.merged_from == 2

    def test_alpha_zero_returns_source(self, four_symbol_source):
        s = build_schedule(four_symbol_source)
        w = weights_at(s, four_symbol_source, 0.0)
        np.testing.assert_allclose(w.weights, four_symbol_source.probs, atol=1e-15)

    def test_beyond_alpha_max_is_uniform(self, four_symbol_source):
        s = build_schedule(four_symbol_source)
        for alpha in (0.6, s.alpha_max, 1.0):
            w = weights_at(s, four_symbol_source, alpha)
            np.testing.assert_allclose(w.weights, 0.25, atol=1e-15)
            assert w.merged_from == 0

    def test_capped_instance_pins_smallest_weights(self, eight_symbol_source):
        # the alpha solving the length-4 cap must put the merged block at 2**-4
        alpha = alpha_for_limit(eight_symbol_source, 4.0)
        s = build_schedule(eight_symbol_source)
        w = weights_at(s, eight_symbol_source, 5 / 96)
        assert alpha == pytest.approx(5 / 96, abs=1e-12)
        np.testing.assert_allclose(w.weights[-2:], 0.0625, atol=1e-12)

    def test_alpha_out_of_range(self, four_symbol_source):
        s = build_schedule(four_symbol_source)
        with pytest.raises(AlphaOutOfRange):
            weights_at(s, four_symbol_source, -0.01)
        with pytest.raises(AlphaOutOfRange):
            weights_at(s, four_symbol_source, 1.01)
        with pytest.raises(AlphaOutOfRange):
            merged_cardinality(s, np.nan)


class TestMergedCardinality:
    def test_worked_example_segments(self, four_symbol_source):
        s = build_schedule(four_symbol_source)
        assert merged_cardinality(s, 0.03) == 1   # below 1/16
        assert merged_cardinality(s, 0.10) == 2   # between 1/16 and 1/4
        assert merged_cardinality(s, 1.0) == 4

    def test_cardinality_matches_distinct_weight_count(self, four_symbol_source):
        s = build_schedule(four_symbol_source)
        for alpha, card in [(0.03, 1), (0.10, 2)]:
            w = weights_at(s, four_symbol_source, alpha)
            merged = np.sum(np.abs(w.weights - w.weights[-1]) < 1e-12)
            assert merged == card == merged_cardinality(s, alpha)


@st.composite
def source_and_alpha(draw):
    weights = draw(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=10)
    )
    alpha = draw(st.floats(min_value=0.0, max_value=1.0))
    return canonicalize(weights, 2), alpha


@given(source_and_alpha())
@settings(max_examples=150)
def test_weight_vector_invariants(case):
    p, alpha = case
    s = build_schedule(p)
    w = weights_at(s, p, alpha)
    assert abs(w.weights.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(w.weights) <= 1e-15)
    assert np.all(w.weights > 0)
    # order preservation against the source
    assert np.all(np.argsort(-w.weights, kind="stable") == np.arange(p.size))


def _grid_with_interiors(schedule, points=400):
    grid = np.union1d(
        np.linspace(0.0, max(schedule.alpha_max, 1e-9), points), schedule.alphas
    )
    return grid[grid <= 1.0]


def test_normalization_on_dense_grid(four_symbol_source, eight_symbol_source):
    for p in (four_symbol_source, eight_symbol_source):
        s = build_schedule(p)
        for alpha in np.linspace(0, 1, 1001):
            w = weights_at(s, p, float(alpha))
            assert abs(w.weights.sum() - 1.0) <= 1e-12


def test_unmerged_decrease_merged_increase():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = random_source(rng, int(rng.integers(2, 10)))
        s = build_schedule(p)
        grid = _grid_with_interiors(s)
        for a0, a1 in zip(grid[:-1], grid[1:]):
            if a1 >= s.alpha_max or a1 - a0 < 1e-12:
                continue
            k0 = merged_cardinality(s, float(a0))
            k1 = merged_cardinality(s, float(a1))
            if k0 != k1:
                continue  # straddles a breakpoint
            w0 = weights_at(s, p, float(a0)).weights
            w1 = weights_at(s, p, float(a1)).weights
            n = p.size
            assert np.all(w1[: n - k0] - w0[: n - k0] < 1e-12)
            assert w1[-1] - w0[-1] > -1e-12


def test_piecewise_linear_within_segments():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = random_source(rng, int(rng.integers(2, 10)))
        s = build_schedule(p)
        for k in range(p.size - 1):
            lo, hi = float(s.alphas[k]), float(s.alphas[k + 1])
            if hi - lo < 1e-6:
                continue
            ts = np.linspace(lo + (hi - lo) * 0.1, hi - (hi - lo) * 0.1, 3)
            ws = np.array([weights_at(s, p, float(t)).weights for t in ts])
            second_diff = ws[2] - 2 * ws[1] + ws[0]
            assert np.max(np.abs(second_diff)) <= 1e-10


def test_continuity_at_breakpoints():
    rng = np.random.default_rng(17)
    eps = 1e-9
    for _ in range(10):
        p = random_source(rng, int(rng.integers(2, 10)))
        s = build_schedule(p)
        for alpha_k in s.alphas[1:]:
            a = float(alpha_k)
            if a <= eps or a >= s.alpha_max:
                continue
            w_left = weights_at(s, p, a - eps).weights
            w_at = weights_at(s, p, a).weights
            assert np.max(np.abs(w_left - w_at)) <= 10 * eps


def test_once_merged_always_merged():
    rng = np.random.default_rng(19)
    for _ in range(10):
        p = random_source(rng, int(rng.integers(2, 10)))
        s = build_schedule(p)
        cards = [merged_cardinality(s, float(a)) for a in np.linspace(0, 1, 257)]
        assert all(c1 >= c0 for c0, c1 in zip(cards[:-1], cards[1:]))
