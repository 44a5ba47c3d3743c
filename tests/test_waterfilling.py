import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergecode import (
    AlphaOutOfRange,
    Infeasible,
    InvalidParam,
    alpha_for_level,
    alpha_for_limit,
    build_schedule,
    canonicalize,
    merged_cardinality,
    water_level,
    waterfill_weights,
    weights_at,
)
from conftest import random_source


class TestWaterLevel:
    def test_huffman_coincidence_point(self, four_symbol_source):
        wl = water_level(four_symbol_source, 1 / 16)
        assert wl.level == pytest.approx(0.125, abs=1e-12)
        assert wl.flooded == frozenset({2, 3})

    def test_alpha_zero_floods_only_the_smallest(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = random_source(rng, int(rng.integers(2, 10)))
            wl = water_level(p, 0.0)
            assert wl.level == pytest.approx(float(p.probs[-1]), abs=1e-15)
            assert p.size - 1 in wl.flooded

    def test_no_compression_point_floods_everything(self, four_symbol_source):
        wl = water_level(four_symbol_source, 0.53125)
        assert wl.level == pytest.approx(0.25, abs=1e-12)
        assert wl.flooded == frozenset(range(4))

    def test_alpha_range(self, four_symbol_source):
        with pytest.raises(AlphaOutOfRange):
            water_level(four_symbol_source, np.nextafter(1.0, 2.0))
        with pytest.raises(AlphaOutOfRange):
            water_level(four_symbol_source, -0.1)

    def test_clipped_excess_sums_to_alpha(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_source(rng, int(rng.integers(2, 13)))
            alpha = float(rng.uniform(0, 0.999))
            wl = water_level(p, alpha)
            excess = np.maximum(wl.level - (1 - alpha) * p.probs, 0.0)
            assert excess.sum() == pytest.approx(alpha, abs=1e-12)

    def test_level_continuous_and_non_decreasing(self, eight_symbol_source):
        grid = np.linspace(0, 0.999, 500)
        levels = [water_level(eight_symbol_source, float(a)).level for a in grid]
        diffs = np.diff(levels)
        assert np.all(diffs >= -1e-14)
        assert np.max(np.abs(diffs)) < 0.01  # no jumps on a fine grid


class TestWaterfillWeights:
    def test_worked_point(self, four_symbol_source):
        w = waterfill_weights(four_symbol_source, 1 / 16)
        np.testing.assert_allclose(w.weights, [0.5, 0.25, 0.125, 0.125], atol=1e-12)

    def test_alpha_zero_returns_source(self, eight_symbol_source):
        w = waterfill_weights(eight_symbol_source, 0.0)
        np.testing.assert_allclose(w.weights, eight_symbol_source.probs, atol=1e-15)

    def test_matches_merging_rule_at_fixed_alpha(self):
        rng = np.random.default_rng(7)
        p = random_source(rng, 9)
        s = build_schedule(p)
        wm = weights_at(s, p, 0.3).weights
        ww = waterfill_weights(p, 0.3).weights
        np.testing.assert_allclose(ww, wm, atol=1e-12)

    def test_oracle_equivalence_and_flood_cardinality(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            p = random_source(rng, n)
            s = build_schedule(p)
            alpha = float(rng.uniform(0, max(s.alpha_max, 1e-12)))
            wm = weights_at(s, p, alpha).weights
            wl = water_level(p, alpha)
            ww = waterfill_weights(p, alpha).weights
            assert np.max(np.abs(ww - wm)) <= 1e-9
            assert len(wl.flooded) == merged_cardinality(s, alpha)

    def test_mass_conservation(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            p = random_source(rng, int(rng.integers(2, 13)))
            alpha = float(rng.uniform(0, 0.999))
            w = waterfill_weights(p, alpha).weights
            assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestAlphaForLevel:
    def test_inverts_the_length_cap(self, eight_symbol_source):
        assert alpha_for_level(eight_symbol_source, 2.0**-4) == pytest.approx(
            alpha_for_limit(eight_symbol_source, 4.0), abs=1e-9
        )

    def test_uniform_level_gives_alpha_max(self, eight_symbol_source):
        alpha = alpha_for_level(eight_symbol_source, 0.125)
        assert alpha == pytest.approx(0.6389, abs=5e-4)

    def test_level_above_uniform_weight_is_infeasible(self, eight_symbol_source):
        with pytest.raises(Infeasible):
            alpha_for_level(eight_symbol_source, 2.0**-2.5)

    @pytest.mark.parametrize("level", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_level_is_a_parameter_error(self, eight_symbol_source, level):
        # the same class as a bad length cap, not Infeasible
        with pytest.raises(InvalidParam, match="level must be positive"):
            alpha_for_level(eight_symbol_source, level)
        with pytest.raises(InvalidParam):
            alpha_for_limit(eight_symbol_source, level)

    @pytest.mark.parametrize("radix, n", [(2, 8), (3, 9), (4, 5)])
    def test_infeasible_level_carries_the_uniform_length(self, radix, n):
        # min_achievable is a length, log_D(n), as alpha_for_limit reports it
        p = canonicalize(np.arange(1.0, n + 1) / (n * (n + 1) / 2), radix)
        with pytest.raises(Infeasible, match=rf"exceeds the uniform weight 1/{n}$") as exc:
            alpha_for_level(p, 2.0 / n)
        assert exc.value.min_achievable == pytest.approx(np.log(n) / np.log(radix))
        with pytest.raises(Infeasible) as cap_exc:
            alpha_for_limit(p, 0.5 * np.log(n) / np.log(radix))
        assert exc.value.min_achievable == cap_exc.value.min_achievable

    def test_level_below_smallest_probability_needs_no_clipping(
        self, eight_symbol_source
    ):
        assert alpha_for_level(eight_symbol_source, 0.01) == 0.0

    def test_round_trips_water_level(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            p = random_source(rng, int(rng.integers(2, 10)))
            s = build_schedule(p)
            if s.alpha_max < 1e-9:
                continue
            alpha = float(rng.uniform(1e-6, s.alpha_max * 0.999))
            level = water_level(p, alpha).level
            assert alpha_for_level(p, level) == pytest.approx(alpha, abs=1e-9)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=10),
    st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=120)
def test_flooded_is_a_suffix_and_weights_clip(weights, alpha):
    p = canonicalize(weights, 2)
    wl = water_level(p, alpha)
    assert wl.flooded == frozenset(range(p.size - len(wl.flooded), p.size))
    w = waterfill_weights(p, alpha).weights
    np.testing.assert_allclose(
        w, np.maximum((1 - alpha) * p.probs, wl.level), atol=1e-15
    )
