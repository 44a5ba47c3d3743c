import numpy as np
import pytest

from mergecode import (
    InvalidParam,
    TooLarge,
    canonicalize,
    extend,
    extension_bounds,
)
from conftest import random_source


class TestExtend:
    def test_fair_coin_squared(self):
        p = canonicalize([0.5, 0.5], 2)
        ext = extend(p, 2)
        np.testing.assert_allclose(ext.probs, 0.25, atol=1e-15)

    def test_biased_coin_squared(self):
        p = canonicalize([0.75, 0.25], 2)
        ext = extend(p, 2)
        np.testing.assert_allclose(
            ext.probs, [0.5625, 0.1875, 0.1875, 0.0625], atol=1e-15
        )

    def test_four_symbol_squared(self, four_symbol_source):
        ext = extend(four_symbol_source, 2)
        assert ext.size == 16
        assert float(ext.probs[0]) == pytest.approx(64 / 225, abs=1e-15)
        assert ext.probs.sum() == pytest.approx(1.0, abs=1e-12)
        # marginalizing the blocks recovers the source
        marginal = np.zeros(4)
        labels = {lab: i for i, lab in enumerate("0123")}
        for prob, block in zip(ext.probs, ext.labels):
            marginal[labels[block[0]]] += prob
        np.testing.assert_allclose(
            np.sort(marginal)[::-1], four_symbol_source.probs, atol=1e-12
        )

    def test_sizes_and_normalization(self):
        rng = np.random.default_rng(89)
        for n in (1, 2, 3):
            p = random_source(rng, 4)
            ext = extend(p, n)
            assert ext.size == 4**n
            assert ext.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_guard_rails(self, four_symbol_source):
        with pytest.raises(TooLarge):
            extend(four_symbol_source, 11)  # 4**11 > 1e6
        with pytest.raises(InvalidParam):
            extend(four_symbol_source, 0)

    def test_underflowing_block_product(self):
        p = canonicalize([0.5, 0.5, 5e-324], 2)
        assert extend(p, 1).size == 3
        for call in (lambda: extend(p, 2), lambda: extension_bounds(p, 0.3, 2)):
            with pytest.raises(InvalidParam, match="underflows to 0"):
                call()


class TestExtensionBounds:
    def test_dyadic_block_code_is_tight(self):
        p = canonicalize([0.5, 0.5], 2)
        report = extension_bounds(p, 0.0, 3)
        assert report.lower == pytest.approx(1.0, abs=1e-12)
        assert report.per_symbol_payoff == pytest.approx(1.0, abs=1e-12)
        assert report.upper == pytest.approx(1.0 + 1 / 3, abs=1e-12)

    def test_sandwich_on_worked_source(self, four_symbol_source):
        report = extension_bounds(four_symbol_source, 1 / 16, 2)
        assert report.lower - 1e-9 <= report.per_symbol_payoff < report.upper

    def test_uniform_regime(self, four_symbol_source):
        # beyond the extension's no-compression point all weights are equal
        report = extension_bounds(four_symbol_source, 0.95, 2)
        assert report.per_symbol_payoff == pytest.approx(2.0, abs=1e-12)

    def test_sandwich_and_gap_bound(self):
        rng = np.random.default_rng(97)
        sources = [
            canonicalize([0.75, 0.25], 2),
            random_source(rng, 3),
            random_source(rng, 4),
        ]
        for p in sources:
            for n in (1, 2, 3):
                for alpha in (0.0, 1 / 16, 0.3):
                    report = extension_bounds(p, alpha, n)
                    gap = report.per_symbol_payoff - report.lower
                    assert -1e-9 <= gap <= 1.0 / n

    def test_gap_shrinks_with_block_size(self):
        # continuous random sources: the 1/n ceiling tightens and the
        # realized gap follows suit
        rng = np.random.default_rng(991)
        p = random_source(rng, 3)
        for alpha in (0.0, 0.2):
            gaps = [
                extension_bounds(p, alpha, n).per_symbol_payoff
                - extension_bounds(p, alpha, n).lower
                for n in (1, 2, 3)
            ]
            assert gaps[2] <= gaps[0] + 1e-9
